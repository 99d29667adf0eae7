"""freqpath: an exact-arithmetic laboratory for prime-labeled path graphs
on R/QZ, layered frequency pyramids, and planted global-frequency recovery.
"""

__version__ = "0.1.0"

from .torus import (  # noqa: F401
    Modulus,
    TorusPoint,
    closest_lift_pair,
    combine_moduli,
    norm_mod,
    reduce_mod,
    torus_norm,
)
from .pyramid import (  # noqa: F401
    BoundReport,
    PrePath,
    Pyramid,
    build_pyramid,
    merge_two,
    layer_step,
    predicted_gap,
    verify_pyramid,
)
from .pathgraph import (  # noqa: F401
    Configuration,
    Edge,
    Path,
    Site,
    SplitWalks,
    anchor_bound_certificate,
    collision_census,
    concat_paths,
    count_close_products,
    enumerate_split_paths,
    invert_path,
    path_prepath,
    peel_regular,
    ratio_drift_certificate,
    top_anchor_certificate,
)
from .synth import (  # noqa: F401
    GroundTruth,
    Instance,
    Params,
    audit_instance,
    gen_instance,
    instance_from_json,
    instance_to_json,
)
from .recover import (  # noqa: F401
    GlobalFrequency,
    LocalEstimate,
    RecoverConfig,
    aggregate_global,
    find_disjoint_path_pairs,
    local_estimate,
    recover_instance,
    score_recovery,
    select_hub,
)
