"""Batch front-end: generate, audit, verify bounds, run counting censuses,
recover and score.  Reports are append-only JSON/CSV files with the params,
seed, gate flags and artifact version embedded; exit status 0 means every
asserted invariant passed.
"""
from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from pathlib import Path as FsPath

from . import __version__
from .pathgraph import (
    collision_census,
    enumerate_split_paths,
    ratio_drift_certificate,
    top_anchor_certificate,
    path_prepath,
)
from .pyramid import PrePathError, build_pyramid, verify_pyramid
from .recover import RecordError, RecoverConfig, recover_instance, score_record
from .synth import (
    Params,
    audit_instance,
    gen_instance,
    instance_from_json,
    instance_to_json,
)
from .torus import fields_to_json, frac_to_str, str_to_frac


def _report_header(params: Params) -> dict:
    return {
        "version": __version__,
        "seed": params.seed,
        "params": params.to_json(),
        "gates": params.gates(),
    }


def _write_json(path: FsPath, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _write_csv(path: FsPath, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        path.write_text("")
        return
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


# the required Params fields, for a synth run given no --params file
SYNTH_DEFAULTS = dict(X=10**8, H=10**4, K=100, P=20, P_prime=5, eps_edge="1/5",
                      s_edge="5/1", site_count=2000)


def _params_from_args(args) -> Params:
    """The --params file (or SYNTH_DEFAULTS), then every generator flag given:
    the generator flags default to absent, and each is named by its field."""
    doc = json.loads(FsPath(args.params).read_text()) if args.params else SYNTH_DEFAULTS
    given = {k: v for k, v in vars(args).items() if k in Params.__dataclass_fields__}
    return Params.from_json({**doc, **given})


def _load_instance(path: str):
    return instance_from_json(FsPath(path).read_text())


def cmd_synth(args) -> int:
    out = FsPath(args.out)
    params = _params_from_args(args)
    inst = gen_instance(
        params, mode=args.mode, t_star=str_to_frac(args.t_star), q_star=args.q_star
    )
    out.mkdir(parents=True, exist_ok=True)
    (out / "instance.json").write_text(instance_to_json(inst))
    if args.blind:
        (out / "instance_blind.json").write_text(instance_to_json(inst.strip_truth()))
        _write_json(out / "truth.json", inst.truth.to_json())
    _write_json(
        out / "synth_report.json",
        {**_report_header(params), "sites": len(inst.cfg.sites), "edges": len(inst.edges)},
    )
    return 0


def cmd_audit(args) -> int:
    inst = _load_instance(args.instance)
    report = audit_instance(inst)
    doc = {**_report_header(inst.params), **report.to_json()}
    _write_json(FsPath(args.out) / "audit_report.json", doc)
    return 0 if report.passed else 1


def cmd_verify_bounds(args) -> int:
    """Pyramid bound rows plus drift and apex certificates over enumerated
    split paths of every length up to --k."""
    inst = _load_instance(args.instance)
    eps = inst.params.eps_edge
    rows: list[dict] = []

    def row(path_id, kind, passed, j="", m="", actual=None, bound=None) -> bool:
        rows.append(
            {"path": path_id, "kind": kind, "j": j, "m": m,
             "actual": "" if actual is None else frac_to_str(actual),
             "bound": "" if bound is None else frac_to_str(bound), "pass": passed}
        )
        return passed

    pyramids: list[dict] = []
    ok = True
    n_paths = 0
    starts = range(len(inst.cfg.sites))
    for start, k in itertools.product(starts, range(1, args.k + 1)):
        if n_paths >= args.limit:
            break
        enum = enumerate_split_paths(
            inst.cfg, inst.edges, start, k, limit=args.limit - n_paths
        )
        for pid, path in enumerate(enum.paths):
            n_paths += 1
            path_id = f"{start}:{k}:{pid}"
            try:
                pp = path_prepath(path, eps)
            except PrePathError:
                ok &= row(path_id, "prepath", False)
                continue
            py = build_pyramid(pp)
            if len(pyramids) < 10:
                pyramids.append({"path": path_id, **py.to_json()})
            for r in verify_pyramid(pp, py).rows:
                ok &= row(path_id, "layer_gap", r.passed, j=r.j,
                          actual=r.actual, bound=r.predicted)
            drift = ratio_drift_certificate(path, path.k)
            ok &= row(path_id, "ratio_drift", drift.passed, m=drift.m,
                      actual=drift.drift, bound=drift.bound)
            for j in (1, path.k + 1):
                cert = top_anchor_certificate(path, py, j)
                ok &= row(path_id, "apex_anchor", cert.passed, j=cert.j,
                          actual=cert.actual, bound=cert.bound)
    out = FsPath(args.out)
    if args.format == "csv":
        _write_csv(out / "bound_certificates.csv", rows)
    _write_json(
        out / "verify_report.json",
        {
            **_report_header(inst.params),
            "paths": n_paths,
            "rows": rows,
            "pyramids": pyramids,
            "pass": ok,
        },
    )
    return 0 if ok else 1


def cmd_census(args) -> int:
    inst = _load_instance(args.instance)
    params = inst.params
    reports = []
    ok = True
    for start in range(len(inst.cfg.sites)):
        enum = enumerate_split_paths(
            inst.cfg, inst.edges, start, args.k, limit=args.limit
        )
        if not enum.paths:
            continue
        rep = collision_census(
            list(enum.paths), params.X, params.H, params.P, params.B_ratio
        )
        ok &= rep.passed
        reports.append({"start": start, **rep.to_json()})
    _write_json(
        FsPath(args.out) / "census_report.json",
        {**_report_header(params), "census": reports, "pass": ok},
    )
    return 0 if ok else 1


def cmd_recover(args) -> int:
    inst = _load_instance(args.instance)
    rcfg = RecoverConfig(
        k=args.k,
        min_common_witness=args.min_common_witness,
        tol_t=str_to_frac(args.tol_T) if args.tol_T else None,
        path_limit=args.limit,
        d_min=args.d_min,
    )
    result = recover_instance(inst, rcfg)
    out = FsPath(args.out)
    header = {**_report_header(inst.params), "config": fields_to_json(rcfg)}
    _write_json(out / "recovery.json", {**header, **result.to_json()})
    accepted = {e.target_index for e in result.global_freq.accepted} if result.global_freq else set()
    _write_csv(
        out / "targets.csv",
        [{**e.to_row(), "accepted": e.target_index in accepted} for e in result.estimates],
    )
    return 0 if result.error is None else 1


def cmd_score(args) -> int:
    inst = _load_instance(args.instance)
    try:
        doc = json.loads(FsPath(args.recovery).read_text())
    except ValueError as exc:
        raise RecordError(f"recovery record is not JSON: {exc}") from exc
    score = score_record(doc, inst, args.k)
    _write_json(
        FsPath(args.out) / "score.json",
        {
            **_report_header(inst.params),
            "recovery_file": args.recovery,
            "recorded_hub": doc["hub"],
            **score.to_json(),
        },
    )
    return 0 if score.status == "ok" else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="freqpath",
        description="Exact-arithmetic path/pyramid laboratory with planted "
        "frequency recovery.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common_out(p):
        p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("synth", help="generate a verified instance",
                       argument_default=argparse.SUPPRESS)
    common_out(p)
    p.add_argument("--params", default=None,
                   help="JSON params file; generator flags given override it")
    p.add_argument("--mode", choices=("archimedean", "rational"), default="archimedean")
    p.add_argument("--t-star", default="0/1")
    p.add_argument("--q-star", type=int, default=1)
    p.add_argument("--blind", action="store_true", default=False)
    # generator flags, absent unless given; each dest is a Params field
    p.add_argument("--seed", type=int)
    p.add_argument("--X", type=int)
    p.add_argument("--H", type=int)
    p.add_argument("--K", type=int)
    p.add_argument("--P", type=int)
    p.add_argument("--P-prime", dest="P_prime", type=int)
    p.add_argument("--eps-edge")
    p.add_argument("--s-edge")
    p.add_argument("--sites", dest="site_count", type=int)
    p.add_argument("--edges", dest="edge_count", type=int)
    p.add_argument("--d-min", type=int)
    p.add_argument("--placement", choices=("uniform", "web"))
    p.add_argument("--web-pair-targets", type=int)
    p.add_argument("--web-diamonds", type=int)
    p.add_argument("--web-chains", type=int)
    p.add_argument("--web-chain-len", type=int)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("audit", help="re-verify an instance's invariants")
    common_out(p)
    p.add_argument("--instance", required=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("verify-bounds", help="pyramid and path certificates")
    common_out(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--instance", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--limit", type=int, default=200)
    p.set_defaults(func=cmd_verify_bounds)

    p = sub.add_parser("census", help="same-endpoint route counting checks")
    common_out(p)
    p.add_argument("--instance", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--limit", type=int, default=1000)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("recover", help="hub, route pairs, local and global estimates")
    common_out(p)
    p.add_argument("--instance", required=True)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--min-common-witness", type=int, default=1)
    p.add_argument("--tol-T", default=None)
    p.add_argument("--d-min", type=int, default=None)
    p.add_argument("--limit", type=int, default=20000)
    p.set_defaults(func=cmd_recover)

    p = sub.add_parser("score", help="grade a recorded recovery against the truth")
    common_out(p)
    p.add_argument("--instance", required=True, help="instance.json with its truth")
    p.add_argument("--recovery", required=True, help="the recovery.json to grade")
    p.add_argument("--k", type=int, required=True,
                   help="the k the recovery must have been made with")
    p.set_defaults(func=cmd_score)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary, report and exit
        _write_json(
            FsPath(args.out) / f"{args.command}_error.json",
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
        )
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
