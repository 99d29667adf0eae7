"""Per-layer tracing from outside the program.

The tracer replaces each listed public function of freqpath with a wrapper
that counts calls and accumulates self time (the span minus the spans of
traced calls made inside it).  A function is replaced in every freqpath
module namespace that binds it, so nested calls made through
`from .torus import norm_mod`-style imports are caught as well.  The
originals are restored when the tracer is closed.

Counters are taken from the return values at the same boundaries.  Nothing
is written while tracing; totals are read out once at the end.
"""
from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter

# module -> traced public functions, in report order
TRACED = {
    "torus": ("reduce_mod", "norm_mod", "torus_norm", "closest_lift_pair",
              "combine_moduli"),
    "primes": ("is_prime",),
    "pyramid": ("merge_two", "layer_step", "build_pyramid", "verify_pyramid",
                "predicted_gap"),
    "pathgraph": ("enumerate_split_paths", "build_path", "validate_path_modulus",
                  "path_prepath", "concat_paths", "invert_path",
                  "ratio_drift_certificate", "anchor_bound_certificate",
                  "top_anchor_certificate", "peel_regular", "collision_census"),
    "synth": ("gen_instance", "audit_instance", "instance_to_json",
              "instance_from_json"),
    "recover": ("select_hub", "find_disjoint_path_pairs", "local_estimate",
                "aggregate_global", "score_recovery", "recover_instance"),
    "cli": ("cmd_synth", "cmd_audit", "cmd_verify_bounds", "cmd_census",
            "cmd_recover", "cmd_score"),
}

COUNTERS = (
    "pathgraph.paths_enumerated",
    "pathgraph.enum_truncated",
    "synth.sites",
    "synth.edges",
    "synth.instance_bytes",
    "recover.paths_found",
    "recover.pairs_found",
    "recover.reachable_targets",
    "recover.estimates",
    "recover.dropped",
    "recover.accepted",
    "cli.bytes_written",
)


class TracerError(RuntimeError):
    """A listed function is missing, so the trace would silently lose a layer."""


def _observe_enumeration(count, out) -> None:
    count("pathgraph.paths_enumerated", len(out.paths))
    count("pathgraph.enum_truncated", int(out.truncated))


def _observe_instance(count, inst) -> None:
    count("synth.sites", len(inst.cfg.sites))
    count("synth.edges", len(inst.edges))


def _observe_json(count, text) -> None:
    count("synth.instance_bytes", len(text.encode()))


def _observe_recovery(count, res) -> None:
    count("recover.paths_found", res.paths_found)
    count("recover.pairs_found", res.pairs_found)
    count("recover.reachable_targets", res.reachable_targets)
    count("recover.estimates", len(res.estimates))
    count("recover.dropped", len(res.dropped))
    count("recover.accepted", len(res.global_freq.accepted) if res.global_freq else 0)


OBSERVERS = {
    "pathgraph.enumerate_split_paths": _observe_enumeration,
    "synth.gen_instance": _observe_instance,
    "synth.instance_to_json": _observe_json,
    "recover.recover_instance": _observe_recovery,
}


@dataclass
class Span:
    calls: int = 0
    self_s: float = 0.0


class Tracer:
    """Context manager: patch on enter, restore on exit."""

    def __init__(self) -> None:
        self.spans = {
            f"{mod}.{fn}": Span() for mod, fns in TRACED.items() for fn in fns
        }
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._children: list[float] = []
        self._patched: list[tuple[object, str, object]] = []

    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] += n

    def _wrap(self, name: str, orig):
        span = self.spans[name]
        children = self._children
        observe = OBSERVERS.get(name)
        count = self.count

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            children.append(0.0)
            t0 = perf_counter()
            try:
                out = orig(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = children.pop()
                span.calls += 1
                span.self_s += dt - inner
                if children:
                    children[-1] += dt
            if observe is not None:
                observe(count, out)
            return out

        return traced

    def __enter__(self) -> "Tracer":
        import freqpath.cli  # noqa: F401 - every module must be loaded to be patched

        modules = [
            m for n, m in sorted(sys.modules.items())
            if n == "freqpath" or n.startswith("freqpath.")
        ]
        originals = {}
        missing = []
        for mod, fns in TRACED.items():
            home = sys.modules.get(f"freqpath.{mod}")
            for fn in fns:
                obj = getattr(home, fn, None) if home else None
                if not callable(obj):
                    missing.append(f"freqpath.{mod}.{fn}")
                else:
                    originals[id(obj)] = (f"{mod}.{fn}", obj)
        if missing:
            raise TracerError("traced functions not found: " + ", ".join(missing))
        wrappers = {key: self._wrap(name, obj) for key, (name, obj) in originals.items()}
        for m in modules:
            for attr, value in list(vars(m).items()):
                if id(value) in originals:
                    self._patched.append((m, attr, value))
                    setattr(m, attr, wrappers[id(value)])
        return self

    def restore(self) -> None:
        while self._patched:
            m, attr, value = self._patched.pop()
            setattr(m, attr, value)

    def __exit__(self, *exc) -> None:
        self.restore()

    def metrics(self) -> dict[str, tuple[float | int, str]]:
        """Every per-layer metric: name -> (value, unit)."""
        out: dict[str, tuple[float | int, str]] = {}
        for name, span in self.spans.items():
            out[f"{name}.calls"] = (span.calls, "count")
            out[f"{name}.self_s"] = (span.self_s, "s")
        for name, value in self.counters.items():
            out[name] = (value, "count")
        c = self.counters
        out["recover.estimate_yield"] = (
            c["recover.estimates"] / c["recover.reachable_targets"]
            if c["recover.reachable_targets"] else 0.0, "ratio")
        out["recover.accept_ratio"] = (
            c["recover.accepted"] / c["recover.estimates"]
            if c["recover.estimates"] else 0.0, "ratio")
        return out
