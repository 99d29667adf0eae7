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
import re
import sys
from fractions import Fraction
from pathlib import Path as FsPath

from . import __version__
from .pathgraph import PathError, SplitWalks, build_path, certify_path, collision_census
from .pyramid import PrePathError
from .recover import RecordError, RecoverConfig, recover_instance, score_record
from .synth import (
    Params,
    audit_instance,
    gen_instance,
    instance_from_json,
    instance_to_json,
)
from .torus import fields_to_json, pair_to_str


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
    """The rows under the first row's keys; other keys, or another order, are refused."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if not rows:
        path.write_text("")
        return
    header = list(rows[0])
    if any(list(row) != header for row in rows):
        raise ValueError(f"CSV rows do not all have the columns {header}")
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([row.values() for row in rows])


# the required Params fields, for a synth run given no --params file
SYNTH_DEFAULTS = dict(X=10**8, H=10**4, K=100, P=20, P_prime=5, eps_edge="1/5",
                      s_edge="5/1", site_count=2000)


def _params_from_args(args) -> Params:
    """The --params file (or SYNTH_DEFAULTS), then every generator flag given:
    the generator flags default to absent, and each is named by its field.
    `Params.from_json` refuses a file that is not a JSON object."""
    doc = json.loads(FsPath(args.params).read_text()) if args.params else SYNTH_DEFAULTS
    given = {k: v for k, v in vars(args).items() if k in Params.__dataclass_fields__}
    return Params.from_json({**doc, **given} if type(doc) is dict else doc)


def _load_instance(path: str):
    return instance_from_json(FsPath(path).read_text())


def _require_walks(args) -> None:
    """Refuse a --k or --limit below 1: such a run walks nothing, and a
    report over no walks would pass vacuously."""
    for flag in ("k", "limit"):
        value = getattr(args, flag)
        if value < 1:
            raise PathError(f"--{flag} must be at least 1, got {value}")


def cmd_synth(args) -> int:
    out = FsPath(args.out)
    params = _params_from_args(args)
    inst = gen_instance(params, mode=args.mode, t_star=args.t_star, q_star=args.q_star)
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
    """Pyramid bound rows plus drift and apex certificates (`certify_path`)
    over enumerated split paths of every length up to --k."""
    _require_walks(args)
    inst = _load_instance(args.instance)
    eps = inst.params.eps_edge
    rows: list[dict] = []
    pyramids: list[dict] = []
    n_paths = 0
    walks = SplitWalks(inst.cfg, inst.edges)
    starts = range(len(inst.cfg.sites))
    for start, k in itertools.product(starts, range(1, args.k + 1)):
        if n_paths >= args.limit:
            break
        found, _truncated = walks.walks(start, k, limit=args.limit - n_paths)
        for pid, walk in enumerate(found):
            n_paths += 1
            path = build_path(inst.cfg, walk)
            path_id = f"{start}:{k}:{pid}"
            try:
                path_rows, q, layers = certify_path(path, eps)
            except PrePathError:
                path_rows, layers = [("prepath", "", "", "", "", False)], None
            if layers and len(pyramids) < 10:
                pyramids.append({"path": path_id, "modulus": str(q),
                                 "p_primes": list(path.p_primes), "q_primes": list(path.q_primes),
                                 "layers": [[pair_to_str(pt) for pt in layer] for layer in layers]})
            rows += [{"path": path_id, "kind": kind, "j": j, "m": m, "actual": actual,
                      "bound": bound, "pass": passed}
                     for kind, j, m, actual, bound, passed in path_rows]
    ok = all(row["pass"] for row in rows)
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
    _require_walks(args)
    inst = _load_instance(args.instance)
    params = inst.params
    reports = []
    ok = True
    walks = SplitWalks(inst.cfg, inst.edges)
    gate = params.route_gate_k()
    for start in range(len(inst.cfg.sites)):
        found, truncated = walks.walks(start, args.k, limit=args.limit)
        ok &= not truncated
        if not found:
            continue
        rep = collision_census(found, gate, params.P)
        ok &= rep.passed
        reports.append(
            {"start": start, "truncated": truncated, **rep.to_json()}
        )
    _write_json(
        FsPath(args.out) / "census_report.json",
        {**_report_header(params), "census": reports, "pass": ok},
    )
    return 0 if ok else 1


def cmd_recover(args) -> int:
    _require_walks(args)
    inst = _load_instance(args.instance)
    rcfg = RecoverConfig(k=args.k, tol_t=args.tol_T, path_limit=args.limit)
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


def _rational(text: str) -> Fraction:
    """A rational flag's value, in ASCII [-]digits or [-]digits/digits with
    a positive denominator; any other text (a space, `_`, `+` or another
    digit too) is refused by argparse with its usage (exit 2)."""
    match = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", text)
    if not match or match[2] is not None and int(match[2]) == 0:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")
    return Fraction(int(match[1]), int(match[2] or 1))


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="freqpath",
        description="Exact-arithmetic path/pyramid laboratory with planted "
        "frequency recovery.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name: str, help: str, **kw) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, **kw)
        p.add_argument("--out", required=True, help="output directory")
        return p

    def reader(name: str, help: str, instance_help: str | None = None):
        p = command(name, help)
        p.add_argument("--instance", required=True, help=instance_help)
        return p

    p = command("synth", "generate a verified instance",
                argument_default=argparse.SUPPRESS)
    p.add_argument("--params", default=None,
                   help="JSON params file; generator flags given override it")
    p.add_argument("--mode", choices=("archimedean", "rational"), default="archimedean")
    p.add_argument("--t-star", type=_rational, default="0/1")
    p.add_argument("--q-star", type=int, default=1)
    p.add_argument("--blind", action="store_true", default=False)
    # generator flags, absent unless given; each dest is a Params field
    p.add_argument("--seed", type=int)
    p.add_argument("--X", type=int)
    p.add_argument("--H", type=int)
    p.add_argument("--K", type=int)
    p.add_argument("--P", type=int)
    p.add_argument("--P-prime", dest="P_prime", type=int)
    p.add_argument("--eps-edge", type=_rational)
    p.add_argument("--s-edge", type=_rational)
    p.add_argument("--sites", dest="site_count", type=int)
    p.add_argument("--edges", dest="edge_count", type=int)
    p.add_argument("--placement", choices=("uniform", "web"))
    p.add_argument("--web-pair-targets", type=int)
    p.add_argument("--web-diamonds", type=int)
    p.add_argument("--web-chains", type=int)
    p.add_argument("--web-chain-len", type=int)

    reader("audit", "re-verify an instance's invariants")

    p = reader("verify-bounds", "pyramid and path certificates")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--limit", type=int, default=200)

    p = reader("census", "same-endpoint route counting checks")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--limit", type=int, default=1000)

    p = reader("recover", "hub, route pairs, local and global estimates")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--tol-T", type=_rational, default=None)
    p.add_argument("--limit", type=int, default=20000)

    p = reader("score", "grade a recorded recovery against the truth",
               "instance.json with its truth")
    p.add_argument("--recovery", required=True, help="the recovery.json to grade")
    p.add_argument("--k", type=int, required=True,
                   help="the k the recovery must have been made with")
    return ap


# built once per process: parsing leaves the parser unchanged
PARSER = build_parser()


def main(argv=None) -> int:
    args = PARSER.parse_args(argv)
    # the command's function is looked up by name at every call, so a
    # wrapper put on the module attribute (the benchmark's tracer) sees it
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary, report and exit
        _write_json(
            FsPath(args.out) / f"{args.command}_error.json",
            {"error": {"type": type(exc).__name__, "message": str(exc)}},
        )
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
