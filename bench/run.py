"""freqpath benchmark: three workloads, timed from outside the program.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from anywhere; the program is imported from this checkout's `src/`.
Load comes from one process and one thread in a closed loop with one
client: each unit starts when the previous one has finished.

With --trace 0 the set-up runs once (timing several set-up steps), then
rounds of units run until --seconds have passed; the end-to-end metrics
are printed.  With --trace 1 the set-up and the first round run once
untraced and once traced, and the per-layer metrics of the traced pass are
printed, with its overhead over the untraced pass.

The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the output digest, the failed checks by name and the provenance.  The
output digest covers the set-up's instance bytes and the outputs of the
first round's units, so it is the same for traced and untraced runs and
across commits that leave the outputs unchanged.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
NAMES = ("cli-pipeline", "recover-sweep", "certify-chains")


def import_program():
    """Import freqpath from this checkout only, or stop without a result."""
    if not (SRC / "freqpath" / "__init__.py").is_file():
        raise SystemExit(f"error: no freqpath sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import freqpath

    if Path(freqpath.__file__).resolve().parent != (SRC / "freqpath").resolve():
        raise SystemExit(f"error: freqpath was imported from {freqpath.__file__}")
    import tracer
    import workloads

    return tracer, workloads


class Tally:
    """Unit times, failures and the output digest of one pass."""

    def __init__(self, setup) -> None:
        self.setup = setup
        self.times: list[float] = []
        self.failures: Counter[str] = Counter()
        self.failed = 0
        self.first: dict[str, str] = {}
        self.instances = list(setup.instances)
        self.digest = hashlib.sha256()
        for part in setup.digest_parts:
            self.digest.update(hashlib.sha256(part).digest())

    @property
    def attempted(self) -> int:
        return len(self.times)

    def run_round(self, wl, r: int, work: Path, tracer=None) -> None:
        for uid, unit in wl.units(self.setup.state, r, work):
            t0 = time.perf_counter()
            try:
                out = unit()
            except Exception as exc:  # noqa: BLE001 - a unit fails, the run goes on
                traceback.print_exc(file=sys.stderr)
                out = None
                fails = [f"exception.{type(exc).__name__}"]
            self.times.append(time.perf_counter() - t0)
            if out is not None:
                fails = list(out.failures)
                if r == 0:
                    sha = hashlib.sha256(out.payload).hexdigest()
                    self.digest.update(f"{uid}\0{sha}\0".encode())
                for pid, part in out.parts or [(uid, out.payload)]:
                    sha = hashlib.sha256(part).hexdigest()
                    if self.first.setdefault(pid, sha) != sha:
                        fails.append("output_changed")
                self.instances += out.instances
                if tracer is not None:
                    tracer.count("cli.bytes_written", out.bytes_written)
            if fails:
                self.failed += 1
                self.failures.update(fails)


def percentile(xs: list[float], n: int) -> float:
    if len(xs) < 2:
        return xs[0]
    return statistics.quantiles(xs, n=n, method="inclusive")[-1]


def run_untraced(wl, seed: int, seconds: float, work: Path):
    tally = Tally(wl.setup(seed, work))
    start = time.perf_counter()
    rounds = 0
    while True:
        tally.run_round(wl, rounds, work)
        rounds += 1
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    times = tally.times
    metrics = {
        "setup_s": (statistics.median(tally.setup.samples), "s"),
        "units_per_s": (len(times) / wall, "units/s"),
        "unit_p50_s": (statistics.median(times), "s"),
        "unit_p90_s": (percentile(times, 10), "s"),
        "pass_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    info = {"rounds": rounds, "timed_wall_s": wall, "unit_samples": len(times),
            "setup_samples_s": tally.setup.samples}
    return tally, metrics, info


def run_traced(tracer_mod, wl, seed: int, work: Path):
    for sub in ("plain", "traced"):
        (work / sub).mkdir()
    t0 = time.perf_counter()
    plain = Tally(wl.setup(seed, work / "plain"))
    plain.run_round(wl, 0, work / "plain")
    plain_wall = time.perf_counter() - t0
    with tracer_mod.Tracer() as tr:
        t0 = time.perf_counter()
        traced = Tally(wl.setup(seed, work / "traced"))
        traced.run_round(wl, 0, work / "traced", tr)
        traced_wall = time.perf_counter() - t0
    metrics = tr.metrics()
    metrics["trace.overhead_ratio"] = (traced_wall / plain_wall - 1, "ratio")
    if plain.digest.hexdigest() != traced.digest.hexdigest():
        traced.failed += 1
        traced.failures["trace.digest_mismatch"] += 1
    traced.failed += plain.failed
    traced.failures.update(plain.failures)
    traced.times += plain.times
    info = {"untraced_wall_s": plain_wall, "traced_wall_s": traced_wall,
            "unit_samples": len(traced.times)}
    return traced, metrics, info


def git_state() -> dict:
    """HEAD and dirty flag when this checkout is itself a git work tree."""
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=60, check=True).stdout.strip()

    try:
        if Path(git("rev-parse", "--show-toplevel")).resolve() != ROOT:
            return {"git_sha": None, "git_dirty": None}
        return {"git_sha": git("rev-parse", "HEAD"),
                "git_dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(seed: int, tally) -> dict:
    return {
        **git_state(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "workload_seed": seed,
        "units_per_run": tally.attempted,
        "instances": tally.instances,
    }


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    tracer_mod, workloads = import_program()
    wl = workloads.WORKLOADS[name]
    work = ROOT / ".bench_run" / f"{name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if trace:
            tally, metrics, info = run_traced(tracer_mod, wl, seed, work)
        else:
            tally, metrics, info = run_untraced(wl, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if tally.failures:
        print(f"failed checks: {dict(tally.failures)}", file=sys.stderr)
    print(json.dumps({
        "workload": name, "trace": int(trace), "output_digest": tally.digest.hexdigest(),
        "failures": dict(tally.failures), **info, "provenance": provenance(seed, tally),
    }, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after the other."""
    results = {}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
        print(lines[-2])
        for metric, m in results[name]["metrics"].items():
            print(f"{name}\t{metric}\t{m['value']}\t{m['unit']}")
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
