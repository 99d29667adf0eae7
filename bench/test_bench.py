"""Smoke test of the benchmark at minimal size.

Every metric named in BENCHMARK.json must be printed with its unit, the
traced and untraced runs must give the same output digest, and the tracer
must leave the program as it found it.

    python3 -m pytest bench/test_bench.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

tracer, workloads = run.import_program()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "cli-pipeline": workloads.CliPipeline(cold_starts=1),
    "recover-sweep": workloads.RecoverSweep(modes=workloads.MODES, sites=300, ks=(2,)),
    "certify-chains": workloads.CertifyChains(instances=1, max_k=3, ladders=4),
}


def traced_bindings() -> list[str]:
    return [
        f"{name}.{attr}"
        for name, mod in sorted(sys.modules.items())
        if name.startswith("freqpath")
        for attr, value in vars(mod).items()
        if hasattr(value, "__wrapped__")
    ]


def bench(capsys, name: str, trace: int) -> tuple[dict, dict]:
    argv = ["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_metric_prints_and_digests_match(name, capsys, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, name, SMALL[name])
    info0, res0 = bench(capsys, name, 0)
    info1, res1 = bench(capsys, name, 1)
    for info, res, group in ((info0, res0, "end_to_end"), (info1, res1, "per_layer")):
        assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
        assert res["correct"] is True, info["failures"]
        assert res["failed"] == 0 and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[group]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert info0["output_digest"] == info1["output_digest"]
    assert traced_bindings() == []


def test_missing_function_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracer.TRACED, "torus", (*tracer.TRACED["torus"], "no_such_fn"))
    with pytest.raises(tracer.TracerError, match="freqpath.torus.no_such_fn"):
        with tracer.Tracer():
            pass
    assert traced_bindings() == []
