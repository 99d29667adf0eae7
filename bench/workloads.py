"""The benchmark workloads.  BENCHMARK.json declares `cli-pipeline` and
`certify-chains`; README.md says why `recover-sweep` is left out of it.

Each workload has a `setup` that prepares its inputs from the workload
seed (untimed by the loop, reported as `setup_s`) and a `units` generator
yielding the units of one round; a unit is what `units_per_s` counts.
Every unit returns the bytes its outputs are digested from and the names of
the exact checks it failed.

freqpath is always called through its module objects (`recover.recover_instance`,
never a name imported into this file), so that a tracer which replaces the
module attributes sees the calls.
"""
from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, ClassVar, Iterator

from freqpath import cli, pathgraph, pyramid, recover, synth

T_STAR = Fraction(10**5)
Q_STAR = {"archimedean": 1, "rational": 6}
MODES = ("archimedean", "rational")


@dataclass
class UnitOut:
    payload: bytes
    failures: list[str] = field(default_factory=list)
    bytes_written: int = 0
    instances: list[dict] = field(default_factory=list)  # sites and edges of instances the unit made
    # (id, bytes) of parts that may recur in other units; each must repeat
    # its first bytes.  Empty: the whole payload, under the unit's id.
    parts: list[tuple[str, bytes]] = field(default_factory=list)


@dataclass
class Setup:
    state: object
    samples: list[float]
    instances: list[dict]
    digest_parts: list[bytes]


Unit = tuple[str, Callable[[], UnitOut]]


def derived_seeds(name: str, seed: int, n: int) -> list[int]:
    rng = random.Random(f"{name}:{seed}")
    return [rng.randrange(2**31) for _ in range(n)]


def load_json(path: Path):
    return json.loads(path.read_text()) if path.is_file() else None


def canonical(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


def e2e_params(seed: int, sites: int) -> synth.Params:
    """The end-to-end test scale: pool [100, 200], web placement."""
    return synth.Params(
        X=10**10, H=4 * 10**5, K=500, P=100, P_prime=5,
        eps_edge=Fraction(1, 8), s_edge=Fraction(8), site_count=sites, seed=seed,
        placement="web", web_pair_targets=6, web_diamonds=2, web_chains=2,
        web_chain_len=4,
    )


def chain_params(seed: int, sites: int, chains: int, length: int) -> synth.Params:
    """The acceptance criterion-3 chain scale."""
    return synth.Params(
        X=10**11, H=4 * 10**5, K=500, P=100, P_prime=5,
        eps_edge=Fraction(1, 8), s_edge=Fraction(8), site_count=sites, seed=seed,
        placement="web", web_chains=chains, web_chain_len=length,
    )


def score_failures(status, q_match, rel_t_error, coverage, residues) -> list[str]:
    """The end-to-end recovery criterion, decided on exact rationals."""
    if status != "ok":
        return [f"score.status={status}"]
    fails = []
    if not q_match:
        fails.append("score.q_mismatch")
    if Fraction(rel_t_error) > Fraction(5, 100):
        fails.append("score.rel_T_error>5/100")
    if Fraction(coverage) < Fraction(1, 2):
        fails.append("score.coverage<1/2")
    if not residues:
        fails.append("score.residues_inconsistent")
    return fails


def prepare_instance(params, mode: str, path: Path):
    """Generate, write the blind copy to JSON and load it back."""
    inst = synth.gen_instance(params, mode=mode, t_star=T_STAR, q_star=Q_STAR[mode])
    text = synth.instance_to_json(inst.strip_truth())
    path.write_text(text)
    blind = synth.instance_from_json(path.read_text())
    return inst, blind, text


def timed_instances(name, work, specs) -> Setup:
    """Set-up shared by the library workloads: one sample per instance."""
    state, samples, instances, parts = [], [], [], []
    for i, (params, mode) in enumerate(specs):
        t0 = time.perf_counter()
        inst, blind, text = prepare_instance(params, mode, work / f"{name}-{i}.json")
        samples.append(time.perf_counter() - t0)
        state.append((inst, blind))
        instances.append({"mode": mode, "seed": params.seed,
                          "sites": len(inst.cfg.sites), "edges": len(inst.edges)})
        parts.append(text.encode())
    return Setup(state, samples, instances, parts)


@dataclass(frozen=True)
class CliPipeline:
    """The README walkthrough, in-process through `freqpath.cli.main`."""

    name: ClassVar[str] = "cli-pipeline"
    sites: int = 300
    cold_starts: int = 5

    def setup(self, seed: int, work: Path) -> Setup:
        # Nothing is pre-generated: set-up is the cold start a user pays for
        # every command, timed in a fresh interpreter.  No timeout: waiting
        # with one polls in steps of up to 50 ms, which would quantise the time.
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        samples = []
        for _ in range(self.cold_starts):
            t0 = time.perf_counter()
            subprocess.run(
                [sys.executable, "-m", "freqpath.cli", "--version"],
                env=env, cwd=work, stdout=subprocess.DEVNULL, check=True,
            )
            samples.append(time.perf_counter() - t0)
        return Setup(state=seed, samples=samples, instances=[], digest_parts=[])

    def units(self, seed: int, r: int, work: Path) -> Iterator[Unit]:
        # Round r is unit r: two fresh instances, one in each mode.  An
        # archimedean instance costs about 1.4 times a rational one, so the
        # times of single-instance units fall in two clusters and their
        # median would sit on the edge between them; a unit holding both
        # modes has one cluster.
        seeds = derived_seeds(self.name, seed, 2 * r + 2)[2 * r:]
        yield f"{r}:{seeds[0]}:{seeds[1]}", lambda: self.run_unit(seeds, work / f"u{r}")

    def run_unit(self, seeds: list[int], out: Path) -> UnitOut:
        unit = UnitOut(b"")
        for mode, inst_seed in zip(MODES, seeds):
            one = self.run_instance(inst_seed, mode, out / mode)
            unit.payload += mode.encode() + b"\0" + one.payload
            unit.failures += [f"{mode}.{f}" for f in one.failures]
            unit.bytes_written += one.bytes_written
            unit.instances += one.instances
        out.rmdir()
        return unit

    def run_instance(self, inst_seed: int, mode: str, out: Path) -> UnitOut:
        o, inst, blind = str(out), str(out / "instance.json"), str(out / "instance_blind.json")
        steps = [
            ("synth", ["synth", "--out", o, "--seed", str(inst_seed), "--mode", mode,
                       "--q-star", str(Q_STAR[mode]), "--t-star", "100000/1",
                       "--X", "10000000000", "--H", "400000", "--K", "500",
                       "--P", "100", "--P-prime", "5", "--eps-edge", "1/8",
                       "--s-edge", "8/1", "--sites", str(self.sites),
                       "--placement", "web", "--web-pair-targets", "6",
                       "--web-diamonds", "2", "--web-chains", "2",
                       "--web-chain-len", "4", "--blind"]),
            ("audit", ["audit", "--out", o, "--instance", inst]),
            ("verify-bounds", ["verify-bounds", "--out", o, "--instance", inst,
                               "--k", "2", "--format", "csv"]),
            ("census", ["census", "--out", o, "--instance", inst, "--k", "2"]),
            ("recover", ["recover", "--out", o, "--instance", blind, "--k", "2"]),
            ("score", ["score", "--out", o, "--instance", inst,
                       "--recovery", str(out / "recovery.json"), "--k", "2"]),
        ]
        fails = []
        for step, argv in steps:
            code = cli.main(argv)
            if code != 0:
                fails.append(f"cli.{step}.exit={code}")
                if step == "synth":
                    break
        out.mkdir(parents=True, exist_ok=True)
        files = sorted(p for p in out.iterdir() if p.is_file())
        fails += self.check(out)
        report = load_json(out / "synth_report.json") or {}
        instance = {"mode": mode, "seed": inst_seed,
                    "sites": report.get("sites"), "edges": report.get("edges")}
        # score.json records the --recovery path verbatim: digest it relative
        # to the instance directory so the digest does not depend on where it ran
        payload = b"".join(
            p.name.encode() + b"\0" + p.read_bytes().replace(o.encode(), b"<unit>") + b"\0"
            for p in files
        )
        written = sum(p.stat().st_size for p in files)
        shutil.rmtree(out)
        return UnitOut(payload, fails, written, [instance])

    @staticmethod
    def check(out: Path) -> list[str]:
        fails = []
        audit = load_json(out / "audit_report.json")
        if not (audit and audit["pass"] is True):
            fails.append("audit.not_passed")
        verify = load_json(out / "verify_report.json")
        if not (verify and verify["pass"] is True and verify["rows"]
                and all(row["pass"] is True for row in verify["rows"])):
            fails.append("verify_bounds.row_failed")
        census = load_json(out / "census_report.json")
        if not (census and census["pass"] is True):
            fails.append("census.not_passed")
        score = load_json(out / "score.json")
        if score is None:
            fails.append("score.missing")
        else:
            fails += score_failures(score["status"], score["q_match"],
                                    score["rel_T_error"], score["coverage"],
                                    score["residues_consistent"])
        return fails


@dataclass(frozen=True)
class RecoverSweep:
    """Blind recovery swept over k = 2, 3, 4 on 1200-site instances.

    A unit is one instance recovered at every k and scored each time.
    Recovery cost differs a lot between instances and an archimedean
    instance costs about four times a rational one, so the set is mostly
    archimedean: that averages the cost over three of them, while the
    rational instance keeps the q* = 6 residue path covered.
    """

    name: ClassVar[str] = "recover-sweep"
    modes: tuple[str, ...] = ("archimedean", "rational", "archimedean", "archimedean")
    sites: int = 1200
    ks: tuple[int, ...] = (2, 3, 4)

    def setup(self, seed: int, work: Path) -> Setup:
        seeds = derived_seeds(self.name, seed, len(self.modes))
        return timed_instances(self.name, work, [
            (e2e_params(s, self.sites), mode) for s, mode in zip(seeds, self.modes)
        ])

    def units(self, state, r: int, work: Path) -> Iterator[Unit]:
        for i, (inst, blind) in enumerate(state):
            yield str(i), lambda inst=inst, blind=blind: self.run_unit(inst, blind)

    def run_unit(self, inst, blind) -> UnitOut:
        docs, fails = [], []
        for k in self.ks:
            res = recover.recover_instance(blind, recover.RecoverConfig(k=k))
            score = recover.score_recovery(res.global_freq, inst.truth, res.hub_index)
            if res.error:
                fails.append(f"recover.k{k}.error={res.error}")
            fails += [f"k{k}.{f}" for f in score_failures(
                score.status, score.q_match, score.rel_t_error, score.coverage,
                score.residues_consistent)]
            docs.append([res.to_json(), score.to_json()])
        return UnitOut(canonical(docs), fails)


@dataclass(frozen=True)
class CertifyChains:
    """Every certificate over short split paths of chain instances."""

    name: ClassVar[str] = "certify-chains"
    instances: int = 4
    sites: int = 120
    chains: int = 6
    chain_len: int = 8
    max_k: int = 8
    limit: int = 8
    ladders: int = 24

    def setup(self, seed: int, work: Path) -> Setup:
        seeds = derived_seeds(self.name, seed, self.instances)
        setup = timed_instances(self.name, work, [
            (chain_params(s, self.sites, self.chains, self.chain_len), "archimedean")
            for s in seeds
        ])
        setup.state = (seed, setup.state)
        return setup

    def units(self, state, r: int, work: Path) -> Iterator[Unit]:
        # Each round enumerates from every start site of every instance
        # (timed with the loop, but in no unit), then certifies `ladders`
        # ladders, each one path of every length 1..max_k drawn afresh per
        # round.  A path costs about k^2 certificates, so single-path times
        # fall in one cluster per length and their percentiles would sit on
        # the edges between clusters; every ladder holds the same mix of
        # lengths, so ladder times form one cluster.
        seed, instances = state
        by_k: dict[int, list] = {k: [] for k in range(1, self.max_k + 1)}
        for i, (_inst, blind) in enumerate(instances):
            for start in range(len(blind.cfg.sites)):
                for k in by_k:
                    enum = pathgraph.enumerate_split_paths(
                        blind.cfg, blind.edges, start, k, limit=self.limit)
                    by_k[k] += [(f"{i}:{start}:{k}:{pid}", blind.params.eps_edge, p)
                                for pid, p in enumerate(enum.paths)]
        for k, found in by_k.items():
            if not found:
                raise RuntimeError(f"no split path of length {k} in any instance")
        rng = random.Random(f"{self.name}:{seed}:{r}")
        for _ in range(self.ladders):
            picks = [rng.choice(found) for found in by_k.values()]
            uid = "|".join(pid for pid, _eps, _path in picks)
            yield uid, lambda picks=picks: self.run_unit(picks)

    @classmethod
    def run_unit(cls, picks) -> UnitOut:
        fails: set[str] = set()
        parts = [(pid, canonical(cls.certify(path, eps, fails))) for pid, eps, path in picks]
        return UnitOut(b"\0".join(part for _pid, part in parts), sorted(fails), parts=parts)

    @staticmethod
    def certify(path, eps, fails: set[str]) -> list:
        """Every certificate row of one path; failed checks go into `fails`."""
        k = path.k
        try:
            pp = pathgraph.path_prepath(path, eps)
        except pyramid.PrePathError as exc:
            fails.add("certify.prepath_invalid")
            return [repr(exc)]
        py = pyramid.build_pyramid(pp)
        rows = []
        for row in pyramid.verify_pyramid(pp, py).rows:
            rows.append(row.to_json())
            if not row.passed:
                fails.add("certify.layer_gap")
        for m in range(1, k + 1):
            cert = pathgraph.ratio_drift_certificate(path, m)
            rows.append(cert.to_row())
            if not cert.passed:
                fails.add("certify.ratio_drift")
        for j in range(2, k + 2):
            for m in range(1, j):
                cert = pathgraph.anchor_bound_certificate(path, py, j, m)
                rows.append(cert.to_row())
                if not cert.passed:
                    fails.add("certify.anchor_bound")
        for j in range(1, k + 2):
            cert = pathgraph.top_anchor_certificate(path, py, j)
            rows.append(cert.to_row())
            if not cert.passed:
                fails.add("certify.top_anchor")
        return rows


WORKLOADS = {w.name: w for w in (CliPipeline(), RecoverSweep(), CertifyChains())}
