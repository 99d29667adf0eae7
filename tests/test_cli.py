"""Batch front-end: subcommand round trips, determinism and exit codes."""
from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from freqpath.cli import main
from freqpath.pathgraph import enumerate_split_paths
from freqpath.synth import Params


WEB_PARAMS = dict(
    X=10**10,
    H=4 * 10**5,
    K=500,
    P=100,
    P_prime=5,
    eps_edge="1/8",
    s_edge="8/1",
    site_count=200,
    seed=11,
    placement="web",
    web_pair_targets=4,
    web_diamonds=1,
    web_chains=2,
    web_chain_len=3,
)


@pytest.fixture
def params_file(tmp_path: Path) -> Path:
    f = tmp_path / "params.json"
    f.write_text(json.dumps(WEB_PARAMS))
    return f


def synth_dir(tmp_path: Path, params_file: Path, name: str, *extra) -> Path:
    out = tmp_path / name
    rc = main(
        [
            "synth",
            "--out",
            str(out),
            "--params",
            str(params_file),
            "--mode",
            "rational",
            "--t-star",
            "100000/1",
            "--q-star",
            "6",
            *extra,
        ]
    )
    assert rc == 0
    return out


class TestSynth:
    def test_deterministic_bytes(self, tmp_path, params_file):
        a = synth_dir(tmp_path, params_file, "a")
        b = synth_dir(tmp_path, params_file, "b")
        assert (a / "instance.json").read_bytes() == (b / "instance.json").read_bytes()

    def test_blind_outputs(self, tmp_path, params_file):
        out = synth_dir(tmp_path, params_file, "blind", "--blind")
        blind = json.loads((out / "instance_blind.json").read_text())
        assert blind["truth"] is None
        truth = json.loads((out / "truth.json").read_text())
        assert truth["q_star"] == 6
        report = json.loads((out / "synth_report.json").read_text())
        assert report["seed"] == 11 and "gates" in report

    def test_flags_override_params_file(self, tmp_path, params_file):
        out = synth_dir(tmp_path, params_file, "over", "--sites", "150", "--seed", "3",
                        "--web-chains", "1")
        report = json.loads((out / "synth_report.json").read_text())
        want = {**WEB_PARAMS, "site_count": 150, "seed": 3, "web_chains": 1}
        assert report["params"] == Params.from_json(want).to_json()
        assert report["sites"] == 150

    def test_bad_params_exit_code(self, tmp_path):
        out = tmp_path / "bad"
        rc = main(
            ["synth", "--out", str(out), "--K", "99", "--seed", "0"]
        )
        assert rc == 2
        err = json.loads((out / "synth_error.json").read_text())
        assert err["error"]["type"] == "ParamsError"


class TestPipelineCommands:
    def test_audit_verify_census_recover_score(self, tmp_path, params_file):
        out = synth_dir(tmp_path, params_file, "inst", "--blind")
        instance = str(out / "instance.json")

        rc = main(["audit", "--out", str(tmp_path / "audit"), "--instance", instance])
        assert rc == 0
        audit = json.loads((tmp_path / "audit" / "audit_report.json").read_text())
        assert audit["pass"] is True

        rc = main(
            [
                "verify-bounds",
                "--out",
                str(tmp_path / "vb"),
                "--instance",
                instance,
                "--k",
                "2",
                "--limit",
                "60",
                "--format",
                "csv",
            ]
        )
        assert rc == 0
        vb = json.loads((tmp_path / "vb" / "verify_report.json").read_text())
        assert vb["pass"] is True and vb["paths"] > 0
        assert (tmp_path / "vb" / "bound_certificates.csv").exists()

        rc = main(
            [
                "census",
                "--out",
                str(tmp_path / "census"),
                "--instance",
                instance,
                "--k",
                "2",
            ]
        )
        assert rc == 0

        rc = main(
            [
                "recover",
                "--out",
                str(tmp_path / "rec"),
                "--instance",
                str(out / "instance_blind.json"),
                "--k",
                "2",
            ]
        )
        assert rc == 0
        rec = json.loads((tmp_path / "rec" / "recovery.json").read_text())
        assert rec["global"] is not None
        assert rec["error"] is None
        assert (tmp_path / "rec" / "targets.csv").exists()

        rc = main(
            [
                "score",
                "--out",
                str(tmp_path / "score"),
                "--instance",
                instance,
                "--recovery",
                str(tmp_path / "rec" / "recovery.json"),
                "--k",
                "2",
            ]
        )
        assert rc == 0
        sc = json.loads((tmp_path / "score" / "score.json").read_text())
        assert sc["status"] == "ok"
        assert sc["q_match"] is True


def test_verify_bounds_stops_at_its_limit(tmp_path, params_file, monkeypatch):
    built: list[int] = []

    def counting(*args, **kwargs):
        enum = enumerate_split_paths(*args, **kwargs)
        built.append(len(enum.paths))
        return enum

    monkeypatch.setattr("freqpath.cli.enumerate_split_paths", counting)
    instance = synth_dir(tmp_path, params_file, "inst") / "instance.json"
    rc = main(["verify-bounds", "--out", str(tmp_path / "vb"), "--instance",
               str(instance), "--k", "2", "--limit", "60"])
    assert rc == 0
    vb = json.loads((tmp_path / "vb" / "verify_report.json").read_text())
    assert vb["paths"] == 60
    # every path built is certified, and no enumeration follows the one
    # that reached the cap
    assert sum(built) == 60 and sum(built[:-1]) < 60


# The README walkthrough instance: its k=3 recovery reaches one target.
README_PARAMS = dict(
    WEB_PARAMS, site_count=300, web_pair_targets=6, web_diamonds=0, web_chain_len=4
)


@pytest.fixture(scope="module")
def recorded_k3(tmp_path_factory) -> tuple[Path, Path]:
    """(instance.json, recovery.json of a blind recover --k 3 on it)."""
    root = tmp_path_factory.mktemp("recorded")
    params = root / "params.json"
    params.write_text(json.dumps(README_PARAMS))
    out = synth_dir(root, params, "inst", "--blind")
    rc = main(["recover", "--out", str(root / "rec"), "--instance",
               str(out / "instance_blind.json"), "--k", "3"])
    assert rc == 0
    return out / "instance.json", root / "rec" / "recovery.json"


def score(out: Path, inst: Path, recovery: Path, k: int) -> int:
    return main(["score", "--out", str(out), "--instance", str(inst),
                 "--recovery", str(recovery), "--k", str(k)])


class TestScoreGradesTheRecord:
    def test_other_k_is_refused(self, tmp_path, recorded_k3):
        inst, recovery = recorded_k3
        assert score(tmp_path, inst, recovery, 2) == 2
        err = json.loads((tmp_path / "score_error.json").read_text())["error"]
        assert err["type"] == "RecordError"
        assert "k=3" in err["message"] and "k=2" in err["message"]
        assert not (tmp_path / "score.json").exists()

    def test_recorded_error_reproduced_exactly(self, tmp_path, recorded_k3):
        inst, recovery = recorded_k3
        assert score(tmp_path, inst, recovery, 3) == 0
        rec = json.loads(recovery.read_text())
        sc = json.loads((tmp_path / "score.json").read_text())
        t_star = Fraction(100000)
        want = abs(Fraction(rec["global"]["T"]) - t_star) / t_star
        assert Fraction(sc["rel_T_error"]) == want
        assert sc["coverage"] == rec["global"]["coverage"]
        assert sc["recorded_hub"] == rec["hub"]
        assert rec["config"]["k"] == 3

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda d: d.pop("hub"),
            lambda d: d.pop("config"),
            lambda d: d["global"].pop("T"),
            lambda d: d["global"]["accepted"][0].pop("b_y"),
            lambda d: d["global"]["accepted"][0].update(Q_y="0"),
            lambda d: d.update(hub=10**6),
            lambda d: d["global"]["accepted"][0].update(target=-1),
            lambda d: d.update(seed=12, params={**d["params"], "seed": 12}),
            lambda d: d["params"].update(site_count=301),
        ],
        ids=["no_hub", "no_config", "no_T", "no_b_y", "zero_Q_y", "hub_out_of_range",
             "target_out_of_range", "other_seed", "other_params"],
    )
    def test_bad_record_is_refused(self, tmp_path, recorded_k3, corrupt):
        inst, recovery = recorded_k3
        doc = json.loads(recovery.read_text())
        corrupt(doc)
        bad = tmp_path / "recovery.json"
        bad.write_text(json.dumps(doc))
        assert score(tmp_path / "out", inst, bad, 3) == 2
        err = json.loads((tmp_path / "out" / "score_error.json").read_text())
        assert err["error"]["type"] == "RecordError"
        assert not (tmp_path / "out" / "score.json").exists()

    def test_non_json_record_is_refused(self, tmp_path, recorded_k3):
        inst, _ = recorded_k3
        bad = tmp_path / "recovery.json"
        bad.write_text("{")
        assert score(tmp_path / "out", inst, bad, 3) == 2
        err = json.loads((tmp_path / "out" / "score_error.json").read_text())
        assert err["error"]["type"] == "RecordError"
        assert not (tmp_path / "out" / "score.json").exists()


def test_format_only_on_verify_bounds(tmp_path):
    for extra in (["--format", "csv"], ["--blind"]):
        with pytest.raises(SystemExit) as exc:
            main(["recover", "--out", str(tmp_path), "--instance", "x.json", *extra])
        assert exc.value.code == 2


def _swap_primes(edge: dict) -> None:
    edge.update(p=edge["q"], q=edge["p"])


def _slack_off_by(edge: dict, delta: Fraction) -> None:
    slack = Fraction(edge["slack"]) + delta
    edge.update(slack=f"{slack.numerator}/{slack.denominator}")


@pytest.mark.parametrize("command", ["audit", "verify-bounds", "census", "recover", "score"])
@pytest.mark.parametrize(
    "corrupt",
    [
        lambda d: d["edges"][0].update(j=10**6),
        lambda d: d.update(partition=[[2] + d["partition"][0][1:], d["partition"][1]]),
        lambda d: _swap_primes(d["edges"][0]),
        lambda d: d["edges"][0].update(witness=[3]),
        lambda d: _slack_off_by(d["edges"][0], Fraction(1)),
        lambda d: _slack_off_by(d["edges"][0], Fraction(1, 10**9)),
        lambda d: d.pop("partition"),
        lambda d: d["sites"][0].update(x="12.5"),
        lambda d: d.update(schema=2),
    ],
    ids=["site_index_out_of_range", "partition_outside_pool", "not_split_oriented",
         "witness_outside_pool", "slack_off_by_one", "slack_off_by_1e-9",
         "partition_deleted", "site_x_not_num_den", "schema_2"],
)
def test_malformed_instance_is_refused(tmp_path, recorded_k3, command, corrupt):
    inst, recovery = recorded_k3
    doc = json.loads(inst.read_text())
    corrupt(doc)
    bad = tmp_path / "instance.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    extra = ["--recovery", str(recovery), "--k", "3"] if command == "score" else []
    assert main([command, "--out", str(out), "--instance", str(bad), *extra]) == 2
    err = json.loads((out / f"{command}_error.json").read_text())["error"]
    assert err["type"] == "InstanceError"
    assert [f.name for f in out.iterdir()] == [f"{command}_error.json"]
