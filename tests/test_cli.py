"""Batch front-end: subcommand round trips, determinism and exit codes."""
from __future__ import annotations

import argparse
import ast
import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from freqpath import cli
from freqpath.cli import main
from freqpath.pathgraph import SplitWalks
from freqpath.recover import InvariantViolation
from freqpath.synth import Params, instance_from_json, instance_to_json


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


# sha256 of the reports the pipeline test writes; score.json is left out
# because it records the path of its --recovery file
PINNED_REPORTS = {
    "vb/verify_report.json":
        "49e833bdd33bdd3a7d4e93e8c84aceb452f21d2dd9e66c581dad24c20fda9e42",
    "vb/bound_certificates.csv":
        "75996fcd51bb3d6acd2268ea5e573b09dc615ba8ee17fa678a053d34e12589cd",
    "census/census_report.json":
        "34369c29ebae7636008e8495f809bbc24ac7d0cad17a35d56bdc429b770c4cdf",
    "rec/recovery.json":
        "1d227531b529b6a233f1f976773de370fca8df68ad47300634a4a3b289ece014",
    "rec/targets.csv":
        "cd23c09b45a865dcf949c22e825ae6a403d116cf8e87ee30bc394d4023d80ea6",
}


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
        inst = instance_from_json((out / "instance.json").read_text())
        want = instance_to_json(inst.strip_truth())
        assert (out / "instance_blind.json").read_text() == want
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

    def test_generator_flags_are_params_fields(self):
        # _params_from_args keeps only the flags named by a Params field, so
        # any other generator flag would be dropped without a word
        synth, = (a.choices["synth"] for a in cli.PARSER._actions
                  if isinstance(a, argparse._SubParsersAction))
        flags = {a.dest for a in synth._actions
                 if a.default is argparse.SUPPRESS and not a.required} - {"help"}
        assert flags and flags <= set(Params.__dataclass_fields__)

    def test_bad_params_exit_code(self, tmp_path):
        out = tmp_path / "bad"
        rc = main(
            ["synth", "--out", str(out), "--K", "99", "--seed", "0"]
        )
        assert rc == 2
        err = json.loads((out / "synth_error.json").read_text())
        assert err["error"]["type"] == "ParamsError"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ([1, 2], "params must be a JSON object, got list"),
            ({k: v for k, v in WEB_PARAMS.items() if k != "X"}, "missing params keys ['X']"),
            ({**WEB_PARAMS, "k_max": 4}, "unknown params keys ['k_max']"),
        ],
        ids=["list", "missing-key", "unknown-key"],
    )
    def test_bad_params_file_is_refused(self, tmp_path, doc, message):
        params = tmp_path / "params.json"
        params.write_text(json.dumps(doc))
        out = tmp_path / "bad"
        assert main(["synth", "--out", str(out), "--params", str(params)]) == 2
        err = json.loads((out / "synth_error.json").read_text())["error"]
        assert err == {"type": "ParamsError", "message": message}

    @pytest.mark.parametrize("body, message", [
        (b"{", "malformed params file: JSONDecodeError: Expecting property name"
               " enclosed in double quotes"),
        (b"\xff{}", "malformed params file: UnicodeDecodeError: 'utf-8' codec can't"
                   " decode byte 0xff"),
        (json.dumps({**WEB_PARAMS, "eps_edge": "1/0"}).encode(),
         "unreadable params value: ZeroDivisionError: Fraction(1, 0)"),
        (json.dumps({**WEB_PARAMS, "eps_edge": "abc"}).encode(),
         "unreadable params value: ValueError: invalid literal for int() with base 10: 'abc'"),
    ], ids=["not-json", "not-utf8", "zero-denominator", "not-a-rational"])
    def test_unreadable_params_file_is_refused(self, tmp_path, body, message):
        # bad input exits 2 with ParamsError, not as a bare builtin error
        params = tmp_path / "params.json"
        params.write_bytes(body)
        out = tmp_path / "bad"
        assert main(["synth", "--out", str(out), "--params", str(params)]) == 2
        err = json.loads((out / "synth_error.json").read_text())["error"]
        assert err["type"] == "ParamsError"
        assert err["message"].startswith(message)

    def test_archimedean_q_star_is_refused(self, tmp_path, params_file):
        out = tmp_path / "arch"
        rc = main(["synth", "--out", str(out), "--params", str(params_file),
                   "--mode", "archimedean", "--q-star", "6"])
        assert rc == 2
        err = json.loads((out / "synth_error.json").read_text())["error"]
        assert err["type"] == "ParamsError"
        assert err["message"] == "archimedean mode requires q_star = 1"
        assert [f.name for f in out.iterdir()] == ["synth_error.json"]


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

        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in PINNED_REPORTS}
        assert digests == PINNED_REPORTS


def test_verify_bounds_stops_at_its_limit(tmp_path, params_file, monkeypatch):
    built: list[int] = []
    walks = SplitWalks.walks

    def counting(self, *args, **kwargs):
        found, truncated = walks(self, *args, **kwargs)
        built.append(len(found))
        return found, truncated

    monkeypatch.setattr(SplitWalks, "walks", counting)
    instance = synth_dir(tmp_path, params_file, "inst") / "instance.json"
    rc = main(["verify-bounds", "--out", str(tmp_path / "vb"), "--instance",
               str(instance), "--k", "2", "--limit", "60"])
    assert rc == 0
    vb = json.loads((tmp_path / "vb" / "verify_report.json").read_text())
    assert vb["paths"] == 60
    # every path built is certified, and no enumeration follows the one
    # that reached the cap
    assert sum(built) == 60 and sum(built[:-1]) < 60


@pytest.mark.parametrize("command", ["census", "verify-bounds"])
def test_one_adjacency_per_command(tmp_path, params_file, monkeypatch, command):
    adjacencies: list[int] = []
    starts: set[int] = set()

    class Counting(SplitWalks):
        def __init__(self, *args):
            adjacencies.append(1)
            super().__init__(*args)

        def walks(self, start, *args, **kwargs):
            starts.add(start)
            return super().walks(start, *args, **kwargs)

    monkeypatch.setattr("freqpath.cli.SplitWalks", Counting)
    instance = synth_dir(tmp_path, params_file, "inst") / "instance.json"
    rc = main([command, "--out", str(tmp_path / "out"), "--instance", str(instance),
               "--k", "2", "--limit", "10000"])
    assert rc == 0
    assert len(adjacencies) == 1 and len(starts) == WEB_PARAMS["site_count"]


def test_census_refuses_a_truncated_family(tmp_path, params_file):
    instance = synth_dir(tmp_path, params_file, "inst") / "instance.json"
    for limit, rc_want in (("1", 1), ("1000", 0)):
        out = tmp_path / f"census_{limit}"
        rc = main(["census", "--out", str(out), "--instance", str(instance),
                   "--k", "2", "--limit", limit])
        doc = json.loads((out / "census_report.json").read_text())
        assert rc == rc_want and doc["pass"] is (rc_want == 0)
        assert any(e["truncated"] for e in doc["census"]) is (rc_want == 1)


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


@pytest.mark.parametrize("command", ["verify-bounds", "census", "recover"])
@pytest.mark.parametrize("flag, value", [("--k", "0"), ("--limit", "0"), ("--limit", "-1")])
def test_walk_flags_below_one_are_refused(tmp_path, recorded_k3, command, flag, value):
    inst, _recovery = recorded_k3
    out = tmp_path / "out"
    assert main([command, "--out", str(out), "--instance", str(inst), flag, value]) == 2
    err = json.loads((out / f"{command}_error.json").read_text())["error"]
    assert err == {"type": "PathError", "message": f"{flag} must be at least 1, got {value}"}
    assert [f.name for f in out.iterdir()] == [f"{command}_error.json"]


def test_instance_file_not_utf8_is_refused(tmp_path):
    bad = tmp_path / "instance.json"
    bad.write_bytes(b"\xff{}")
    out = tmp_path / "out"
    assert main(["audit", "--out", str(out), "--instance", str(bad)]) == 2
    err = json.loads((out / "audit_error.json").read_text())["error"]
    assert err["type"] == "InstanceError"
    assert err["message"].startswith("malformed instance file: UnicodeDecodeError: ")


@pytest.mark.parametrize("command, error, message", [
    ("synth", "ParamsError", "malformed params file: RecursionError: "),
    ("audit", "InstanceError", "malformed instance file: RecursionError: "),
    ("score", "RecordError", "recovery record is not JSON: maximum recursion"),
], ids=["params", "instance", "recovery"])
def test_file_nested_too_deep_is_refused(tmp_path, recorded_k3, command, error, message):
    # json.loads raises RecursionError on such a file: refused input, not a fault
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    inst, _recovery = recorded_k3
    files = {"synth": ["--params", deep], "audit": ["--instance", deep],
             "score": ["--instance", inst, "--recovery", deep, "--k", "3"]}[command]
    out = tmp_path / "out"
    assert main([command, "--out", str(out), *map(str, files)]) == 2
    err = json.loads((out / f"{command}_error.json").read_text())["error"]
    assert err["type"] == error and "internal" not in err
    assert err["message"].startswith(message)


def test_program_fault_exits_3(tmp_path, recorded_k3, monkeypatch, capsys):
    # an InvariantViolation guards against a construction bug, which no
    # input reaches: main reports it with its traceback and exit 3, and its
    # error file marks it internal, so it cannot pass for refused input
    def broken(*_args):
        raise InvariantViolation("apex certificate failed on a valid loop")

    monkeypatch.setattr(cli, "recover_instance", broken)
    inst, _recovery = recorded_k3
    out = tmp_path / "out"
    assert main(["recover", "--out", str(out), "--instance", str(inst)]) == 3
    err = json.loads((out / "recover_error.json").read_text())["error"]
    assert err == {"type": "InvariantViolation", "internal": True,
                   "message": "apex certificate failed on a valid loop"}
    assert "Traceback (most recent call last)" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value, message", [
    ("--tol-T", "0/1", "tol_t must be positive, got 0"),
    ("--tol-T", "-5/1", "tol_t must be positive, got -5"),
])
def test_recovery_dials_out_of_range_are_refused(tmp_path, recorded_k3, flag, value, message):
    # a tolerance of 0 used to fail later as a consensus error naming no dial
    inst, _recovery = recorded_k3
    out = tmp_path / "out"
    assert main(["recover", "--out", str(out), "--instance", str(inst),
                 f"{flag}={value}"]) == 2
    err = json.loads((out / "recover_error.json").read_text())["error"]
    assert err == {"type": "RecoverConfigError", "message": message}
    assert [f.name for f in out.iterdir()] == ["recover_error.json"]


@pytest.mark.parametrize("flag", ["--d-min", "--min-common-witness"])
def test_removed_recovery_dials_are_refused(tmp_path, flag):
    # hub peeling is at degree 1 and a pair shares at least one witness:
    # neither is a dial, so argparse refuses both flags
    with pytest.raises(SystemExit) as exc:
        main(["recover", "--out", str(tmp_path / "out"), "--instance", "x.json", flag, "1"])
    assert exc.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "value",
    ["abc", "1/0", "", " 1/2", "1_0/3", "+5", "1/+2", "\uff11/\uff12", " 1_0/+2"],
    ids=["word", "zero-den", "empty", "space", "underscore", "plus", "plus-den",
         "full-width-digits", "space-underscore-plus"])
@pytest.mark.parametrize("command, flag", [
    ("synth", "--t-star"), ("synth", "--eps-edge"), ("synth", "--s-edge"),
    ("recover", "--tol-T"),
])
def test_bad_rational_flag_is_refused_with_usage(tmp_path, capsys, command, flag, value):
    # refused while parsing, so no command runs: none writes an error file
    # naming a ValueError or ZeroDivisionError, and an empty --tol-T is not
    # read as the default tolerance
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(out), "--instance", "x.json", f"{flag}={value}"]
             if command == "recover" else [command, "--out", str(out), f"{flag}={value}"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and f"argument {flag}: not a rational: {value!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("text, value", [("7", Fraction(7)), ("-1/3", Fraction(-1, 3)),
                                         ("05/10", Fraction(1, 2)), ("-0", Fraction(0))])
def test_rational_flag_reads_ascii_digits(text, value):
    assert cli._rational(text) == value


@pytest.mark.parametrize("second", [{"a": 3}, {"a": 3, "b": 4, "c": 5}, {"b": 4, "a": 3}],
                         ids=["missing-key", "extra-key", "other-order"])
def test_csv_rows_share_one_header(tmp_path, second):
    with pytest.raises(ValueError, match="CSV rows do not all have the columns"):
        cli._write_csv(tmp_path / "rows.csv", [{"a": 1, "b": 2}, second])
    cli._write_csv(tmp_path / "rows.csv", [{"a": 1, "b": ""}, {"a": 3, "b": True}])
    assert (tmp_path / "rows.csv").read_bytes() == b"a,b\r\n1,\r\n3,True\r\n"


def test_every_option_is_read():
    # each subcommand option either names a Params field (the generator
    # flags _params_from_args passes on) or is read in cli.py as args.<dest>:
    # an option nothing reads would be accepted and then ignored
    tree = ast.parse(Path(cli.__file__).read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "args"}
    sub, = (a for a in cli.PARSER._actions if isinstance(a, argparse._SubParsersAction))
    dests = {(name, a.dest) for name, parser in sub.choices.items()
             for a in parser._actions
             if not isinstance(a, (argparse._HelpAction, argparse._VersionAction))}
    assert {name for name, _ in dests} == set(sub.choices)
    unread = {(name, dest) for name, dest in dests
              if dest not in read and dest not in Params.__dataclass_fields__}
    assert unread == set()


def _swap_primes(edge: list) -> None:
    edge[2:] = edge[3], edge[2]


def _move_beyond_s_edge(doc: dict) -> None:
    """The last edge's far end moved to the first later site at a physical
    slack beyond s_edge; the edges still ascend."""
    s_edge = Fraction(doc["params"]["s_edge"])
    xs = [Fraction(site["x"]) for site in doc["sites"]]
    edge = doc["edges"][-1]
    i, j, p, q = edge
    edge[1] = next(k for k in range(j + 1, len(xs))
                   if abs(xs[i] / p - xs[k] / q) > s_edge)


def _lower_s_edge_below_max_slack(doc: dict) -> None:
    """s_edge set 1e-9 below the largest physical slack of any edge, so that
    edge exceeds s_edge by a margin only exact arithmetic resolves."""
    xs = [Fraction(site["x"]) for site in doc["sites"]]
    widest = max(abs(xs[i] / p - xs[j] / q) for i, j, p, q in doc["edges"])
    s_edge = widest - Fraction(1, 10**9)
    doc["params"]["s_edge"] = f"{s_edge.numerator}/{s_edge.denominator}"


def _shift_alpha_off_witness(doc: dict) -> None:
    """alpha_i of the last edge moved by 1/(2p), so p*alpha_i - q*alpha_j
    moves by 1/2 and lies at least 1/2 - eps_edge from every multiple of
    every witness prime."""
    i, _j, p, _q = doc["edges"][-1]
    site = doc["sites"][i]
    alpha = Fraction(site["alpha"]) + Fraction(1, 2 * p)
    site["alpha"] = f"{alpha.numerator}/{alpha.denominator}"


@pytest.mark.parametrize("command", ["audit", "verify-bounds", "census", "recover", "score"])
@pytest.mark.parametrize(
    "corrupt, reason",
    [
        (lambda d: d["edges"][-1].__setitem__(1, 10**6), "site index out of range"),
        (lambda d: _swap_primes(d["edges"][-1]), "not split-oriented"),
        (_move_beyond_s_edge, "exceeds s_edge"),
        (_lower_s_edge_below_max_slack, "exceeds s_edge"),
        (_shift_alpha_off_witness, "no witness prime"),
        (lambda d: d["sites"][0].update(x="12.5"), "malformed instance file"),
        (lambda d: d["sites"][0].update(x="1/0"), "not a canonical num/den"),
        (lambda d: d["sites"][0].update(x="1/-3"), "not a canonical num/den"),
        (lambda d: d["params"].update(eps_edge="1/2.0"), "malformed instance file"),
        (lambda d: d.update(schema=1), "unsupported schema 1"),
        (lambda d: d.update(schema=2), "unsupported schema 2"),
        (lambda d: d["params"].update(k_max=4), "malformed instance file"),
    ],
    ids=["site_index_out_of_range", "not_split_oriented", "slack_beyond_s_edge",
         "slack_beyond_s_edge_by_1e-9", "witness_empty", "site_x_not_num_den",
         "site_x_zero_denominator", "site_x_negative_denominator", "eps_edge_not_num_den",
         "schema_1", "schema_2", "params_removed_key"],
)
def test_malformed_instance_is_refused(tmp_path, recorded_k3, command, corrupt, reason):
    inst, recovery = recorded_k3
    doc = json.loads(inst.read_text())
    corrupt(doc)
    bad = tmp_path / "instance.json"
    bad.write_text(json.dumps(doc))
    out = tmp_path / "out"
    extra = ["--recovery", str(recovery), "--k", "3"] if command == "score" else []
    assert main([command, "--out", str(out), "--instance", str(bad), *extra]) == 2
    err = json.loads((out / f"{command}_error.json").read_text())["error"]
    assert err["type"] == "InstanceError" and reason in err["message"]
    assert [f.name for f in out.iterdir()] == [f"{command}_error.json"]


def _first_a_map_key(doc: dict) -> str:
    return next(iter(doc["truth"]["a_map"]))


def _double_edges(doc: dict) -> None:
    doc["edges"] += doc["edges"]


def _swap_first_edges(doc: dict) -> None:
    edges = doc["edges"]
    edges[0], edges[1] = edges[1], edges[0]


def _swap_first_sites(doc: dict) -> None:
    sites = doc["sites"]
    sites[0], sites[1] = sites[1], sites[0]


def _scale_terms(text: str) -> str:
    num, den = text.split("/")
    return f"{2 * int(num)}/{2 * int(den)}"


@pytest.mark.parametrize(
    "corrupt, reason",
    [
        (lambda d: d["sites"][0].update(x="+" + d["sites"][0]["x"]),
         "not a canonical num/den"),
        (lambda d: d["sites"][0].update(alpha=" " + d["sites"][0]["alpha"]),
         "not a canonical num/den"),
        (lambda d: d["truth"].update(t_star=_scale_terms(d["truth"]["t_star"])),
         "the form instance_to_json writes"),
        (lambda d: d["params"].update(seed=True), "seed must be an integer"),
        (lambda d: d["params"].update(web_chains=True), "web_chains must be an integer"),
        (lambda d: d["truth"].update(q_star=6.0), "must be integers"),
        (lambda d: d["truth"]["a_map"].update({_first_a_map_key(d): True}),
         "must be integers"),
        (_swap_first_sites, "do not ascend in x"),
        (_double_edges, "edges do not ascend"),
        (_swap_first_edges, "edges do not ascend at edge 1"),
        (lambda d: d["edges"].insert(1, d["edges"][0]), "edges do not ascend at edge 1"),
        (lambda d: d["edges"].__setitem__(0, dict(zip("ijpq", d["edges"][0]))),
         "not four integers"),
        (lambda d: d["truth"]["a_map"].update({"-1": 1}), "not a site index"),
        (lambda d: d["truth"]["a_map"].update({"99999": 1}), "not a site index"),
        (lambda d: d["truth"]["a_map"].update({" 1": 1}),
         "the form instance_to_json writes"),
        (lambda d: d.update(note="x"), "unknown top-level keys ['note']"),
        (lambda d: d["sites"][1].update(note="x"), "site 1 has unknown keys ['note']"),
        # json.loads alone would keep the last "schema", so this file loaded
        (lambda d: '{"schema": 2, ' + json.dumps(d)[1:], "duplicate key 'schema'"),
        # each of these three loaded, with no truth or no edges, and wrote
        # back "truth": null, "sites": [] or "edges": []
        (lambda d: d.update(truth=False), "malformed instance file"),
        (lambda d: d.update(sites={}, edges=[], truth=None), "sites and edges must be lists"),
        (lambda d: d.update(edges={}), "sites and edges must be lists"),
    ],
    ids=["rational_leading_plus", "rational_spaces", "rational_not_lowest_terms",
         "seed_bool", "web_chains_bool", "q_star_float", "a_map_value_bool",
         "sites_not_ascending", "edges_listed_twice", "edges_not_ascending",
         "edge_repeated", "edge_as_dict", "a_map_key_negative",
         "a_map_key_beyond_sites", "a_map_key_with_space", "top_level_unknown_key",
         "site_unknown_key", "key_written_twice", "truth_not_object",
         "sites_not_list", "edges_not_list"],
)
def test_non_canonical_instance_is_refused(tmp_path, recorded_k3, corrupt, reason):
    # each of these files holds the values of a generated instance, written
    # in a form instance_to_json never writes
    # (a corruption that returns text writes it as the file)
    inst, _recovery = recorded_k3
    doc = json.loads(inst.read_text())
    text = corrupt(doc)
    bad = tmp_path / "instance.json"
    bad.write_text(text or json.dumps(doc))
    out = tmp_path / "out"
    assert main(["audit", "--out", str(out), "--instance", str(bad)]) == 2
    err = json.loads((out / "audit_error.json").read_text())["error"]
    assert err["type"] == "InstanceError" and reason in err["message"]
    assert [f.name for f in out.iterdir()] == ["audit_error.json"]


def test_one_parser_serves_every_call(tmp_path, params_file, monkeypatch):
    # all six commands twice in one process, the first synth with --edges and
    # the second without: every file matches a run with a fresh parser per call
    def pipeline(root: Path, each_call) -> dict[str, bytes]:
        codes = []
        for name, extra in (("edges", ["--edges", "120"]), ("all", [])):
            out = root / name
            inst = str(out / "instance.json")
            for argv in (
                ["synth", "--out", str(out), "--params", str(params_file), "--mode",
                 "rational", "--t-star", "100000/1", "--q-star", "6", "--blind", *extra],
                ["audit", "--out", str(out), "--instance", inst],
                ["verify-bounds", "--out", str(out), "--instance", inst, "--format", "csv"],
                ["census", "--out", str(out), "--instance", inst],
                ["recover", "--out", str(out), "--instance", str(out / "instance_blind.json")],
                ["score", "--out", str(out), "--instance", inst, "--recovery",
                 str(out / "recovery.json"), "--k", "2"],
            ):
                each_call()
                codes.append(main(argv))
        files = {str(f.relative_to(root)): f.read_bytes().replace(str(root).encode(), b"")
                 for f in sorted(root.rglob("*")) if f.is_file()}
        return {**files, "exit codes": bytes(codes)}

    shared = pipeline(tmp_path / "shared", lambda: None)
    fresh = pipeline(tmp_path / "fresh",
                     lambda: monkeypatch.setattr(cli, "PARSER", cli.build_parser()))
    assert shared == fresh
    reports = ("synth_report.json", "audit_report.json", "verify_report.json",
               "census_report.json", "recovery.json", "score.json")
    assert all(f"{name}/{report}" in shared for name in ("edges", "all")
               for report in reports)
    edges = json.loads(shared["edges/instance.json"])
    assert edges["params"]["edge_count"] == 120 and len(edges["edges"]) == 120
    assert json.loads(shared["all/instance.json"])["params"]["edge_count"] is None


def test_no_module_binding_is_a_wrapper():
    # bench/tracer.py wraps package functions and counts a binding with
    # __wrapped__ as a wrapper it left behind, so no module of the package
    # may hold one of its own (functools.lru_cache or functools.wraps); cli
    # imports every module
    wrapped = [f"{name}.{attr}" for name, mod in sorted(sys.modules.items())
               if name.startswith("freqpath") for attr, value in vars(mod).items()
               if hasattr(value, "__wrapped__")]
    assert wrapped == []
