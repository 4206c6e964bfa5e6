"""End-to-end tests for the command-line interface.

Everything goes through ``main(argv)`` so the exit-code contract is tested
exactly as a shell would see it, minus process spawning.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys

import pytest

from triopoly import PAPER_BOX, PAPER_PARAMS, cli, symbolic
from triopoly.cli import main
from triopoly.core import eval_map_xyz
from triopoly.symbolic import _check_orbits

PAPER_BOX_ARG = "0.5766666668,0.6316666668,0.3366666668,0.4516666668,0.0,0.3951779684"
PAPER_PARAMS_ARG = "0.4,0.55,0.6,17"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestUsageErrors:
    def test_no_subcommand_exits_3(self, capsys):
        code, _, err = run(capsys)
        assert code == 3
        assert "error" in err

    def test_unknown_subcommand_exits_3(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 3

    def test_certify_without_box_exits_3(self, capsys):
        code, _, err = run(capsys, "certify", "--params", PAPER_PARAMS_ARG)
        assert code == 3
        assert "--box" in err

    def test_malformed_box_exits_3(self, capsys):
        code, _, _ = run(capsys, "certify", "--params", PAPER_PARAMS_ARG,
                         "--box", "1,2,3")
        assert code == 3

    def test_nonnumeric_params_exit_3(self, capsys):
        code, _, _ = run(capsys, "certify", "--params", "a,b,c,d",
                         "--box", PAPER_BOX_ARG)
        assert code == 3

    def test_unknown_engine_exits_3(self, capsys):
        code, _, _ = run(capsys, "certify", "--preset", "paper",
                         "--engine", "oracle")
        assert code == 3

    def test_help_exits_0(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0
        assert "certify" in out


class TestCertify:
    def test_paper_preset_certifies_with_ten_conditions(self, capsys):
        code, out, _ = run(capsys, "certify", "--preset", "paper")
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == 1
        assert doc["verdict"] == "certified"
        assert len(doc["conditions"]) == 10
        assert all(c["status"] == "pass" for c in doc["conditions"])

    def test_raised_top_face_fails_with_exit_1(self, capsys):
        bad = PAPER_BOX_ARG.rsplit(",", 1)[0] + ",0.38"
        code, out, _ = run(capsys, "certify", "--preset", "paper", "--box", bad)
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] == "failed"
        failed = {c["id"] for c in doc["conditions"] if c["status"] != "pass"}
        assert "H2" in failed

    def test_paper_raw_preset_exits_3(self, capsys):
        code, _, err = run(capsys, "certify", "--preset", "paper-raw")
        assert code == 3
        assert "y_l < y_r" in err

    def test_paper_raw_preset_builds_no_box_for_a_boxless_subcommand(self, capsys):
        # the raw box fails validation only where a subcommand reads a box
        argv = ["simulate", "--start", "0.6,0.4,0.2", "--steps", "2"]
        code, raw, _ = run(capsys, *argv, "--preset", "paper-raw")
        assert code == 0
        code, paper, _ = run(capsys, *argv, "--preset", "paper")
        assert code == 0 and raw == paper

    def test_explicit_flags_match_preset(self, capsys, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(["certify", "--preset", "paper", "--out", str(a)]) == 0
        assert main(["certify", "--params", PAPER_PARAMS_ARG,
                     "--box", PAPER_BOX_ARG, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_engine_both_still_certifies(self, capsys):
        code, out, _ = run(capsys, "certify", "--preset", "paper",
                           "--engine", "both")
        assert code == 0
        assert json.loads(out)["engine"] == "both"

    def test_output_floats_have_17_significant_digits(self, capsys):
        _, out, _ = run(capsys, "certify", "--preset", "paper")
        assert "0.57666666680000001" in out

    def test_a_c4_minimum_past_the_float_range_fails_c4_with_exit_1(self, capsys):
        # (x_l + y_l + z_l)^2 overflows: squaring by a product gives -inf and
        # a failed C4, where pow raised OverflowError, a runtime failure
        code, out, _ = run(capsys, "certify", "--params", PAPER_PARAMS_ARG,
                           "--box=0.5,0.6,-1e200,0.4,0,0.3")
        assert code == 1
        c4 = json.loads(out)["conditions"][8]
        assert (c4["id"], c4["status"]) == ("C4", "fail")

    def test_an_underflowing_f3_divisor_is_a_runtime_failure_exit_4(self, capsys):
        # (x_l + y_l + z_r)^2 = (3e-170)^2 underflows to 0 in C2's corner value
        # of F3: the analytic engine names that divisor, as core's map does
        code, out, err = run(capsys, "certify", "--params", PAPER_PARAMS_ARG,
                             "--box=1e-170,2e-170,1e-170,2e-170,0,1e-170")
        assert code == 4 and out == ""
        assert "(x+y+z)^2 underflows" in err and "division by zero" not in err

    def test_domain_escape_is_a_runtime_failure_exit_4(self, capsys):
        # a well-formed box on which x+z < 0: the interval engine's domain
        # check raises DomainError, a runtime failure, not invalid input
        code, out, err = run(capsys, "certify", "--engine", "interval",
                             "--params", PAPER_PARAMS_ARG,
                             "--box=-0.5,0.6,0.3,0.45,0.0,0.39")
        assert code == 4
        assert "runtime failure" in err
        assert out == ""


class TestConfigFile:
    def test_config_supplies_params_and_box(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f"params = {PAPER_PARAMS_ARG}\n"
            "# full candidate box\n"
            f"box = {PAPER_BOX_ARG}\n"
        )
        code, out, _ = run(capsys, "certify", "--config", str(cfg))
        assert code == 0
        assert json.loads(out)["verdict"] == "certified"

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        bad = PAPER_BOX_ARG.rsplit(",", 1)[0] + ",0.38"
        cfg.write_text(f"params = {PAPER_PARAMS_ARG}\nbox = {bad}\n")
        code, _, _ = run(capsys, "certify", "--config", str(cfg),
                         "--box", PAPER_BOX_ARG)
        assert code == 0

    def test_unknown_config_key_exits_3(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("workers = 4\n")
        code, _, err = run(capsys, "certify", "--config", str(cfg))
        assert code == 3
        assert "workers" in err

    @pytest.mark.parametrize("key,value", [("tol", "abc"), ("budget", "1.5"),
                                           ("box", "1,0,0,1,0,1")])
    def test_rejected_config_value_names_its_key(self, capsys, tmp_path, key, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        code, _, err = run(capsys, "certify", "--preset", "paper", "--config", str(cfg))
        assert code == 3
        assert f"error: config key {key}: " in err

    @pytest.mark.parametrize("argv,key,value,reason", [
        (["certify", "--preset", "paper"], "box", "1,2",
         "--box needs 6 comma-separated numbers, got '1,2'"),
        (["certify", "--preset", "paper"], "box", "1,0,0,1,0,1", "need x_l < x_r"),
        (["certify", "--preset", "paper"], "tol", "x", "expected a number, got 'x'"),
        (["certify", "--box", "1,2,0,1,0,1"], "params", "0,1,1,1",
         "parameter c1 must be a finite positive number"),
        (["search", "--preset", "paper"], "seed", "abc", "expected an integer, got 'abc'"),
        (["simulate", "--preset", "paper", "--steps", "2"], "start", "1,2",
         "--start needs 3 comma-separated numbers, got '1,2'"),
        (["simulate", "--preset", "paper", "--steps", "2"], "start", "nan,0,0",
         "coordinate x must be finite"),
        # counts below their floor, which the library would report by its
        # own parameter names
        (["certify", "--preset", "paper"], "budget", "-1", "expected an integer >= 1, got '-1'"),
        (["search", "--preset", "paper"], "budget", "0", "expected an integer >= 1, got '0'"),
        (["search", "--preset", "paper"], "max_hits", "-1", "expected an integer >= 1, got '-1'"),
        (["bifurcate", "--preset", "paper", "--alpha-range", "8,9"], "samples", "1",
         "expected an integer >= 2, got '1'"),
    ])
    def test_a_malformed_value_prints_its_reason_as_flag_and_config_key(
            self, capsys, tmp_path, argv, key, value, reason):
        flag = "--" + key.replace("_", "-")
        code, out, err = run(capsys, *argv, flag, value)
        assert code == 3 and out == ""
        assert f"error: argument {flag}: {reason}" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        code, out, err2 = run(capsys, *argv, "--config", str(cfg))
        assert code == 3 and out == ""
        assert f"error: config key {key}: {reason}" in err2
        assert "_parse_" not in err + err2

    @pytest.mark.parametrize("key,value", [("paths", "-2"), ("seed", "-1")])
    def test_a_negative_count_exits_3_before_any_work(
            self, capsys, tmp_path, monkeypatch, key, value):
        def no_work(*args, **kwargs):
            raise AssertionError("horseshoe ran before its flags were checked")

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "certify_box", no_work)
        reason = f"expected a non-negative integer, got '{value}'"
        argv = ["horseshoe", "--preset", "paper", "--resolution", "4"]
        code, out, err = run(capsys, *argv, f"--{key}", value)
        assert (code, out) == (3, "")
        assert f"error: argument --{key}: {reason}" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        code, out, err = run(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (3, "")
        assert f"error: config key {key}: {reason}" in err
        assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("command,key,value,reason", [
        ("horseshoe", "resolution", "1", "expected an integer >= 2, got '1'"),
        ("periodic", "max_k", "0", "expected an integer in 1..6, got '0'"),
        ("periodic", "max_k", "7", "expected an integer in 1..6, got '7'"),
        ("periodic", "word", "012", "symbol word must be a nonempty string over 0/1, got '012'"),
    ])
    def test_a_value_the_command_cannot_use_exits_3_before_certifying(
            self, capsys, tmp_path, monkeypatch, command, key, value, reason):
        calls = []
        certify = cli.certify_box

        def counted(*args, **kwargs):
            calls.append(args)
            return certify(*args, **kwargs)

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "certify_box", counted)
        flag = "--" + key.replace("_", "-")
        code, out, err = run(capsys, command, "--preset", "paper", f"{flag}={value}")
        assert (code, out, calls) == (3, "", [])
        assert f"error: argument {flag}: {reason}" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        code, out, err = run(capsys, command, "--preset", "paper", "--config", str(cfg))
        assert (code, out, calls) == (3, "", [])
        assert f"error: config key {key}: {reason}" in err
        assert [f.name for f in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("command", ["simulate", "lyapunov"])
    @pytest.mark.parametrize("key", ["steps", "transient"])
    def test_a_negative_step_count_names_its_flag(self, capsys, tmp_path, command, key):
        values = {"start": "0.6,0.4,0.2", "steps": "5", "transient": "0", key: "-1"}
        reason = "expected a non-negative integer, got '-1'"
        code, out, err = run(capsys, command, "--preset", "paper",
                             *(f"--{k}={v}" for k, v in values.items()))
        assert (code, out) == (3, "")
        assert f"error: argument --{key}: {reason}" in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = -1\n")
        code, out, err = run(capsys, command, "--preset", "paper", "--config", str(cfg),
                             *(f"--{k}={v}" for k, v in values.items() if k != key))
        assert (code, out) == (3, "")
        assert f"error: config key {key}: {reason}" in err

    def test_zero_lyapunov_steps_is_left_to_the_library(self, capsys):
        code, out, err = run(capsys, "lyapunov", "--preset", "paper",
                             "--start", "0.6,0.4,0.2", "--steps", "0")
        assert (code, out) == (3, "")
        assert "invalid input: need at least one step" in err

    def test_missing_config_file_exits_3(self, capsys, tmp_path):
        code, _, _ = run(capsys, "certify", "--config", str(tmp_path / "nope.cfg"))
        assert code == 3

    def test_hyphenated_keys_accepted(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"params = {PAPER_PARAMS_ARG}\nmax-hits = 2\nbudget = 50\n")
        code, out, _ = run(capsys, "search", "--config", str(cfg), "--seed", "3")
        assert code == 0
        header = json.loads(out.splitlines()[0])
        assert header["budget"] == 50


class TestSearch:
    def test_same_seed_byte_identical(self, tmp_path):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        argv = ["search", "--preset", "paper", "--budget", "300", "--seed", "11"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jsonl_structure(self, capsys):
        code, out, _ = run(capsys, "search", "--preset", "paper",
                           "--budget", "400", "--seed", "7")
        assert code == 0
        lines = [json.loads(ln) for ln in out.splitlines()]
        assert lines[0]["kind"] == "box-search"
        assert lines[0]["seed"] == 7
        assert lines[-1]["kind"] == "summary"
        for row in lines[1:-1]:
            assert row["kind"] == "hit"
            assert row["box"]["z_l"] == 0.0

    def test_search_needs_params(self, capsys):
        code, _, err = run(capsys, "search", "--budget", "10")
        assert code == 3
        assert "--params" in err

    def test_bad_strategy_exits_3(self, capsys):
        code, _, _ = run(capsys, "search", "--preset", "paper",
                         "--strategy", "anneal")
        assert code == 3


class TestDynamicsCommands:
    def test_simulate_emits_orbit_csv(self, capsys):
        code, out, _ = run(capsys, "simulate", "--preset", "paper",
                           "--start", "0.6,0.4,0.2", "--steps", "5")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["step", "x", "y", "z"]
        assert rows[1][1] == "0.59999999999999998"

    def test_simulate_requires_start_and_steps(self, capsys):
        code, _, _ = run(capsys, "simulate", "--preset", "paper")
        assert code == 3

    def test_lyapunov_header_and_row(self, capsys):
        code, out, _ = run(capsys, "lyapunov", "--preset", "paper",
                           "--start", "0.6,0.4,0.2", "--steps", "200")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["lambda1", "lambda2", "lambda3",
                           "steps", "escaped", "note"]
        assert len(rows) == 2
        float(rows[1][0])

    def test_bifurcate_scans_alpha(self, capsys):
        code, out, _ = run(capsys, "bifurcate", "--params", "0.4,0.55,0.6,10",
                           "--alpha-range", "8,9", "--samples", "3",
                           "--transient", "100")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][:3] == ["alpha", "escaped", "lyap1"]
        assert [r[0] for r in rows[1:]] == ["8", "8.5", "9"]

    @pytest.mark.parametrize("argv", [
        ("simulate", "--start", "0.6,0.4,0.3", "--steps", "5"),
        ("lyapunov", "--start", "0.6,0.4,0.3", "--steps", "5"),
        ("bifurcate", "--alpha-range", "8,9", "--samples", "2"),
    ], ids=lambda argv: argv[0])
    def test_negative_transient_exits_3(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--preset", "paper", "--transient=-3")
        assert code == 3 and out == ""
        assert "transient" in err

    def test_demo_logistic_reports_covering(self, capsys):
        code, out, _ = run(capsys, "demo-logistic", "--mu", "3.88")
        assert code == 0
        doc = json.loads(out)
        assert doc["first_iterate"] is None
        assert doc["second_iterate"]["verified"] is True
        assert "samples" not in doc["second_iterate"]

    @pytest.mark.parametrize("mu", ["nan", "inf", "-inf", "0"])
    def test_demo_logistic_rejects_a_mu_that_is_not_finite_and_positive(self, capsys, mu):
        code, out, err = run(capsys, "demo-logistic", f"--mu={mu}")
        assert (code, out) == (3, "")
        assert "invalid input: mu must be a finite positive number" in err


class TestPeriodic:
    def test_single_word(self, capsys):
        code, out, _ = run(capsys, "periodic", "--preset", "paper",
                           "--word", "01")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0][0] == "word"
        assert rows[1][0] == "01"
        assert float(rows[1][4]) < 1e-8

    def test_max_k_enumerates_all_words(self, capsys):
        code, out, _ = run(capsys, "periodic", "--preset", "paper",
                           "--max-k", "2")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert [r[0] for r in rows[1:]] == ["0", "1", "00", "01", "10", "11"]

    def test_word_and_max_k_together_exit_3(self, capsys):
        code, _, _ = run(capsys, "periodic", "--preset", "paper",
                         "--word", "01", "--max-k", "2")
        assert code == 3

    def test_neither_word_nor_max_k_exits_3(self, capsys):
        code, _, _ = run(capsys, "periodic", "--preset", "paper")
        assert code == 3

    def test_dedupe_cyclic_with_a_word_exits_3_before_certifying(self, capsys, tmp_path,
                                                                 monkeypatch):
        calls = []
        certify = cli.certify_box

        def counted(*args, **kwargs):
            calls.append(args)
            return certify(*args, **kwargs)

        monkeypatch.setattr(cli, "certify_box", counted)
        argv = ["periodic", "--preset", "paper", "--word", "01"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("dedupe_cyclic = true\n")
        for extra in (["--dedupe-cyclic"], ["--config", str(cfg)]):
            code, out, err = run(capsys, *argv, *extra)
            assert (code, out, calls) == (3, "", [])
            assert "error: --dedupe-cyclic applies only with --max-k" in err

    def test_uncertified_box_exits_1(self, capsys):
        bad = PAPER_BOX_ARG.rsplit(",", 1)[0] + ",0.38"
        code, _, err = run(capsys, "periodic", "--params", PAPER_PARAMS_ARG,
                           "--box", bad, "--word", "01")
        assert code == 1
        assert "certif" in err

    @pytest.mark.parametrize("words", [("--word", "01"), ("--max-k", "2")])
    @pytest.mark.parametrize("tol", ["0", "-1e-8", "nan"])
    def test_nonpositive_tol_exits_3_before_any_output(self, capsys, words, tol):
        code, out, err = run(capsys, "periodic", "--preset", "paper", *words, f"--tol={tol}")
        assert code == 3 and out == ""
        assert "tol must be positive" in err

    def test_tol_is_the_certificate_tolerance_only(self, capsys):
        # a word converges below the library's residual of 1e-10, whatever --tol
        code, out, _ = run(capsys, "periodic", "--preset", "paper",
                           "--word", "01", "--tol", "1e-300")
        assert code == 0
        assert list(csv.reader(io.StringIO(out)))[1][5] == "True"

    def test_stalled_newton_writes_csv_then_exits_4(self, capsys, monkeypatch):
        # Newton stops 1e-6 off the 2-cycle, far above the residual of 1e-10
        shoot = symbolic._shoot
        monkeypatch.setattr(symbolic, "_shoot", lambda *args: shoot(*args) + 1e-6)
        code, out, err = run(capsys, "periodic", "--preset", "paper", "--word", "01")
        assert code == 4
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][0] == "01" and rows[1][5] == "False"
        assert "01" in err and "runtime failure" in err
        # the reported residual and itinerary are those of the reported point
        pt = tuple(float(v) for v in rows[1][1:4])
        residual = float(rows[1][4])
        assert residual > 0.0
        img = eval_map_xyz(PAPER_PARAMS, *eval_map_xyz(PAPER_PARAMS, *pt))
        assert residual == max(abs(a - b) for a, b in zip(img, pt))
        code = _check_orbits(PAPER_PARAMS, PAPER_BOX, [pt], 2)[1][0]
        assert rows[1][6] == format(int(code), "02b")


class TestHorseshoe:
    def test_writes_three_files(self, capsys, tmp_path):
        prefix = str(tmp_path / "run")
        code, out, _ = run(capsys, "horseshoe", "--preset", "paper",
                           "--resolution", "8", "--paths", "2",
                           "--out", prefix)
        assert code == 0
        k0 = (tmp_path / "run-k0.csv").read_text()
        k1 = (tmp_path / "run-k1.csv").read_text()
        assert k0.splitlines()[0] == k1.splitlines()[0]
        doc = json.loads((tmp_path / "run-stretch.json").read_text())
        assert doc["kind"] == "stretch-reports"
        assert len(doc["reports"]) == 3
        assert "run-k0.csv" in out

    def test_uncertified_box_exits_1(self, capsys, tmp_path):
        bad = PAPER_BOX_ARG.rsplit(",", 1)[0] + ",0.38"
        code, _, _ = run(capsys, "horseshoe", "--params", PAPER_PARAMS_ARG,
                         "--box", bad, "--out", str(tmp_path / "x"))
        assert code == 1

    def test_same_seed_identical_stretch_json(self, capsys, tmp_path):
        argv = ["horseshoe", "--preset", "paper", "--resolution", "8",
                "--paths", "2", "--seed", "5"]
        assert main(argv + ["--out", str(tmp_path / "a")]) == 0
        assert main(argv + ["--out", str(tmp_path / "b")]) == 0
        capsys.readouterr()
        assert (tmp_path / "a-stretch.json").read_bytes() == \
               (tmp_path / "b-stretch.json").read_bytes()


# arguments with which each subcommand succeeds, so that only the option
# under test can make it exit 3
_VALID = {
    "certify": ["--preset", "paper"],
    "search": ["--preset", "paper", "--budget", "10"],
    "periodic": ["--preset", "paper", "--word", "01"],
    "simulate": ["--preset", "paper", "--start", "0.6,0.4,0.2", "--steps", "2"],
    "lyapunov": ["--preset", "paper", "--start", "0.6,0.4,0.2", "--steps", "2"],
    "bifurcate": ["--params", "0.4,0.55,0.6,10", "--alpha-range", "8,9",
                  "--samples", "2", "--transient", "10"],
    "demo-logistic": ["--mu", "3.88"],
}
_VALUES = {"params": PAPER_PARAMS_ARG, "box": PAPER_BOX_ARG, "tol": "1e-8", "seed": "9",
           "engine": "both", "preset": "paper", "threads": "2", "samples": "5"}


@pytest.mark.parametrize("command,option", [
    ("search", "threads"),
    ("bifurcate", "threads"),
    # coverings are decided from exact endpoint images, nothing is sampled
    ("demo-logistic", "samples"),
    # options the subcommand's handler never read
    ("certify", "seed"),
    ("periodic", "seed"),
    *[("simulate", o) for o in ("box", "tol", "seed", "engine")],
    *[("lyapunov", o) for o in ("box", "tol", "seed", "engine")],
    *[("bifurcate", o) for o in ("box", "tol", "engine")],
    *[("demo-logistic", o) for o in ("params", "box", "tol", "seed", "engine", "preset")],
])
def test_removed_option_exits_3_as_flag_and_config_key(capsys, tmp_path, command, option):
    code, _, err = run(capsys, command, *_VALID[command], f"--{option}", _VALUES[option])
    assert code == 3
    assert f"--{option}" in err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{option} = {_VALUES[option]}\n")
    code, _, err = run(capsys, command, *_VALID[command], "--config", str(cfg))
    assert code == 3
    assert option in err


@pytest.mark.parametrize("command", ["certify", "search", "horseshoe"])
@pytest.mark.parametrize("option", ["--tol=-1", "--tol=nan", "--budget=0"])
def test_bad_tol_or_budget_exits_3_under_the_analytic_engine(capsys, tmp_path, command, option):
    # the analytic engine never refines an interval, yet the arguments are
    # checked as under the interval engine (horseshoe takes no --budget)
    out = tmp_path / "out"
    code, stdout, err = run(capsys, command, "--preset", "paper", "--engine", "analytic",
                            option, "--out", str(out))
    assert code == 3 and stdout == ""
    assert option[2:].split("=")[0] in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv,option", [
    (["certify", *_VALID["certify"]], "engine"),
    (["search", *_VALID["search"]], "strategy"),
    (["bifurcate", *_VALID["bifurcate"]], "policy"),
    (["certify", "--params", PAPER_PARAMS_ARG, "--box", PAPER_BOX_ARG], "preset"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_config_value_takes_the_flags_choices(capsys, tmp_path, argv, option):
    def choices(err):
        return re.findall(r"[\w-]+", re.search(r"choose from (.*)\)", err).group(1))

    code, _, err = run(capsys, *argv, f"--{option}", "bogus")
    assert code == 3
    flag_choices = choices(err)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{option} = bogus\n")
    code, _, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 3
    assert option in err
    assert choices(err) == flag_choices and len(flag_choices) >= 2


@pytest.mark.parametrize("argv", [
    ["simulate", "--preset", "paper", "--start", "0.6,0.4,0.2", "--steps", "5"],
    ["lyapunov", "--preset", "paper", "--start", "0.6,0.4,0.2", "--steps", "200"],
    ["bifurcate", "--params", "0.4,0.55,0.6,10", "--alpha-range", "9,10.5",
     "--samples", "4", "--transient", "100"],
    ["periodic", "--preset", "paper", "--word", "01"],
    ["search", "--preset", "paper", "--budget", "300", "--seed", "3"],
], ids=lambda argv: argv[0])
def test_stdout_and_out_file_carry_the_same_bytes(capsys, tmp_path, argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    path = tmp_path / "out"
    assert main(argv + ["--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    with open(path, newline="") as fh:
        assert fh.read() == out


# sha256 of each subcommand's output, recorded before the option tables were
# rebuilt; bifurcate's with the one-vector largest exponent
_FROZEN = {
    "certify-analytic": (["certify", "--preset", "paper", "--engine", "analytic"],
                         {"": "0b271f67d9e99c376ea4d23e8c5b482fdeaffdc9c1e1f24fb9caf611124dd8b8"}),
    "certify-interval": (["certify", "--preset", "paper", "--engine", "interval"],
                         {"": "d72a4c08c87a77d7f623c9268cd0235810b0277cfc8b73182323d82788f008bb"}),
    "certify-both": (["certify", "--preset", "paper", "--engine", "both"],
                     {"": "36cbb2d3f8efe25b34b7d3d5ae32649402a017ab0e2e22054dd6eea3f0cd7540"}),
    "search": (["search", "--preset", "paper", "--budget", "300", "--seed", "3"],
               {"": "2a65c5f8e76476545f3e406bb0c88aab49609beee01669fb70944d6554fc0036"}),
    "periodic": (["periodic", "--preset", "paper", "--max-k", "3"],
                 {"": "2c2d7cd7dece17b3fb049296b786830fdeeabf828ba75123fae64b810aeadae5"}),
    "periodic-k6": (["periodic", "--preset", "paper", "--max-k", "6"],
                    {"": "3e4f35f20f48ea7166025b46880a3dcc9e0f37f99bf22c4c51cf12661f17c03d"}),
    "periodic-necklaces": (["periodic", "--preset", "paper", "--max-k", "4", "--dedupe-cyclic"],
                           {"": "4e22aaacf60a43ec3261daf0d81332ee2bbbe70b1a392539f8f5bf87e564c127"}),
    "simulate": (["simulate", "--preset", "paper", "--start", "0.6,0.4,0.2", "--steps", "5"],
                 {"": "849fe8c06c05c34669a60b2e2a5091b606f612aba943fe86f47256202e0b6b02"}),
    "lyapunov": (["lyapunov", "--preset", "paper", "--start", "0.6,0.4,0.2",
                  "--steps", "200"],
                 {"": "e49877e692542103c84e40c7c7aa5eee856455e3d0a1d0359523884d00ebbe3f"}),
    "bifurcate": (["bifurcate", "--params", "0.4,0.55,0.6,10", "--alpha-range", "9,10.5",
                   "--samples", "4", "--transient", "100"],
                  {"": "28edf3927a6599ecd26987999ef6ebabb630debcdd2004d90cf03a5c12b21115"}),
    # the route-to-chaos sweep on the reference costs, recorded from the
    # sweep script that ``bifurcate`` replaced
    "bifurcate-paper": (["bifurcate", "--preset", "paper", "--alpha-range", "7,10.5",
                         "--samples", "141"],
                        {"": "57a5e458a279f64f49dc53096afde9fc3e154898a63755cb84844216454538b8"}),
    "demo-logistic": (["demo-logistic", "--mu", "3.88"],
                      {"": "dd6d33931cdb40d45d570e337212514dacbe3bb4c3005280ea959c8263be250e"}),
    # no pair at 3.2, 3.5 and 3.83, the second iterate's at 4.0, both at 4.2
    **{f"demo-logistic-{mu}": (["demo-logistic", "--mu", mu], {"": digest}) for mu, digest in [
        ("3.2", "d9cae0e32a242cc3f4ecab09d06c83ddab5a2ce8a75e53f94fd120cea2b69ce7"),
        ("3.5", "001c594b0e81d743bf32bc16d1e46a21b11dff3023aff5f622b4ab3293bb6999"),
        ("3.83", "39af607696b1b5b931e7e110a324c56c6af59f832a12fd38e26c94eb103775d9"),
        ("4.0", "acfecbab547787113cefa027c1260e1cfd8b7709c9186cde662c434d9463b92e"),
        ("4.2", "86338421120c2593a7d6b5fe14950dc86c550a7fd239d8d70f2cef0bc8117bb2")]},
    "horseshoe": (["horseshoe", "--preset", "paper", "--resolution", "16", "--paths", "5",
                   "--seed", "0"],
                  {"-k0.csv": "8b9c27c0af4357249dd5ff9bd65d01ceefc3bea48ad4c205b464e6fb9bd56c15",
                   "-k1.csv": "6b0cef5f3d9b0834d76954b1f4dd04a9c47c02c49eff727f05e25282d4244813",
                   "-stretch.json":
                       "8e7d9ced6718fda56e3ea3678bd30821ce9d2e1027964707e125d1da9af881d8"}),
}


# stderr of the frozen runs that write one: bifurcate's regime summary, in
# the wording of the sweep script it replaced
_FROZEN_STDERR = {
    "bifurcate": "first positive leading exponent at alpha = 9\n"
                 "first escaping orbit at alpha = 10\n",
    "bifurcate-paper": "first positive leading exponent at alpha = 8.775\n"
                       "first escaping orbit at alpha = 9.875\n",
}


@pytest.mark.parametrize("name", list(_FROZEN))
def test_cli_bytes_are_frozen(capsys, tmp_path, name):
    argv, digests = _FROZEN[name]
    assert main(argv + ["--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err == _FROZEN_STDERR.get(name, "")
    got = {suffix: hashlib.sha256((tmp_path / f"out{suffix}").read_bytes()).hexdigest()
           for suffix in digests}
    assert got == digests


def test_no_subcommand_imports_numpy_ma(tmp_path):
    """numpy 2.4's ``np.unique`` (and ``np.isin`` and its kin) imports
    numpy.ma on a fresh process's first call, ~10 ms.  One process runs
    every subcommand at a tiny size, and none may import it."""
    box = ["--preset", "paper"]
    runs = [
        ["certify", *box, "--engine", "both", "--out", "cert.json"],
        ["search", *box, "--budget", "200", "--out", "hits.jsonl"],
        ["horseshoe", *box, "--resolution", "8", "--paths", "2", "--out", "hs"],
        ["periodic", *box, "--max-k", "3", "--out", "words.csv"],
        ["simulate", *box, "--start", "0.6,0.4,0.2", "--steps", "5", "--out", "orbit.csv"],
        ["lyapunov", *box, "--start", "0.6,0.4,0.2", "--steps", "50", "--out", "lyap.csv"],
        ["bifurcate", "--params", "0.4,0.55,0.6,10", "--alpha-range", "8,9", "--samples", "3",
         "--transient", "100", "--out", "bif.csv"],
        ["demo-logistic", "--mu", "3.88", "--out", "demo.json"],
    ]
    code = ("import json, sys\n"
            "from triopoly.cli import main\n"
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]\n"
            "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n")
    src = os.path.dirname(os.path.dirname(main.__code__.co_filename))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [v for v in [os.environ.get("PYTHONPATH")] if v]))
    done = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    codes, imported = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * len(runs), done.stderr
    assert not imported, "numpy.ma was imported"
