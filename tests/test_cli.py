"""End-to-end tests for the command-line interface.

Everything goes through ``main(argv)`` so the exit-code contract is tested
exactly as a shell would see it, minus process spawning.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json

import pytest

from triopoly import PAPER_BOX, PAPER_PARAMS
from triopoly.cli import main
from triopoly.core import eval_map_xyz
from triopoly.symbolic import _itinerary_codes

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

    def test_threads_flag_and_config_key_are_gone(self, capsys, tmp_path):
        code, _, err = run(capsys, "search", "--preset", "paper", "--threads", "2")
        assert code == 3
        assert "--threads" in err
        cfg = tmp_path / "search.cfg"
        cfg.write_text("threads = 2\n")
        code, _, err = run(capsys, "search", "--preset", "paper", "--config", str(cfg))
        assert code == 3
        assert "threads" in err


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

    def test_demo_logistic_reports_covering(self, capsys):
        code, out, _ = run(capsys, "demo-logistic", "--mu", "3.88")
        assert code == 0
        doc = json.loads(out)
        assert doc["first_iterate"] is None
        assert doc["second_iterate"]["verified"] is True
        assert "samples" not in doc["second_iterate"]

    def test_demo_logistic_has_no_samples_option(self, capsys, tmp_path):
        # coverings are decided from exact endpoint images, nothing is sampled
        code, _, _ = run(capsys, "demo-logistic", "--mu", "3.88", "--samples", "5")
        assert code == 3
        cfg = tmp_path / "demo.cfg"
        cfg.write_text("mu = 3.88\nsamples = 5\n")
        code, _, err = run(capsys, "demo-logistic", "--config", str(cfg))
        assert code == 3
        assert "samples" in err


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

    def test_uncertified_box_exits_1(self, capsys):
        bad = PAPER_BOX_ARG.rsplit(",", 1)[0] + ",0.38"
        code, _, err = run(capsys, "periodic", "--params", PAPER_PARAMS_ARG,
                           "--box", bad, "--word", "01")
        assert code == 1
        assert "certif" in err

    def test_stalled_newton_writes_csv_then_exits_4(self, capsys):
        # the 2-cycle is found, but no float residual is below 1e-300
        code, out, err = run(capsys, "periodic", "--preset", "paper",
                             "--word", "01", "--tol", "1e-300")
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
        code = _itinerary_codes(PAPER_PARAMS, PAPER_BOX, [pt], 2)[0]
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


def test_bifurcate_csv_bytes_are_frozen(capsys, tmp_path):
    # sha256 recorded with the per-sample scan the lockstep one replaced
    path = tmp_path / "bif.csv"
    assert main(["bifurcate", "--params", "0.4,0.55,0.6,10", "--alpha-range", "9,10.5",
                 "--samples", "4", "--transient", "100", "--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == \
        "e3a29c3b4f50ff99efff95e0a0d0817afffee43361e50d844912735096ab092b"
