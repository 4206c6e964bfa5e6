"""Smoke runs of the experiment scripts at tiny sizes."""
import csv
import hashlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = SCRIPTS.parent / "src"


def _main(name):
    return runpy.run_path(str(SCRIPTS / name), run_name="script_under_test")["main"]


def _header(path):
    with open(path, newline="") as fh:
        return next(csv.reader(fh))


def test_alpha_feasibility_scan(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = _main("alpha_feasibility_scan.py")(
        ["--alpha-range", "15,16", "--samples", "2", "--budget", "300", "--out", str(out)])
    assert code == 0
    assert _header(out) == ["alpha", "hits", "best_margin", "violated", "evaluated"]
    text = capsys.readouterr().out
    assert "wrote" in text
    assert "top killer" in text
    rows = [line.split() for line in text.splitlines() if line.startswith(" 1")]
    assert len(rows) == 2 and all(r[4].startswith(("H2", "H3", "H4", "H5")) for r in rows)


def test_alpha_feasibility_scan_is_frozen(tmp_path, capsys):
    # sha256 and table rows recorded with the stacked-reduction selection in
    # ``search._judge`` that the ordered pass replaced
    out = tmp_path / "scan.csv"
    code = _main("alpha_feasibility_scan.py")(
        ["--alpha-range", "14,17", "--samples", "4", "--budget", "4000", "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "7721374863a73bded2b320252371d11b766393d329d6787a68e215f738d1655b"
    rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith(" 1")]
    assert rows == [
        " 14.000     0     -0.01708237291895609        H2   H2b  58%",
        " 15.000     0   -0.0096222005905692853        H2   H2b  59%",
        " 16.000     0    -0.003086407456302398        H2   H2b  60%",
        " 17.000     2   0.00059538699076244761             H2b  60%",
    ]


def test_certify_reference_box(capsys):
    code = _main("certify_reference_box.py")(["--budget", "10000"])
    out = capsys.readouterr().out
    assert code == 0
    assert "id    engine    status" in out
    assert "merged verdict: certified" in out


def test_export_horseshoe_covers(tmp_path, capsys):
    prefix = tmp_path / "cov"
    code = _main("export_horseshoe_covers.py")(
        ["--resolutions", "8", "--export-prefix", str(prefix)])
    assert code == 0
    for k in (0, 1):
        assert _header(f"{prefix}-k{k}.csv") == ["x_lo", "x_hi", "y_lo", "y_hi", "z_lo", "z_hi"]
    assert "disjoint" in capsys.readouterr().out


# one malformed flag per script; every script parses with the CLI's checked
# parser and casters, so a script missing here fails
_BAD_FLAG = {
    "alpha_feasibility_scan.py": ("--alpha-range", "10"),
    "certify_reference_box.py": ("--tol", "-1"),
    "export_horseshoe_covers.py": ("--resolutions", "1"),
}


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_a_malformed_flag_exits_3_naming_it(script):
    assert script in _BAD_FLAG, f"{script} has no malformed-flag case"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [v for v in [os.environ.get("PYTHONPATH")] if v]))

    def run(*argv):
        return subprocess.run([sys.executable, str(SCRIPTS / script), *argv], env=env,
                              capture_output=True, text=True, timeout=120)

    flag, value = _BAD_FLAG[script]
    done = run(flag, value)
    assert done.returncode == 3, done.stderr
    assert flag in done.stderr and "Traceback" not in done.stderr
    assert done.stdout == ""
    assert run("--help").returncode == 0
