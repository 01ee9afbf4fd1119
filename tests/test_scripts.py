"""Smoke tests for the experiment scripts, which call the library directly."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_reproduce_tables():
    proc = run_script("reproduce_tables.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for line in (
        "== sl8-mu2: bundled rows recomputed (13) ==",
        "== sl9-mu3: full minimal generating set "
        "(31 rows, 8 beyond the bundled table) ==",
        "  sl8-mu2    index  2  verdict counterexample [ok]",
        "  sl9-mu3    index  3  verdict counterexample [ok]",
    ):
        assert line in lines
    assert [l for l in lines if l.startswith("  gcd = ")] == [
        "  gcd = 2", "  gcd = 2", "  gcd = 3", "  gcd = 3"
    ]
    assert "MISMATCH" not in proc.stdout


def test_conjecture_scan():
    proc = run_script("conjecture_scan.py", "--max-ell", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith(
        "ell=3: SL(9)/mu_3  generators=31  index=3  equals ell=yes  "
        "divisible=yes  dual-invariant=yes  ("
    )
    assert lines[1] == "index equals ell for every prime tried"


def test_conjecture_scan_reaches_ell_5():
    proc = run_script("conjecture_scan.py", "--max-ell", "5")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith(
        "ell=5: SL(25)/mu_5  generators=1558  index=5  equals ell=yes  "
        "divisible=yes  dual-invariant=yes  ("
    )
    assert lines[2] == "index equals ell for every prime tried"


def test_conjecture_scan_rejects_max_ell_above_the_ceiling():
    proc = run_script("conjecture_scan.py", "--max-ell", "11")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "--max-ell 11 exceeds the ceiling 7" in proc.stderr
