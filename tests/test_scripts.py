"""Every sweep script must still import, parse its arguments and run.

The scripts import package internals, so a renamed or removed name breaks
them at import time; ``--help`` exercises the imports and the parser without
running a sweep, and one small sweep per script exercises the library calls.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
# one small sweep per script; bench_pairs.py drives whole bench runs, so it
# has only its --help run
SMOKE = {
    "gordon_decay": ["--depth", "4"],
    "shift_repetition_grid": ["--j-max", "3", "--r", "1"],
    "skewproduct_probe": ["--dims", "2,3", "--qmax", "40", "--samples", "10"],
    "skewshift_dichotomy": ["--qmax", "200", "--samples", "20", "--starts", "3"],
    "spectrum_scan": ["--sites", "30", "--lams", "0,2"],
    "veech_towers": ["--seeds", "2", "--qmax", "40"],
}


def test_scripts_exist():
    assert SCRIPTS


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.stem)
def test_script_help_exits_zero(script, src_env):
    proc = subprocess.run(
        [sys.executable, str(script), "--help"],
        capture_output=True,
        text=True,
        env=src_env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage:")


def test_every_sweep_script_has_a_smoke_run():
    assert sorted(SMOKE) == [p.stem for p in SCRIPTS if p.stem != "bench_pairs"]


@pytest.mark.parametrize("stem", sorted(SMOKE))
def test_script_small_sweep_exits_zero(stem, src_env):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / f"{stem}.py"), *SMOKE[stem]],
        capture_output=True,
        text=True,
        env=src_env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
