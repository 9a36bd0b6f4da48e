"""Every sweep script must still import, parse its arguments and run.

The scripts import package internals, so a renamed or removed name breaks
them at import time; ``--help`` exercises the imports and the parser without
running a sweep, and one small sweep per script exercises the library calls.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
# one small sweep per script; bench_pairs.py drives whole bench runs, so it
# has its --help run and runs on a fake run_bench
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


def load_bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("broken", [None, {"correct": False}, {"failed": 2}],
                         ids=["clean", "not-correct", "failed-ops"])
def test_bench_pairs_exits_1_on_a_broken_run(broken, tmp_path, monkeypatch, capsys):
    # a fake run_bench stands in for bench/run.py; the change side of the
    # second pair is broken, or no run is
    bench_pairs = load_bench_pairs()
    calls = []

    def fake_run_bench(checkout, workload, seed, seconds, trace):
        calls.append(seed)
        run = {"wall_s": 1.0, "correct": True, "attempted": 5, "failed": 0}
        if broken and checkout == tmp_path / "change" and len(calls) == 3:
            run.update(broken)
        return run

    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = tmp_path / "pairs.json"
    monkeypatch.setattr(bench_pairs, "run_bench", fake_run_bench)
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", str(tmp_path / "parent"), str(tmp_path / "change"),
        "--workload", "repetition", "--pairs", "2", "--seed", "5", "--out", str(out)])
    code = bench_pairs.main()
    assert calls == [5, 5, 6, 6]
    assert json.loads(out.read_text())["pairs"][1]["first"] == "change"
    printed = capsys.readouterr().out
    if broken:
        assert code == 1 and "runs not correct or with failures: [(6, 'change')]" in printed
    else:
        assert code == 0 and "not correct" not in printed
