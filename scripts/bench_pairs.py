#!/usr/bin/env python3
"""Alternating benchmark pairs between two checkouts, with the claim rule.

Each pair runs ``bench/run.py`` once in the parent checkout and once in the
change checkout, on the same seed; the side that runs first alternates from
pair to pair (the parent first in pair 0), so drift of a shared host falls
on both sides alike.  Every run's metrics, ``correct``, ``attempted`` and
``failed`` go to a JSON file.  For each metric the script prints both
medians and quartiles (``statistics.quantiles(n=4, method='inclusive')``)
and the pairs in which the change reads better (values rounded to 4
decimals; "better" is the direction ``BENCHMARK.json`` gives the metric).

A claimed metric meets the claim rule when the change is better in at least
9 of every 10 pairs and the median gap (parent median minus change median,
in the better direction) exceeds the interquartile range of the parent's
runs.  The script only runs the benchmark; it imports nothing of gordonlab.

Usage:
    python scripts/bench_pairs.py PARENT CHANGE --workload pipeline --pairs 10 \\
        --seconds 55 --seed 2800 --out pairs.json --claim peak_rss_mb
    python scripts/bench_pairs.py PARENT CHANGE --workload pipeline --pairs 3 \\
        --seconds 55 --seed 2850 --trace --out traced.json
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
RUN_FIELDS = ("correct", "attempted", "failed")  # recorded with the metrics, not summarized


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One ``bench/run.py`` process in checkout; its last stdout line, flattened."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: bench/run.py exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    run = {name: metric["value"] for name, metric in result["metrics"].items()}
    run.update({field: result[field] for field in RUN_FIELDS})
    return run


def directions(checkout: Path) -> dict:
    """'lower' or 'higher' for every metric that checkout's BENCHMARK.json names."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec.get("per_layer", [])}


def summarize(pairs: list, better: dict) -> dict:
    """Medians, quartiles and wins of every numeric metric both sides report."""
    names = [k for k in pairs[0]["parent"] if k not in RUN_FIELDS
             and all(k in p["change"] for p in pairs)]
    out = {}
    for name in names:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = -1 if better.get(name, "lower") == "higher" else 1
        quart = {side: statistics.quantiles(vals, n=4, method="inclusive") if len(vals) > 1
                 else [vals[0]] * 3 for side, vals in (("parent", parent), ("change", change))}
        p_med, c_med = statistics.median(parent), statistics.median(change)
        wins = sum(sign * (round(c, 4) - round(p, 4)) < 0 for p, c in zip(parent, change))
        out[name] = {
            "better": better.get(name, "lower"),
            "parent_median": p_med,
            "change_median": c_med,
            "parent_quartiles": quart["parent"],
            "change_quartiles": quart["change"],
            "median_change_rel": c_med / p_med - 1 if p_med else None,
            "median_gap": sign * (p_med - c_med),
            "parent_iqr": quart["parent"][2] - quart["parent"][0],
            "change_better_pairs": wins,
            "pairs": len(pairs),
        }
    return out


def claim_verdict(stats: dict) -> dict:
    """The claim rule: better in >= 9 of 10 pairs and a gap past the parent IQR."""
    wins_ok = 10 * stats["change_better_pairs"] >= 9 * stats["pairs"]
    gap_ok = stats["median_gap"] > stats["parent_iqr"]
    return {"wins_ok": wins_ok, "gap_ok": gap_ok, "met": wins_ok and gap_ok}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    parser.add_argument("--trace", action="store_true", help="run with --trace 1")
    parser.add_argument("--claim", action="append", default=[],
                        help="metric to judge by the claim rule (repeatable)")
    parser.add_argument("--out", type=Path, required=True, help="JSON file for every run")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            t0 = time.perf_counter()
            pair[side] = run_bench(checkouts[side], args.workload, seed, args.seconds, args.trace)
            print(f"pair {i} seed {seed} {side}: {time.perf_counter() - t0:.0f} s, "
                  f"correct {pair[side]['correct']}, failed {pair[side]['failed']}",
                  file=sys.stderr)
        pairs.append(pair)

    stats = summarize(pairs, directions(checkouts["change"]))
    claims = {name: claim_verdict(stats[name]) for name in args.claim if name in stats}
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "checkouts": {side: str(path) for side, path in checkouts.items()},
        "pairs": pairs,
        "summary": stats,
        "claims": claims,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"{args.workload}: {len(pairs)} pairs, seeds {args.seed}-{args.seed + len(pairs) - 1}")
    print(f"{'metric':<40} {'parent med':>12} {'change med':>12} {'rel':>8} "
          f"{'parent IQR':>11} {'better':>7}")
    for name, s in stats.items():
        rel = "" if s["median_change_rel"] is None else f"{s['median_change_rel']:+.1%}"
        print(f"{name:<40} {s['parent_median']:>12.6g} {s['change_median']:>12.6g} {rel:>8} "
              f"{s['parent_iqr']:>11.4g} {s['change_better_pairs']:>3}/{s['pairs']}")
    for name, verdict in claims.items():
        s = stats[name]
        print(f"claim {name}: better in {s['change_better_pairs']}/{s['pairs']} "
              f"({'ok' if verdict['wins_ok'] else 'short of 9/10'}), gap {s['median_gap']:.4g} "
              f"vs parent IQR {s['parent_iqr']:.4g} ({'ok' if verdict['gap_ok'] else 'inside'}): "
              f"{'met' if verdict['met'] else 'not met'}")
    for name in args.claim:
        if name not in stats:
            print(f"claim {name}: no such metric in these runs")
    bad = [(p["seed"], side) for p in pairs for side in SIDES
           if not p[side]["correct"] or p[side]["failed"]]
    if bad:
        print(f"runs not correct or with failures: {bad}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
