"""gordonlab benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from anywhere inside a checkout; gordonlab is imported from the
checkout's src/, never from an installed copy.  Workloads are in
workloads.py, metric names and units in BENCHMARK.json at the checkout root.

A run
1. runs the workload's fixed job list in passes for about --seconds (at
   least MIN_PASSES passes), timing every public call;
2. after each pass, times a fresh interpreter that imports gordonlab and
   gordonlab.cli and builds the workload's inputs (setup_s is the median
   of these, over at least SETUP_SAMPLES of them);
3. checks pass 0 against invariants and, for seeds with committed
   references, against bench/references/<part>.json for each of the
   workload's parts; later passes must reproduce pass 0 exactly;
4. prints one JSON line: {"correct", "attempted", "failed", "metrics"}.

End-to-end metrics (--trace 0):
  wall_s       time to finish the job list once: the sum over its calls of
               each call's median time across passes, pass 0 (the warm-up)
               left out
  cpu_s        the same for user + system CPU, child processes included
  peak_rss_mb  peak resident memory of the run and its children, read after
               the first MIN_PASSES passes so it does not depend on how many
               passes fit into --seconds
  setup_s      median time for a fresh interpreter to import and build inputs
The error rate is failed / attempted: an operation is one public call, and
it fails if it raises, exits non-zero, returns non-finite output or
disagrees with a check.

--trace 1 alternates untraced and traced passes, keeps spans in memory and
prints the per-layer metrics instead: inclusive time of the calls into each
layer (median over traced passes), deterministic counts derived from the
returned values, the self time of the benchmark's own pipeline spans and
trace.overhead_s (median traced pass minus median untraced pass, leaving
out the warm-up pass 0).  Layers a workload does not call report 0.

Details of every run (environment, passes, failures, known defects) go to
bench/results/, and the spans of a traced run to a .spans.jsonl file there.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import uuid
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
SETUP_SAMPLES = 5
MIN_PASSES = 3
# Stop starting passes after this long, so that a run always ends well inside
# the three minutes a run may take, even on a much slower commit.
PASS_BUDGET_S = 100.0
SETUP_TIMEOUT_S = 60
# One BLAS thread, here and in every child: idle OpenBLAS workers spin on the
# host's other core after each LAPACK call, which made cpu_s (and, when the
# core was contended, wall_s) depend on the scheduler.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def die(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(names):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _version(dist: str) -> str | None:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # benchmark checkouts are plain file trees
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def environment(nproc: int) -> dict:
    """Recorded with every result, as metadata rather than metrics."""
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "cpu_model": _cpu_model(),
        "loadavg_start": list(os.getloadavg()),
        "git_commit": _git_commit(),
        "src_lines": src_lines,
        "GORDONLAB_THREADS": "unset",
        **BLAS_ENV,
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


class SetupProbe:
    """Fresh interpreters doing the set-up, timed from outside.

    The first only warms caches.  The others run one after each pass, so that
    set-up is sampled across the whole run rather than in one burst, and are
    topped up to SETUP_SAMPLES at the end.
    """

    def __init__(self, workload: str, seed: int, child_env: dict):
        self.argv = [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)]
        self.env = child_env
        self.walls, self.imports = [], []
        self.sample(keep=False)

    def sample(self, keep: bool = True) -> None:
        t0 = time.perf_counter()
        proc = subprocess.run(self.argv, cwd=ROOT, env=self.env, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            die(f"set-up failed (exit {proc.returncode}):\n{proc.stderr.strip()}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        if Path(probe["gordonlab"]).resolve().parent != (ROOT / "src" / "gordonlab").resolve():
            die(f"set-up imported gordonlab from {probe['gordonlab']}, not from this checkout")
        if keep:
            self.walls.append(wall)
            self.imports.append(probe["import_s"])

    def result(self) -> dict:
        while len(self.walls) < SETUP_SAMPLES:
            self.sample()
        return {"walls": self.walls, "setup_s": statistics.median(self.walls),
                "cli.import_s": statistics.median(self.imports)}


# ---------------------------------------------------------------------------
# passes and checks
# ---------------------------------------------------------------------------


def timed_passes(workload, inputs, seconds: float, tracing: bool, origin: float, after_pass) -> list:
    """Passes over the job list; pass 0 keeps its results for the checks.

    `after_pass()` runs after every pass, outside the pass's own timing.
    """
    from spans import Pass
    from summary import summarize

    passes, rounds = [], []
    min_passes = 2 * MIN_PASSES if tracing else MIN_PASSES
    while True:
        elapsed = time.perf_counter() - origin
        # stop where the run ends nearest to `seconds`, judged by a typical round
        typical = statistics.median(rounds) if rounds else 0.0
        if elapsed >= PASS_BUDGET_S or (len(passes) >= min_passes and elapsed + typical / 2 >= seconds):
            return passes
        p = Pass(len(passes), tracing and len(passes) % 2 == 1, origin)
        t0 = time.perf_counter()
        workload.run_pass(inputs, p)
        p.total_wall = time.perf_counter() - t0
        p.peak_rss_mb = peak_rss_mb()
        if passes:
            p.keep_summaries_only(summarize)
        passes.append(p)
        after_pass()
        rounds.append(time.perf_counter() - t0)


def load_reference(workload, seed: int) -> dict | None:
    """The references of every part that has them for this seed, merged."""
    merged = {}
    for part in workload.parts:
        path = BENCH / "references" / f"{part.name}.json"
        if path.exists():
            seeds = json.loads(path.read_text())["seeds"]
            merged.update(seeds.get(str(seed), seeds.get("*")) or {})
    return merged or None


def verify(workload, inputs, passes, reference) -> tuple[dict, list]:
    """Failed operations as {(pass, label): reason}, and the known defects seen."""
    from summary import differences, nonfinite_fields, summarize
    from workloads import Finding

    failed = {}
    for p in passes:
        for label, reason in p.errors.items():
            failed[(p.index, label)] = f"raised {reason}"
    first = passes[0]
    summaries = {label: summarize(out) for label, out in first.outputs.items()}

    known = list(workload.known_defects(inputs, first.outputs))
    defective = {f.label for f in known}
    try:
        findings = list(workload.check(inputs, first.outputs))
    except Exception as exc:  # a check that cannot run counts as one failure
        first.tracebacks["check"] = traceback.format_exc()
        findings = [Finding("check", f"check aborted: {type(exc).__name__}: {exc}")]
    for label, summary in summaries.items():
        bad = nonfinite_fields(summary)
        if bad and label not in defective and label not in first.errors:
            findings.append(Finding(label, f"non-finite output at {', '.join(bad[:3])}"))
    if reference is not None:
        for label, expected in reference.items():
            if label not in first.outputs:
                findings.append(Finding(label, "operation in the reference was not run"))
            elif label not in first.errors:
                diffs = differences(expected, workload.reference_view(label, first.outputs[label]))
                if diffs:
                    findings.append(Finding(label, "differs from reference: " + "; ".join(diffs[:3])))
    for f in findings:
        failed.setdefault((0, f.label), f.reason)

    for p in passes[1:]:
        for label, summary in p.outputs.items():
            if label not in p.errors and label in summaries and summary != summaries[label]:
                failed.setdefault((p.index, label), "output differs from pass 0")
    return failed, known


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def per_call(passes, attr: str, stat) -> dict:
    labels = passes[0].labels
    return {label: stat(getattr(p, attr)[label] for p in passes) for label in labels}


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples above it."""
    return max(0, math.floor(100 * (n - 10) / n)) if n > 10 else 0


def percentile(values: list, pct: int) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(len(ordered) * pct / 100))]


def layer_metrics(traced: list, untraced: list, counts: dict) -> tuple[dict, dict]:
    """Per-layer metrics from the traced passes' spans, plus notes for the record."""
    from spans import self_times

    per_pass = []
    durations: dict[str, list] = {}
    pipeline_self = []
    for p in traced:
        totals: dict[str, float] = {}
        selfs = self_times(p.spans)
        own = 0.0
        for span_id, _, name, label, start, end in p.spans:
            if label is None:
                own += selfs[span_id]
                continue
            metric = p.metric[label]
            totals[metric] = totals.get(metric, 0.0) + (end - start)
            durations.setdefault(metric, []).append(end - start)
        per_pass.append(totals)
        pipeline_self.append(own)
    metrics = {
        name: statistics.median(t.get(name, 0.0) for t in per_pass)
        for name in sorted({n for t in per_pass for n in t})
    }
    metrics.update(counts)
    metrics["bench.pipeline_self_s"] = statistics.median(pipeline_self)
    # pass 0 also warms caches, so it stays out of the comparison
    metrics["trace.overhead_s"] = statistics.median(p.total_wall for p in traced) - statistics.median(
        p.total_wall for p in untraced[1:]
    )
    if metrics.get("dynamics.orbit_s"):
        metrics["dynamics.orbit_sites_per_s"] = counts["dynamics.orbit_sites"] / metrics["dynamics.orbit_s"]
    if metrics.get("potentials.sample_potential_s"):
        metrics["potentials.sites_per_s"] = counts["potentials.sites"] / metrics["potentials.sample_potential_s"]
    notes = {}
    for base, prefix in (("repetition.veech_random_s", "repetition.veech_random"),
                         ("spectral.three_block_s", "spectral.three_block")):
        samples = durations.get(base)
        if samples:
            pct = tail_percentile(len(samples))
            metrics[f"{prefix}_p50_ms"] = 1e3 * statistics.median(samples)
            metrics[f"{prefix}_tail_ms"] = 1e3 * percentile(samples, pct)
            notes[f"{prefix}_tail_ms"] = {"percentile": pct, "samples": len(samples)}
    return metrics, notes


def pick(spec_metrics: list, values: dict, fill_missing: bool) -> dict:
    out = {}
    for m in spec_metrics:
        if m["name"] in values:
            value = values[m["name"]]
        elif fill_missing:
            value = 0  # a layer this workload does not call
        else:
            raise KeyError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


# ---------------------------------------------------------------------------


def main() -> None:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "gordonlab" / "__init__.py").is_file() or not spec_path.is_file():
        die(f"{ROOT} is not a gordonlab checkout (need src/gordonlab and BENCHMARK.json)")
    sys.path.insert(0, str(ROOT / "src"))
    os.environ.pop("GORDONLAB_THREADS", None)  # the environment must not change the load
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    from spans import Pass
    from summary import TOLERANCE
    from workloads import WORKLOADS, child_env, nproc

    args = parse_args(sorted(WORKLOADS))
    spec = json.loads(spec_path.read_text())
    workload = WORKLOADS[args.workload]
    run_id = uuid.uuid4().hex
    env = environment(nproc())

    setup_probe = SetupProbe(args.workload, args.seed, child_env())
    import gordonlab

    if Path(gordonlab.__file__).resolve().parent != (ROOT / "src" / "gordonlab").resolve():
        die(f"imported gordonlab from {gordonlab.__file__}, not from this checkout")
    inputs = workload.inputs(args.seed)

    origin = time.perf_counter()
    passes = timed_passes(workload, inputs, args.seconds, bool(args.trace), origin, setup_probe.sample)
    setup = setup_probe.result()
    untraced = [p for p in passes if not p.tracing]
    traced = [p for p in passes if p.tracing]
    failed, known = verify(workload, inputs, passes, load_reference(workload, args.seed))
    extras = {}
    if args.trace and hasattr(workload, "traced_extras"):
        extra = Pass(len(passes), True, origin)
        extras = workload.traced_extras(inputs, extra)
        failed.update({(extra.index, label): f"raised {r}" for label, r in extra.errors.items()})
        passes.append(extra)
    attempted = sum(len(p.labels) for p in passes)

    steady = untraced[1:]  # pass 0 also warms caches
    call_walls = per_call(steady, "wall", statistics.median)
    by_metric: dict[str, float] = {}
    for label, wall in call_walls.items():
        metric = passes[0].metric[label]
        by_metric[metric] = by_metric.get(metric, 0.0) + wall
    end_to_end = {
        "wall_s": sum(call_walls.values()),
        "cpu_s": sum(per_call(steady, "cpu", statistics.median).values()),
        "peak_rss_mb": passes[MIN_PASSES - 1].peak_rss_mb,
        "setup_s": setup["setup_s"],
    }
    record = {
        "run_id": run_id,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "setup": setup,
        "passes": [{"index": p.index, "traced": p.tracing, "wall_s": p.total_wall,
                    "peak_rss_mb": getattr(p, "peak_rss_mb", None)} for p in passes],
        "end_to_end": end_to_end,
        "call_walls": per_call(untraced, "wall", list),
        "wall_s_by_layer_metric": by_metric,
        "attempted": attempted,
        "failed": [{"pass": i, "label": label, "reason": r} for (i, label), r in sorted(failed.items())],
        "known_defects": [{"label": f.label, "reason": f.reason} for f in known],
        "tracebacks": {label: tb for p in passes for label, tb in p.tracebacks.items()},
    }
    if args.trace:
        # counts need a clean pass 0; after a failure the layers report 0
        counts = workload.counts(inputs, passes[0].outputs) if not failed else {}
        layers, notes = layer_metrics(traced, untraced, counts)
        layers.update(extras)
        layers["cli.import_s"] = setup["cli.import_s"]
        record["per_layer"] = layers
        record["per_layer_notes"] = notes
        metrics = pick(spec["per_layer"], layers, fill_missing=True)
    else:
        metrics = pick(spec["end_to_end"], end_to_end, fill_missing=False)
    record["tolerance"] = TOLERANCE
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    if args.trace:
        with open(RESULTS / f"{args.workload}-seed{args.seed}.spans.jsonl", "w") as fh:
            for p in passes:
                for span_id, parent, name, label, start, end in p.spans:
                    fh.write(json.dumps({"run_id": run_id, "pass": p.index, "span_id": span_id,
                                         "parent": parent, "name": name, "label": label,
                                         "start": start, "end": end}) + "\n")
    for (i, label), reason in sorted(failed.items()):
        print(f"bench: FAILED pass {i} {label}: {reason}", file=sys.stderr)
    for f in known:
        print(f"bench: known defect {f.label}: {f.reason}", file=sys.stderr)
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
