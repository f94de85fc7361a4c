"""Run one benchmark workload against the fiedlertools sources in this checkout.

    python3 perfbench/run.py --workload gnm_fcd --seed 1 --seconds 50 --trace 0

With ``--trace 0`` the run times operations with nothing wrapped but the
checks' capture hook and prints the end-to-end metrics. With ``--trace 1``
it wraps the package's public functions at the names callers look them up
(see tracer.py), runs every operation of a fixed pass untraced and traced
in turn, and prints the per-layer metrics plus the tracing overhead. Either
way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is the run record, also written under ``.perfbench/`` in the checkout.

The package is imported from ``src/`` next to this directory and nowhere
else; without it the run exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
# set-up is repeated this many times and the median reported
SETUP_REPS = 11
# eigen.smallest_three switches from QL to Sturm bisection above this order
STURM_CUTOFF = 80
# an operation's tail is reported at the highest percentile with this many
# samples beyond it
TAIL_BEYOND = 10


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def fresh_import():
    """Import fiedlertools from scratch (numpy stays loaded)."""
    for name in [n for n in sys.modules if n == "fiedlertools" or n.startswith("fiedlertools.")]:
        del sys.modules[name]
    ft = importlib.import_module("fiedlertools")
    if not Path(ft.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported fiedlertools from {ft.__file__}, not from {SRC}")
    return ft


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=20,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def setup(cls, seed: int, workdir: Path):
    """Import, generate inputs and warm up, SETUP_REPS times; keep the last."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        ft = fresh_import()
        workload = cls(ft, seed, workdir)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            workload.warmup()
        times.append(time.perf_counter() - t0)
    return workload, times


def run_op(workload, inp):
    """(latency, output or None, error or None, warnings raised)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            out, err = workload.op(inp), None
        except Exception as exc:  # a failing operation is counted, not fatal
            out, err = None, f"{type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
    return t1 - t0, out, err, len(caught)


def check_all(workload, done) -> dict:
    """Correctness gate over (input, output, error) triples, outside timing."""
    failed = 0
    reasons: list[str] = []
    errors: list[float] = []
    skipped = 0
    counterexamples = 0
    for inp, out, err in done:
        if err is not None:
            failed += 1
            reasons.append(err)
            continue
        verdict = workload.check(inp, out)
        errors += verdict.lambda2_errors
        skipped += verdict.skipped
        counterexamples += verdict.criterion8_counterexamples
        if not verdict.ok:
            failed += 1
            reasons += verdict.misses
    worst = max(errors) if errors else math.nan
    return {
        "failed": failed,
        "reasons": reasons[:20],
        "lambda2_pairs": len(errors),
        "lambda2_worst_rel_err": worst,
        "oracle_skipped_degenerate": skipped,
        "criterion8_counterexamples": counterexamples,
    }


def lambda2_digits(worst: float) -> float:
    if math.isnan(worst):
        return 0.0
    return -math.log10(max(worst, 2.0**-53))


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with TAIL_BEYOND samples beyond it.

    Below 4 * TAIL_BEYOND samples a quarter of them must lie beyond instead,
    so that a short run reports its upper quartile rather than its maximum,
    a single sample that one stall can set.
    """
    xs = sorted(latencies)
    n = len(xs)
    i = n - 1 - min(TAIL_BEYOND, n // 4)
    return xs[i], 100.0 * i / (n - 1) if n > 1 else 100.0


def timed_run(workload, seconds: float):
    """Closed loop: the next operation starts when the previous one returns."""
    gc.collect()
    latencies: list[float] = []
    done = []
    warned = 0
    k = 0
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        inp = workload.input(k)
        latency, out, err, nwarn = run_op(workload, inp)
        latencies.append(latency)
        done.append((inp, out, err))
        warned += nwarn
        k += 1
        if time.perf_counter() >= deadline:
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return latencies, done, wall, peak_rss_mb, warned


def end_to_end(workload, args, setup_times, record) -> tuple[dict, dict]:
    latencies, done, wall, peak_rss_mb, warned = timed_run(workload, args.seconds)
    gate = check_all(workload, done)
    n = len(latencies)
    tail_value, tail_pct = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "ops_per_s": (n / wall, "1/s"),
        "op_p50_ms": (1000.0 * statistics.median(latencies), "ms"),
        "op_tail_ms": (1000.0 * tail_value, "ms"),
        "ok_ratio": (1.0 - gate["failed"] / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "lambda2_digits": (lambda2_digits(gate["lambda2_worst_rel_err"]), "digits"),
    }
    record.update(
        timed_wall_s=wall,
        fail_ratio=gate["failed"] / n,
        op_tail_percentile=tail_pct,
        samples={
            "setup_s": len(setup_times),
            "ops_per_s": n,
            "op_p50_ms": n,
            "op_tail_ms": n,
            "ok_ratio": n,
            "peak_rss_mb": 1,
            "lambda2_digits": gate["lambda2_pairs"],
        },
        setup_times_s=setup_times,
        latencies_ms=[1000.0 * t for t in latencies],
        warnings_in_ops=warned,
        gate=gate,
    )
    if hasattr(workload, "anchor_reports"):
        record["cli_anchor_reports"] = sorted(set(workload.anchor_reports([o for _, o, _ in done if o])))
    return metrics, {"attempted": n, "failed": gate["failed"]}


# ---------------------------------------------------------------------------
# Traced run

PER_LAYER = [
    # (name, unit, better)
    ("trace.ops_per_s_untraced", "1/s", "higher"),
    ("trace.ops_per_s_traced", "1/s", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("perturbation.perturbed_fiedler.calls", "count", "lower"),
    ("perturbation.perturbed_fiedler.busy_s", "s", "lower"),
    ("perturbation.perturbed_fiedler.self_s", "s", "lower"),
    ("fcd.searches", "count", "lower"),
    ("fcd.probes_per_search", "count", "lower"),
    ("fcd.a_of_v.busy_s", "s", "lower"),
    ("fcd.interior", "ratio", "higher"),
    ("fcd.hit_xmax", "ratio", "lower"),
    ("fcd.hit_xmin", "ratio", "lower"),
    ("fcd.fcd_all.busy_s", "s", "lower"),
    ("eigen.smallest_three.calls_ql", "count", "lower"),
    ("eigen.smallest_three.calls_sturm", "count", "lower"),
    ("eigen.smallest_three.busy_s", "s", "lower"),
    ("eigen.smallest_three.n_max", "count", "lower"),
    ("eigen.eig_sym.calls", "count", "lower"),
    ("eigen.eig_sym.busy_s", "s", "lower"),
    ("eigen.eig_sym.fallback_calls", "count", "lower"),
    ("spectral.fiedler.calls", "count", "lower"),
    ("spectral.fiedler.busy_s", "s", "lower"),
    ("spectral.fiedler.self_s", "s", "lower"),
    ("centrality.betweenness.busy_s", "s", "lower"),
    ("centrality.closeness.busy_s", "s", "lower"),
    ("centrality.eigenvector_centrality.busy_s", "s", "lower"),
    ("centrality.correlation.busy_s", "s", "lower"),
    ("centrality.failed_graphs", "count", "lower"),
    ("shape.mask_to_graph.busy_s", "s", "lower"),
    ("shape.pixels", "count", "higher"),
    ("shape.parameterize.busy_s", "s", "lower"),
    ("shape.parameterize.self_s", "s", "lower"),
    ("shape.anchored_parameterization.busy_s", "s", "lower"),
    ("shape.thickness_profile.busy_s", "s", "lower"),
    ("shape.thickness_profile.self_s", "s", "lower"),
    ("shape.marching_squares.calls", "count", "lower"),
    ("shape.marching_squares.busy_s", "s", "lower"),
    ("graphs.generate.busy_s", "s", "lower"),
    ("graphs.laplacian.busy_s", "s", "lower"),
    ("cli.fiedler.busy_s", "s", "lower"),
    ("cli.perturb_sweep.busy_s", "s", "lower"),
    ("cli.fcd.busy_s", "s", "lower"),
    ("cli.centrality_experiment.busy_s", "s", "lower"),
    ("cli.shape.busy_s", "s", "lower"),
    ("cli.csv_bytes", "B", "lower"),
    ("cli.pools_started", "count", "lower"),
    ("cli.pool_workers", "count", "lower"),
    ("cli.pool_wait_s", "s", "lower"),
    ("svgplot.line_chart.busy_s", "s", "lower"),
    ("svgplot.shape_scene.busy_s", "s", "lower"),
]


def layer_metrics(spans, workload, outputs) -> tuple[dict, dict]:
    """(times, counts) of one traced pass, keyed by per-layer metric name."""
    from tracer import POOL_LAYER, count_under, layer_totals

    tot = layer_totals(spans)

    def get(layer, field):
        return tot[layer][field] if layer in tot else (0.0 if field != "calls" else 0)

    def notes(layer):
        return tot[layer]["notes"] if layer in tot else []

    times = {}
    for name, unit, _ in PER_LAYER:
        if unit == "s" and name != "cli.pool_wait_s":
            layer, field = name.rsplit(".", 1)
            times[name] = get(layer, field)
    times["cli.pool_wait_s"] = get(POOL_LAYER, "busy_s")
    orders = notes("eigen.smallest_three")
    flags = notes("fcd.a_of_v")
    searches = len(flags)
    probes = count_under(spans, "perturbation.perturbed_fiedler", "fcd.a_of_v")
    workers = notes(POOL_LAYER)
    counts = {
        "perturbation.perturbed_fiedler.calls": get("perturbation.perturbed_fiedler", "calls"),
        "fcd.searches": searches,
        "fcd.probes_per_search": probes / searches if searches else 0.0,
        "fcd.interior": flags.count("interior") / searches if searches else 0.0,
        "fcd.hit_xmax": flags.count("hit_xmax") / searches if searches else 0.0,
        "fcd.hit_xmin": flags.count("hit_xmin") / searches if searches else 0.0,
        "eigen.smallest_three.calls_ql": sum(1 for n in orders if n <= STURM_CUTOFF),
        "eigen.smallest_three.calls_sturm": sum(1 for n in orders if n > STURM_CUTOFF),
        "eigen.smallest_three.n_max": max(orders, default=0),
        "eigen.eig_sym.calls": get("eigen.eig_sym", "calls"),
        "eigen.eig_sym.fallback_calls": count_under(spans, "eigen.eig_sym", "eigen.smallest_three"),
        "spectral.fiedler.calls": get("spectral.fiedler", "calls"),
        "centrality.failed_graphs": 0,
        "shape.pixels": sum(notes("shape.mask_to_graph")),
        "shape.marching_squares.calls": get("shape.marching_squares", "calls"),
        "cli.csv_bytes": 0,
        "cli.pools_started": len(workers),
        "cli.pool_workers": statistics.mean(workers) if workers else 0,
    }
    counts.update(workload.counts(outputs))
    return times, counts


def traced_run(workload, args, record) -> tuple[dict, dict]:
    """Passes over a fixed set of operations, each run untraced and traced.

    Within a pass every operation runs twice back to back, once with tracing
    off and once with it on, and the order alternates from one operation to
    the next, so warm-up and drift fall on both sides alike. Passes repeat
    while the time allows.
    """
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    pass_inputs = [workload.input(k) for k in range(workload.TRACE_OPS)]
    untraced, traced, pass_times, pass_counts = [], [], [], []
    done = []
    first_spans = None
    start = time.perf_counter()
    try:
        while True:
            tracer.clear()
            gc.collect()
            outputs = []
            sums = {False: 0.0, True: 0.0}
            for k, inp in enumerate(pass_inputs):
                tracer.op = k
                for active in ((False, True) if (len(traced) + k) % 2 == 0 else (True, False)):
                    tracer.active = active
                    latency, out, err, _ = run_op(workload, inp)
                    tracer.active = False
                    sums[active] += latency
                    done.append((inp, out, err))
                    if active:
                        outputs.append(out)
            untraced.append(sums[False])
            traced.append(sums[True])
            times, counts = layer_metrics(tracer.spans, workload, [o for o in outputs if o])
            pass_times.append(times)
            pass_counts.append(counts)
            if first_spans is None:
                first_spans = tracer.spans
            used = time.perf_counter() - start
            if used + sums[False] + sums[True] > args.seconds:
                break
    finally:
        tracer.active = False
        tracer.uninstall()
    gate = check_all(workload, done)
    n = workload.TRACE_OPS
    metrics = {
        "trace.ops_per_s_untraced": n / statistics.median(untraced),
        "trace.ops_per_s_traced": n / statistics.median(traced),
        "trace.overhead_pct": 100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0),
    }
    for name in pass_times[0]:
        metrics[name] = statistics.median(t[name] for t in pass_times)
    metrics.update(pass_counts[0])
    record.update(
        pass_ops=n,
        passes=len(traced),
        counts_repeat=all(c == pass_counts[0] for c in pass_counts),
        untraced_pass_s=untraced,
        traced_pass_s=traced,
        spans_in_first_pass=len(first_spans),
        scope=(
            "per-layer figures are totals over one pass of pass_ops operations; "
            "times are medians over the traced passes, counts come from the first "
            "and counts_repeat says whether every pass gave the same counts. Only "
            "the benchmark's own process is traced: spans inside process-pool "
            "workers would be lost when the workers exit. No workload starts a "
            "pool (cli_round passes --threads 1), so the figures cover all work."
        ),
        gate=gate,
    )
    spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.json"
    spans_path.write_text(json.dumps({
        "fields": ["layer", "start", "end", "parent", "op", "note"],
        "spans": first_spans,
    }))
    record["spans_file"] = str(spans_path.relative_to(ROOT))
    ordered = {name: (metrics[name], unit) for name, unit, _ in PER_LAYER}
    return ordered, {"attempted": len(done), "failed": gate["failed"]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "fiedlertools" / "__init__.py").is_file():
        print(f"error: fiedlertools sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, setup_times = setup(WORKLOADS[args.workload], args.seed, workdir)
        cli = importlib.import_module("fiedlertools.cli")
        threads = cli.build_parser().parse_args(["fcd", "-"]).threads
        # the worker cap the workload passes to the CLI; None if it does not use the CLI
        used = getattr(workload, "THREADS", None)
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)),
            "os_cpu_count": os.cpu_count(),
            "cli_threads_default": threads,
            "cli_threads_used": used,
            "cli_pool_workers_resolved": None if used is None else max(used, 1),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "git_commit": git_commit(),
            "src_sha256": src_digest(),
            "loop": "closed, one caller in one process",
        }
        if args.trace:
            metrics, tally = traced_run(workload, args, record)
        else:
            metrics, tally = end_to_end(workload, args, setup_times, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": tally["failed"] == 0,
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1, default=str)
    )
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {name:42s} {value:14.6g} {unit}")
    for why in record["gate"]["reasons"]:
        print(f"check miss: {why}")
    print("record " + json.dumps(record, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
