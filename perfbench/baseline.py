"""Measure the benchmark's baseline and its steadiness; write baseline.json.

    python3 perfbench/baseline.py
    python3 perfbench/baseline.py --seeds 1001-1010 --traced-seed 201 --workloads cli_round

For every workload in BENCHMARK.json it runs ``run.py --trace 0`` once per
seed and ``run.py --trace 1`` twice on one seed, one run after another. It
prints, for each end-to-end metric, the median over the seeds and the spread
(interquartile range over median, from ``statistics.quantiles(n=4)``) next
to the metric's bound, and writes the figures to ``baseline.json`` here.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(record, result) of one run of run.py."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2].removeprefix("record "))
    return record, json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def untraced(workload: str, seeds: list[int], seconds: int, metrics: list[dict]) -> tuple[dict, dict]:
    values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
    totals = {"attempted_total": 0, "failed_total": 0,
              "criterion8_counterexamples_total": 0, "oracle_skipped_degenerate_total": 0}
    machine = {}
    for seed in seeds:
        record, result = run(workload, seed, seconds, 0)
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        totals["attempted_total"] += result["attempted"]
        totals["failed_total"] += result["failed"]
        totals["criterion8_counterexamples_total"] += record["gate"]["criterion8_counterexamples"]
        totals["oracle_skipped_degenerate_total"] += record["gate"]["oracle_skipped_degenerate"]
        machine = {k: record[k] for k in ("nproc", "os_cpu_count", "python", "numpy", "machine",
                                          "git_commit", "src_sha256")}
        print(f"{workload} seed {seed}: " + ", ".join(
            f"{name} {values[name][-1]:.6g}" for name in values), flush=True)
    block = {}
    for m in metrics:
        block[m["name"]] = {"unit": m["unit"], **spread(values[m["name"]])}
        print(f"{workload:10s} {m['name']:16s} median {block[m['name']]['median']:12.6g} "
              f"spread {block[m['name']]['spread']:.3f} (bound {m['bound']})", flush=True)
    block["runs"] = len(seeds)
    block.update(totals)
    return block, machine


def traced(workload: str, seed: int, seconds: int) -> dict:
    first, r1 = run(workload, seed, seconds, 1)
    second, r2 = run(workload, seed, seconds, 1)
    counts = [name for name, v in r1["metrics"].items() if v["unit"] in ("count", "ratio", "B")]
    repeat = all(r1["metrics"][n]["value"] == r2["metrics"][n]["value"] for n in counts)
    print(f"{workload} traced seed {seed}: counts repeat between runs: {repeat}", flush=True)
    return {
        "seed": seed,
        "pass_ops": first["pass_ops"],
        "passes": [first["passes"], second["passes"]],
        "counts_repeat_within_run": [first["counts_repeat"], second["counts_repeat"]],
        "counts_repeat_between_runs": repeat,
        "failed": [r1["failed"], r2["failed"]],
        "metrics": r1["metrics"],
        "second_run_times": {n: v["value"] for n, v in r2["metrics"].items() if n not in counts},
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", default="1001-1010", help="untraced seeds, as first-last")
    p.add_argument("--traced-seed", type=int, default=201)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--out", type=Path, default=HERE / "baseline.json")
    args = p.parse_args(argv)
    seeds = seed_range(args.seeds)
    baseline = {
        "about": "Baseline of the fiedlertools benchmark: end-to-end medians and quartiles "
                 "over one untraced run per seed, and per-layer figures from two traced runs "
                 "of one seed, per workload. Written by baseline.py.",
        "git_commit": None,
        "src_sha256": None,
        "machine": {},
        "run_seconds": args.seconds,
        "seeds": {w: seeds for w in args.workloads},
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in args.workloads:
        block, machine = untraced(workload, seeds, args.seconds, spec["end_to_end"])
        baseline["end_to_end"][workload] = block
        baseline["git_commit"] = machine.pop("git_commit")
        baseline["src_sha256"] = machine.pop("src_sha256")
        baseline["machine"] = machine
    for workload in args.workloads:
        baseline["per_layer"][workload] = traced(workload, args.traced_seed, args.seconds)
    args.out.write_text(json.dumps(baseline, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
