"""Run the benchmark over ten seeds, twice, and write one results file.

    python3 benchmarks/collect.py --out benchmarks/BENCH_baseline.json

Two sets of untraced runs, one run per workload and seed 0-9, the second
set after the first: each set's medians, quartiles and spreads, and for
every end-to-end metric whether its spread and the second set's median
stay within the metric's bound in BENCHMARK.json.  Then two traced runs of
seed 0 per workload (the per-layer metrics, and a check that every count
repeats exactly), and a direct timing of the single calls ROADMAP.md
profiled, for a cross-check.  Each run is its own process, run one after
another.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import spans

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
RUN = HERE / "run.py"
WORKLOADS = ("surface", "phase", "empirical")
SEEDS = range(10)
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    with tempfile.TemporaryDirectory(prefix=".bench-collect-", dir=CHECKOUT) as tmp:
        report = Path(tmp) / "report.json"
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace), "--report", str(report)],
            capture_output=True, text=True, timeout=600, cwd=CHECKOUT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(report.read_text(encoding="utf-8"))
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        raise RuntimeError(f"{workload} seed {seed}: last line has keys {sorted(last)}")
    return result


def spread(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "values": values,
    }


def cross_check() -> dict:
    """Direct timings of the calls ROADMAP.md profiled, with their counts."""
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(CHECKOUT / "src"))
    from ricbounds import asymptotic, empirical

    sample = empirical.sample_gaussian(100, 1000, 0)
    calls = {
        "bt_bounds(0.5, 0.5)": ("asymptotic.bt", lambda: asymptotic.bt_bounds(0.5, 0.5)),
        "bct_bounds(0.5, 0.5)": ("asymptotic.bct", lambda: asymptotic.bct_bounds(0.5, 0.5)),
        "l1_phase_transition(0.5, BT)": (
            "asymptotic.phase", lambda: asymptotic.l1_phase_transition(0.5, "BT")),
        "l1_phase_transition(0.5, BCT)": (
            "asymptotic.phase", lambda: asymptotic.l1_phase_transition(0.5, "BCT")),
        "local_search(n=100, N=1000, k=10, upper, restarts=10)": (
            "empirical.local_search",
            lambda: empirical.local_search(sample, 10, "upper", restarts=10, seed=0)),
    }
    out = {}
    for label, (span_name, call) in calls.items():
        times = []
        for _ in range(3):
            t0 = perf_counter()
            call()
            times.append(perf_counter() - t0)
        tracer = spans.Tracer()
        with spans.installed(tracer):
            call()
        _, evals = spans.inclusive(tracer.spans, span_name, "net_evals")
        _, blocks = spans.inclusive(tracer.spans, span_name, "eig_blocks")
        out[label] = {"ms_untraced_median_of_3": 1e3 * statistics.median(times),
                      "net_evals": evals, "eig_blocks": blocks}
    return out


def agreement(metric: dict, sets: list[dict]) -> dict:
    """Whether two sets of runs of one end-to-end metric agree: each set's
    spread within the metric's bound (setup_s exempt, as its spread is the
    machine's), and the second median not worse than the first by more
    than the bound."""
    bound = metric["bound"]
    first, second = sets[0]["median"], sets[1]["median"]
    worse = (second - first) / first if metric["better"] == "lower" else (first - second) / first
    return {
        "bound": bound,
        "spreads_within": metric["name"] == "setup_s" or all(s["spread"] <= bound for s in sets),
        "second_median_change": worse,
        "medians_within": worse <= bound,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    bench = json.loads((CHECKOUT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    runs = {w: [] for w in WORKLOADS}
    for set_no in range(SETS):
        for workload in WORKLOADS:
            for seed in SEEDS:
                r = run_once(workload, seed, seconds, 0)
                runs[workload].append(r)
                print(f"set {set_no} {workload} seed {seed}: {r['end_to_end']}", file=sys.stderr)
    results = {"run_seconds": seconds, "seeds": list(SEEDS), "workloads": {}}
    for workload in WORKLOADS:
        sets = [runs[workload][i * len(SEEDS):(i + 1) * len(SEEDS)] for i in range(SETS)]
        e2e = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            per_set = [spread([r["end_to_end"][name] for r in s]) for s in sets]
            e2e[name] = {"sets": per_set, "agreement": agreement(metric, per_set)}
        traced = [run_once(workload, SEEDS[0], seconds, 1) for _ in range(2)]
        layers = [t["per_layer"] for t in traced]
        results["workloads"][workload] = {
            "end_to_end": e2e,
            "correct": all(r["correct"] for r in runs[workload] + traced),
            "attempted": [r["attempted"] for r in runs[workload]],
            "failed": [r["failed"] for r in runs[workload]],
            "passes": [r["passes"] for r in runs[workload]],
            "tail": runs[workload][0]["tail"],
            "failures_first_seed": runs[workload][0]["failures"],
            "problems": [p for r in runs[workload] + traced for p in r["problems"]],
            "per_layer": layers[0],
            "per_layer_second_run": layers[1],
            "counts_repeat_exactly": all(
                layers[0][name] == layers[1][name]
                for name in layers[0]
                if spans.is_count(name) and name != "trace.overhead_s"
            ),
        }
        results["machine"] = runs[workload][0]["machine"]
    results["cross_check"] = cross_check()
    args.out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
