"""Benchmark runner for ricbounds.

    python3 benchmarks/run.py --workload surface --seed 0 --seconds 30 --trace 0

Runs one workload for about --seconds seconds, one pass after another,
each pass in a fresh interpreter on one thread; checks every output and
prints the metrics by name and unit.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics
of a traced run (see README.md in this directory).
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy can be imported: the library is
# single-threaded Python and the machine the baseline was taken on has two
# cores, so BLAS threads would only add contention.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"

PYTHON = [sys.executable]
# Every run makes at least this many passes, whatever --seconds says, and
# takes its tail level from that many passes' primary ops.
MIN_PASSES = 4
# setup_s is the median of at least this many fresh interpreters, each
# timed against this many calibration runs before its imports and as many
# after.
SETUP_MIN = 15
SETUP_CALIBRATIONS = 4
WORKER_TIMEOUT_S = 120
# Percentile ladder in per mille; the tail is the highest level that
# leaves at least TAIL_MIN_BEYOND samples beyond it.
TAIL_LADDER = (500, 750, 900, 950, 990, 999)
TAIL_MIN_BEYOND = 10

END_TO_END = [
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
]


def _rank(n: int, per_mille: int) -> int:
    """1-based nearest rank of the per-mille percentile of n samples."""
    return -(-n * per_mille // 1000)


def tail_level(n: int) -> int | None:
    """Highest ladder percentile (per mille) with at least TAIL_MIN_BEYOND
    of n samples strictly beyond its nearest rank; None if none has."""
    best = None
    for level in TAIL_LADDER:
        if n - _rank(n, level) >= TAIL_MIN_BEYOND:
            best = level
    return best


def percentile(sorted_values: list[float], per_mille: int) -> float:
    """Nearest-rank percentile of already sorted values."""
    return sorted_values[_rank(len(sorted_values), per_mille) - 1]


def machine_info() -> dict:
    from importlib.metadata import version

    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# --- workers ----------------------------------------------------------------
#
# Every pass runs in a fresh interpreter, as a user's CLI call would, so no
# pass inherits state (a cache, a warm start) from an earlier one.  The
# worker prints one JSON line; the parent checks and summarises.


def worker(kind: str, workload: str, seed: int, trace: bool, spans_out: Path | None) -> None:
    """Child side.  kind "setup" stops where the first op would start;
    kind "pass" goes on to run one pass of the workload.  Calibration runs
    before the imports and after the first op's start time them against
    the machine's speed during set-up."""
    import workloads

    t0 = time.perf_counter()
    calibrations = [workloads.calibrate() for _ in range(SETUP_CALIBRATIONS)]
    before = time.perf_counter() - t0
    import ricbounds  # noqa: F401
    import ricbounds.cli  # noqa: F401
    import spans

    inputs = workloads.make_inputs(workload, seed)
    snapshot = spans.originals()
    out = {"first_op": time.clock_gettime(time.CLOCK_MONOTONIC), "calibration_s": before}
    calibrations += [workloads.calibrate() for _ in range(SETUP_CALIBRATIONS)]
    out["setup_scale"] = workloads.speed_scale(calibrations)
    if kind == "pass":
        if trace:
            tracer = spans.Tracer()
            with spans.installed(tracer):
                p = workloads.run_pass(workload, inputs, seed, tracer)
            layers = spans.layer_summary(tracer.spans, workloads.primary_per_pass(workload))
            out["layers"] = {k: v if spans.is_count(k) else v * p.scale for k, v in layers.items()}
            if spans_out is not None:
                spans_out.write_text(json.dumps([s.as_dict() for s in tracer.spans]), encoding="utf-8")
        else:
            p = workloads.run_pass(workload, inputs, seed)
        spans.assert_unwrapped(snapshot)
        out["pass"] = p.to_json()
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))


def spawn(kind: str, workload: str, seed: int, trace: bool = False,
          spans_out: Path | None = None) -> dict:
    """Run one worker; its result plus setup_s, the seconds from spawning
    it to its first op on the system-wide monotonic clock, less its
    calibration runs, at the reference speed."""
    argv = PYTHON + [str(Path(__file__).resolve()), "--worker", kind, "--workload", workload,
                     "--seed", str(seed), "--trace", str(int(trace))]
    if spans_out is not None:
        argv += ["--spans-out", str(spans_out)]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{kind} worker for {workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = (out["first_op"] - t0 - out["calibration_s"]) * out["setup_scale"]
    return out


# --- the run ------------------------------------------------------------------


def scaled_ops(w: dict) -> list[tuple[bool, float]]:
    """(primary, seconds) of each op of a worker's pass, at the reference
    speed."""
    import workloads

    p = w["pass"]
    scales = workloads.op_scales(p["calibrations"])
    return [(primary, secs * scale)
            for (_, primary, secs, _), scale in zip(p["results"], scales, strict=True)]


def wall(w: dict) -> float:
    """Time of all of a pass's ops, at the reference speed."""
    return sum(secs for _, secs in scaled_ops(w))


def _failures(p) -> list[str]:
    lines = []
    for r in p.results:
        if "error" in r.record:
            lines.append(f"{r.key}: {r.record['error']}")
        for part, value in r.record.items():
            if isinstance(value, dict) and "error" in value:
                lines.append(f"{r.key} {part}: {value['error']}")
        lines += [f"{r.key}: CHECK {m}" for m in r.problems]
    return lines


def run(workload: str, seed: int, seconds: float, trace: bool,
        spans_out: Path | None = None) -> dict:
    import checks
    import spans
    import workloads

    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.perf_counter()
    last = 0.0
    while len(untraced) < MIN_PASSES or time.perf_counter() - start + last <= seconds:
        t_round = time.perf_counter()
        untraced.append(spawn("pass", workload, seed))
        if trace:
            traced.append(spawn("pass", workload, seed, True, None if traced else spans_out))
        last = time.perf_counter() - t_round
    setups = [w["setup_s"] for w in untraced]
    while len(setups) < SETUP_MIN:
        setups.append(spawn("setup", workload, seed)["setup_s"])

    # Checks run here, outside every timed pass.
    inputs = workloads.make_inputs(workload, seed)
    reference = checks.load_reference(workload, seed)
    problems: list[str] = []
    if reference is not None and json.loads(json.dumps(inputs)) != reference["inputs"]:
        problems.append(f"inputs differ from {checks.reference_path(workload, seed).name}")
        reference = None
    first = workloads.Pass.from_json(untraced[0]["pass"])
    workloads.check_pass(workload, inputs, first, reference)
    problems += [f"{r.key}: {m}" for r in first.results for m in r.problems]
    want = workloads.records(first)
    for i, w in enumerate(untraced[1:] + traced, start=1):
        if workloads.records(workloads.Pass.from_json(w["pass"])) != want:
            problems.append(f"pass {i}{' (traced)' if w in traced else ''} gave outputs other than pass 0's")

    walls = [wall(w) for w in untraced]
    latencies = sorted(secs for w in untraced for primary, secs in scaled_ops(w) if primary)
    level = tail_level(MIN_PASSES * workloads.primary_per_pass(workload))
    failed_per_pass = sum(r.failed for r in first.results)
    passes = len(untraced) + len(traced)
    result = {
        "workload": workload,
        "seed": seed,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "reference": reference is not None,
        "correct": not problems,
        "attempted": passes * len(first.results),
        "failed": passes * failed_per_pass,
        "problems": problems,
        "failures": _failures(first),
        "tail": {
            "percentile": level / 10,
            "samples": len(latencies),
            "beyond": len(latencies) - _rank(len(latencies), level),
        },
        "end_to_end": {
            "wall_s": statistics.median(walls),
            "op_p50_ms": 1e3 * statistics.median(latencies),
            "op_tail_ms": 1e3 * percentile(latencies, level),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(w["rss_mb"] for w in untraced),
            "ok_frac": 1.0 - failed_per_pass / len(first.results),
        },
        "setup_samples": setups,
        "walls": walls,
        "raw_walls": [sum(r[2] for r in w["pass"]["results"]) for w in untraced],
        "machine": machine_info(),
    }
    if trace:
        layers = [w["layers"] for w in traced]
        counts = layers[0]
        if any(spans.is_count(k) and layer[k] != counts[k] for layer in layers for k in counts):
            problems.append("a count differs between traced passes")
            result["correct"] = False
        result["per_layer"] = {
            name: (counts[name] if spans.is_count(name)
                   else statistics.median(layer[name] for layer in layers))
            for name, _ in spans.LAYER_METRICS
        }
        traced_walls = [wall(w) for w in traced]
        result["traced_walls"] = traced_walls
        result["per_layer"]["trace.overhead_s"] = (
            statistics.median(traced_walls) - statistics.median(walls))
    return result


def _print_report(result: dict, trace: bool) -> None:
    import spans

    print(f"workload {result['workload']} seed {result['seed']}: {result['passes']} passes"
          f" and {result['traced_passes']} traced, each in a fresh interpreter, "
          f"{result['attempted']} ops attempted, {result['failed']} failed, "
          f"reference {'checked' if result['reference'] else 'absent (invariants only)'}")
    if trace:
        for name, unit in spans.LAYER_METRICS + [("trace.overhead_s", "s")]:
            print(f"  {name:<42} {result['per_layer'][name]:.6g} {unit}")
    else:
        e2e = result["end_to_end"]
        t = result["tail"]
        for name, unit in END_TO_END:
            extra = ""
            if name == "op_tail_ms":
                extra = f"  (p{t['percentile']:g} of {t['samples']} samples, {t['beyond']} beyond)"
            if name == "ok_frac":
                extra = f"  (failed_frac {1.0 - e2e[name]:.6g})"
            print(f"  {name:<12} {e2e[name]:.6g} {unit}{extra}")
    print(f"failed ops of each pass ({len(result['failures'])}):")
    for line in result["failures"]:
        print(f"  {line}")
    for line in result["problems"][:20]:
        print(f"  PROBLEM {line}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("surface", "phase", "empirical"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", type=Path, help="also write the full result as JSON here")
    parser.add_argument("--spans-out", type=Path, help="write the first traced pass's spans here")
    parser.add_argument("--worker", choices=("setup", "pass"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ricbounds" / "__init__.py").is_file():
        print(f"error: no ricbounds package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    spans_out = args.spans_out.resolve() if args.spans_out is not None else None
    if args.worker:
        worker(args.worker, args.workload, args.seed, trace, spans_out)
        return 0

    result = run(args.workload, args.seed, args.seconds, trace, spans_out)
    _print_report(result, trace)
    if args.report is not None:
        args.report.write_text(json.dumps(result, indent=1, allow_nan=True), encoding="utf-8")

    if trace:
        import spans

        units = dict(spans.LAYER_METRICS + [("trace.overhead_s", "s")])
        values = result["per_layer"]
    else:
        units = dict(END_TO_END)
        values = result["end_to_end"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        if not math.isfinite(m["value"]):
            print(f"error: metric {name} is not finite", file=sys.stderr)
            return 1
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
