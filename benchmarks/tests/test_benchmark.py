"""Tests of the benchmark's own code.

    python3 -m pytest benchmarks/tests -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


# --- tail percentile rule -------------------------------------------------


@pytest.mark.parametrize(
    "n, level",
    [(19, None), (20, 500), (39, 500), (40, 750), (99, 750), (100, 900),
     (199, 900), (200, 950), (999, 950), (1000, 990), (10000, 999)],
)
def test_tail_level_leaves_ten_samples_beyond(n, level):
    assert run.tail_level(n) == level
    if level is not None:
        assert n - run._rank(n, level) >= run.TAIL_MIN_BEYOND


def test_percentile_is_nearest_rank():
    values = [float(i) for i in range(1, 101)]
    assert run.percentile(values, 500) == 50.0
    assert run.percentile(values, 900) == 90.0
    assert run.percentile(values, 999) == 100.0
    assert run.percentile([3.0], 500) == 3.0


def test_workload_tail_levels():
    def level(workload):
        return run.tail_level(run.MIN_PASSES * workloads.primary_per_pass(workload))

    assert level("surface") == 950
    assert level("phase") == 750
    assert level("empirical") == 950


# --- machine-speed scaling ------------------------------------------------


def test_speed_scale_takes_times_to_the_reference_speed():
    ref = workloads.CALIBRATION_REF_S
    assert workloads.speed_scale([ref, ref]) == pytest.approx(1.0)
    # A machine at half speed takes twice as long for the kernel.
    assert workloads.speed_scale([2 * ref, 2 * ref]) == pytest.approx(0.5)
    assert workloads.speed_scale([1.5 * ref, 2.5 * ref]) == pytest.approx(0.5)


def test_op_scales_use_the_kernel_runs_on_either_side():
    ref = workloads.CALIBRATION_REF_S
    assert workloads.op_scales([ref, ref, 3 * ref]) == pytest.approx([1.0, 0.5])


def test_calibration_brackets_each_op_outside_its_timing(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(workloads, "perf_counter", lambda: float(next(ticks)))
    monkeypatch.setattr(workloads, "_calibration_kernel", lambda: None)
    p = workloads.Pass()
    p.calibrations.append(workloads.calibrate())
    p.op("a", True, lambda: (None, {}))
    p.op("b", False, lambda: (None, {}))
    # Each op and each calibration run spans one tick of the fake clock.
    assert [r.seconds for r in p.results] == [1.0, 1.0]
    assert p.calibrations == [1.0, 1.0, 1.0]
    assert p.scale == pytest.approx(workloads.CALIBRATION_REF_S)


# --- self time ------------------------------------------------------------


def _span(name, start, end, parent=None):
    s = spans.Span(name, start, parent, None, {})
    s.end = end
    return s


def test_self_time_of_nested_spans():
    tree = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("a.child", 2.0, 3.0, parent=1),
        _span("b", 5.0, 6.0, parent=0),
    ]
    assert spans.self_times(tree) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_self_time_merges_overlap_and_clips_to_parent():
    tree = [
        _span("root", 0.0, 10.0),
        _span("x", 1.0, 4.0, parent=0),
        _span("y", 3.0, 7.0, parent=0),
        _span("z", 9.0, 12.0, parent=0),
    ]
    # Covered: [1, 7] and [9, 10].
    assert spans.self_times(tree)[0] == pytest.approx(3.0)


def test_layer_summary_counts_own_work_only():
    tracer = spans.Tracer()
    op = tracer.open("op")
    root = tracer.open("asymptotic.optimize_gamma")
    tracer.count("net_evals", 2)
    child = tracer.open("asymptotic.solve_lambda")
    tracer.count("net_evals", 5)
    tracer.close(child)
    tracer.close(root)
    tracer.close(op)
    summary = spans.layer_summary(tracer.spans, primary_ops=1)
    assert summary["rates.net_evals"] == 7
    assert summary["asymptotic.solve_lambda.evals_per_root"] == 5
    assert summary["asymptotic.optimize_gamma.roots_per_call"] == 1


# --- tolerances -------------------------------------------------------------


def test_close_relative_and_floor():
    assert checks.close(1.0, 1.0 + 0.5e-12, checks.RESIDUAL_TOL)
    assert not checks.close(1.0, 1.0 + 2e-12, checks.RESIDUAL_TOL)
    assert checks.close(0.0, 5e-13, checks.RESIDUAL_TOL, 1e-12)
    assert checks.close(-math.inf, -math.inf, 1e-12)
    assert not checks.close(math.nan, math.nan, 1e-12)


def _bound(**changes):
    rec = {"L": 0.75, "U": 2.5, "lambda_max": 3.5, "log_lambda_min": math.log(0.25),
           "gamma_min": 0.6, "gamma_max": 0.55, "nu_opt": None}
    rec.update(changes)
    return rec


def test_bound_matches_uses_each_fields_tolerance():
    ref = _bound()
    assert checks.bound_matches(ref, _bound(lambda_max=3.5 * (1 + 0.5e-12))) == []
    assert checks.bound_matches(ref, _bound(lambda_max=3.5 * (1 + 3e-12)))
    assert checks.bound_matches(ref, _bound(gamma_min=0.6 * (1 + 0.5e-10))) == []
    assert checks.bound_matches(ref, _bound(gamma_min=0.6 * (1 + 3e-10)))
    assert checks.bound_matches(ref, _bound(nu_opt=0.7))


def test_rho_star_and_tail_tolerances():
    assert checks.rho_star_matches(0.003, 0.003 + 1.5e-8)
    assert not checks.rho_star_matches(0.003, 0.003 + 3e-8)
    tol = checks.tail_log_tol(n=800, N=8000, epsilon=0.1, value=-10.0)
    assert tol == pytest.approx(2 * 8000 * 1e-12 + 82 * 1e-10 + 1e-9)


def test_judge_treats_known_defects_and_fixes():
    def invariants(got):
        return [] if got["v"] > 0 else ["invariant broken"]

    def matches(want, got):
        return [] if want["v"] == got["v"] else ["mismatch"]

    judge = workloads._judge
    err = {"error": "SolverError"}
    assert judge(err, dict(err), invariants, matches) == []  # known defect still there
    assert judge(err, {"v": 1.0}, invariants, matches) == []  # fixed, invariants hold
    assert judge(err, {"v": -1.0}, invariants, matches)  # "fixed" to a wrong value
    assert judge({"v": 1.0}, dict(err), invariants, matches)  # new failure
    assert judge(err, {"error": "DomainError"}, invariants, matches)  # other error type
    assert judge({"v": 1.0}, {"v": 2.0}, invariants, matches) == ["mismatch"]
    # No reference: a known-defect input is counted as failed only, any other error is a problem.
    assert judge(None, dict(err), invariants, matches, known=True) == []
    assert judge(None, dict(err), invariants, matches)


def test_known_defect_regions():
    assert checks.known_point_failure("BT", 0.3, 1 - 1e-5, "SolverError")
    assert not checks.known_point_failure("BT", 0.3, 0.97, "SolverError")
    assert not checks.known_point_failure("BCT", 0.3, 1 - 1e-5, "SolverError")
    assert not checks.known_point_failure("BT", 0.3, 1 - 1e-5, "DomainError")
    tail = {"k": 194, "n": 200, "N": 2000, "epsilon": 1e-3}
    assert checks.known_tail_failure("lower", tail, "DomainError")
    assert not checks.known_tail_failure("upper", tail, "DomainError")
    assert not checks.known_tail_failure("lower", dict(tail, k=100), "DomainError")


def test_surface_known_defects_are_the_same_count_for_every_seed():
    """Every rho -> 1 edge point and top-stratum lower tail is a known-defect
    input, and nothing else is, so ok_frac does not depend on the seed."""
    for seed in (0, 7):
        inputs = workloads.make_inputs("surface", seed)
        edge = [r for _, r in inputs["points"] if r > checks.KNOWN_BT_RHO]
        top = [t for t in inputs["tails"] if t["k"] / t["n"] >= checks.KNOWN_TAIL_K_FRAC]
        assert len(edge) == workloads.EDGE_POINTS
        assert len(top) == len(workloads.TAIL_SIZES)


def test_root_invariants_catch_a_perturbed_root():
    from ricbounds import asymptotic

    b = workloads._bound_record(asymptotic.bt_bounds(0.5, 0.5))
    assert checks.bound_invariants("BT", 0.5, 0.5, b) == []
    bad = dict(b, lambda_max=b["lambda_max"] * (1 + 1e-9), U=b["U"] + b["lambda_max"] * 1e-9)
    assert checks.bound_invariants("BT", 0.5, 0.5, bad)


# --- inputs -----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_gives_identical_inputs(workload):
    a = workloads.make_inputs(workload, 3)
    assert a == workloads.make_inputs(workload, 3)
    assert a != workloads.make_inputs(workload, 4)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_match_the_committed_reference(workload):
    for seed in checks.reference_seeds(workload):
        ref = checks.load_reference(workload, seed)
        assert json.loads(json.dumps(workloads.make_inputs(workload, seed))) == ref["inputs"]


def test_surface_reaches_every_edge():
    points = workloads.make_inputs("surface", 0)["points"]
    assert min(d for d, _ in points) <= 1e-3
    assert max(d for d, _ in points) >= 1 - 1e-3
    assert min(r for _, r in points) <= 1e-3
    assert max(r for _, r in points) >= 1 - 1e-3


# --- wrappers ---------------------------------------------------------------


def test_wrappers_install_and_restore_originals():
    from ricbounds import asymptotic

    snapshot = spans.originals()
    tracer = spans.Tracer()
    with spans.installed(tracer):
        assert asymptotic.bt_bounds is not snapshot[("ricbounds.asymptotic", "bt_bounds")]
        with tracer.span("op", op_id="test"):
            asymptotic.bt_bounds(0.5, 0.5)
    spans.assert_unwrapped(snapshot)
    names = {s.name for s in tracer.spans}
    assert {"asymptotic.bt", "asymptotic.optimize_gamma", "asymptotic.solve_lambda"} <= names
    assert tracer.totals["net_evals"] > 0


def test_a_missing_wrap_target_is_an_error(monkeypatch):
    from ricbounds import asymptotic

    monkeypatch.delattr(asymptotic, "solve_lambda_max")
    with pytest.raises(AttributeError):
        spans.originals()
    with pytest.raises(AttributeError):
        with spans.installed(spans.Tracer()):
            pass


def test_wrappers_restore_after_an_exception():
    snapshot = spans.originals()
    with pytest.raises(KeyError):
        with spans.installed(spans.Tracer()):
            raise KeyError("boom")
    spans.assert_unwrapped(snapshot)


def test_assert_unwrapped_detects_a_leftover_wrapper():
    from ricbounds import asymptotic

    snapshot = spans.originals()
    original = asymptotic.ct_bounds
    asymptotic.ct_bounds = lambda d, r: original(d, r)
    try:
        with pytest.raises(RuntimeError):
            spans.assert_unwrapped(snapshot)
    finally:
        asymptotic.ct_bounds = original


def test_traced_counts_repeat_exactly():
    from ricbounds import asymptotic

    def traced():
        tracer = spans.Tracer()
        with spans.installed(tracer), tracer.span("op", op_id="p"):
            asymptotic.bct_bounds(0.3, 0.2)
        return spans.layer_summary(tracer.spans, 1)

    a, b = traced(), traced()
    assert {k: v for k, v in a.items() if spans.is_count(k)} == {
        k: v for k, v in b.items() if spans.is_count(k)}
    assert a["asymptotic.bct.roots_per_point"] > 0


# --- passes start from a fresh interpreter --------------------------------

_MEMO_LAUNCHER = """
import atexit, functools, runpy, sys
sys.path[:0] = [{bench!r}, {src!r}]
from ricbounds import asymptotic
asymptotic.compute_bounds = functools.lru_cache(maxsize=None)(asymptotic.compute_bounds)

def report():
    info = asymptotic.compute_bounds.cache_info()
    with open({log!r}, "a") as fh:
        fh.write(f"{{info.hits}} {{info.misses}}\\n")

atexit.register(report)
sys.argv = sys.argv[1:]  # the path of run.py, then its arguments
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def test_a_memoised_library_gains_nothing_across_passes(tmp_path, monkeypatch):
    """A library cache must not serve later passes: each pass is a fresh
    process, so wall_s stays the time a user would wait."""
    log = tmp_path / "cache.log"
    launcher = tmp_path / "launcher.py"
    launcher.write_text(_MEMO_LAUNCHER.format(
        bench=str(BENCH), src=str(BENCH.parent / "src"), log=str(log)))
    monkeypatch.setattr(run, "PYTHON", [sys.executable, str(launcher)])
    result = run.run("surface", 0, seconds=0.0, trace=False)
    assert result["correct"], result["problems"]
    used = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
    used = [(hits, misses) for hits, misses in used if misses]
    assert len(used) == result["passes"] == run.MIN_PASSES
    assert all(hits == 0 for hits, _ in used)
    assert min(result["walls"]) > 0.5 * max(result["walls"])
