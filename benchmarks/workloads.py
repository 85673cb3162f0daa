"""The three workloads: their seeded inputs, the ops they run, and the
checks on every output.

A seed's inputs come from random.Random("<workload>:<seed>"), so one seed
always gives the same inputs.  Each pass runs them once, in a fresh
interpreter (see run.py); every pass must give identical outputs.

Within a pass no op repeats another's inputs: the CLI calls sweep inputs
of their own, and the library results they are checked against are
computed by the checker, outside the timed pass.  A library that keeps
state between calls therefore gains nothing a user running the same
commands would not gain.

Ops call the library through module attributes (asymptotic.bt_bounds,
not ricbounds.bt_bounds), so that the traced run sees every call.
"""

from __future__ import annotations

import csv
import json
import math
import random
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import checks

WORKLOADS = ("surface", "phase", "empirical")

# surface: STRATA x STRATA interior points, one jittered point in each cell
# of a split of INTERIOR_DELTA x INTERIOR_RHO, and EDGE_POINTS points within
# 1e-3 of each edge of the unit square, one per EDGE_POINTS-th of the edge.
# Stratified draws keep the mix of cheap and costly points nearly the same
# for every seed.  The ranges keep the known BT SolverError (see checks.py)
# to the rho -> 1 edge, where every point has it: each seed fails the same
# number of ops.  The CLI sweeps a GRID_STEPS x GRID_STEPS grid of its own.
GRID_STEPS = 5
STRATA = 6
INTERIOR_DELTA = (1e-3, 1 - 1e-3)
INTERIOR_RHO = (1e-3, 0.97)
EDGE_POINTS = 10
# Along the delta edges rho stays below the corner where BT fails.
DELTA_EDGE_RHO = (1e-3, 0.9)
# log10 of the distance to the edge; the rho -> 1 edge sits closer so
# that BT fails at all of its points.
EDGE_LOG_DIST = (-6.0, -3.0)
RHO_ONE_LOG_DIST = (-6.0, -5.0)
FAMILIES = ("BT", "BCT", "CT")
TAIL_SIZES = (200, 400, 800)
# One k/n per stratum and size.  The last stratum is the known lower-tail
# DomainError where gamma collapses onto rho, for every n/N drawn.
TAIL_K_STRATA = ((0.01, 0.1), (0.1, 0.4), (0.4, 0.8), (0.97, 0.98))

# phase: PHASE_DELTAS deltas, one jittered in each PHASE_DELTAS-th of
# [PHASE_DELTA_MIN, PHASE_DELTA_MAX]; each is one primary op, BT then BCT.
# The CLI sweeps PHASE_CLI_STEPS deltas of its own.
PHASE_DELTAS = 10
PHASE_CLI_STEPS = 2
PHASE_DELTA_MIN, PHASE_DELTA_MAX = 0.05, 0.9524
PHASE_FAMILIES = ("BT", "BCT")

# empirical
EMP_N = 100
EMP_SIZES = (200, 500, 1000)
EMP_KS = (2, 5, 10)
EMP_MATRICES = 3
EMP_RESTARTS = 2
# The CLI's k is fixed: its cost grows steeply with k, and a seeded choice
# would make one seed's pass a quarter slower than another's.
EMP_CLI_K = 5
TINY_CELLS = [(n, N, k) for n in (6, 8) for N in (10, 12) for k in (2, 3)]
TINY_RESTARTS = 4
COVER = {"N": 12, "k": 3, "m": 6}
COVER_TRIALS = 10

# CLI outputs go to a temporary directory at the root of the checkout.
CHECKOUT = Path(__file__).resolve().parents[1]

_EXIT_ERRORS = {2: "DomainError", 3: "SolverError", 4: "GuardError", 5: "IOFailure"}


def linspace(lo: float, hi: float, steps: int) -> list[float]:
    """The CLI's own grid rule, so its rows line up with the checker's."""
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def primary_per_pass(workload: str) -> int:
    if workload == "surface":
        return STRATA**2 + 4 * EDGE_POINTS
    if workload == "phase":
        return PHASE_DELTAS
    return len(EMP_SIZES) * EMP_MATRICES * len(EMP_KS) * 2


# --- inputs ---------------------------------------------------------------


def make_inputs(workload: str, seed: int) -> dict:
    """JSON-able inputs of a workload; a pure function of its arguments."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "surface":
        return _surface_inputs(rng)
    if workload == "phase":
        return _phase_inputs(rng)
    if workload == "empirical":
        return _empirical_inputs(rng)
    raise ValueError(f"unknown workload {workload!r}")


def _jittered(rng: random.Random, lo: float, hi: float, strata: int) -> list[float]:
    """One uniform draw in each of ``strata`` equal parts of [lo, hi]."""
    width = (hi - lo) / strata
    return [lo + (i + rng.random()) * width for i in range(strata)]


def _surface_inputs(rng: random.Random) -> dict:
    grid = {
        "delta": [rng.uniform(0.05, 0.1), rng.uniform(0.9, 0.95)],
        "rho": [rng.uniform(0.05, 0.1), rng.uniform(0.9, 0.95)],
    }
    # Each point is drawn on its own in its cell: a shared rho per row would
    # give a seed a whole row of costly points at once.
    points = []
    for i in range(STRATA):
        rhos = _jittered(rng, *INTERIOR_RHO, STRATA)
        deltas = _jittered(rng, *INTERIOR_DELTA, STRATA)
        points += [[deltas[j], rhos[j]] for j in range(STRATA)]
    for edge in range(4):
        along = DELTA_EDGE_RHO if edge < 2 else INTERIOR_DELTA
        log_dist = RHO_ONE_LOG_DIST if edge == 3 else EDGE_LOG_DIST
        for other in _jittered(rng, *along, EDGE_POINTS):
            dist = 10.0 ** rng.uniform(*log_dist)
            near = dist if edge % 2 == 0 else 1.0 - dist
            points.append([near, other] if edge < 2 else [other, near])
    tails = []
    for n in TAIL_SIZES:
        for lo, hi in TAIL_K_STRATA:
            k = round(rng.uniform(lo, hi) * n)
            N = round(n / 10.0 ** rng.uniform(-2.0, math.log10(0.5)))
            eps = 10.0 ** rng.uniform(-4.0, -1.0)
            tails.append({"k": k, "n": n, "N": N, "epsilon": eps})
    return {"grid": grid, "points": points, "tails": tails}


def _phase_inputs(rng: random.Random) -> dict:
    cli_range = [rng.uniform(PHASE_DELTA_MIN, 0.3), rng.uniform(0.7, PHASE_DELTA_MAX)]
    deltas = _jittered(rng, PHASE_DELTA_MIN, PHASE_DELTA_MAX, PHASE_DELTAS)
    return {"cli_range": cli_range, "deltas": deltas}


def _empirical_inputs(rng: random.Random) -> dict:
    matrix_seeds = {str(N): [rng.randrange(2**32) for _ in range(EMP_MATRICES)] for N in EMP_SIZES}
    tiny = [{"n": n, "N": N, "k": k, "seed": rng.randrange(2**32)} for n, N, k in TINY_CELLS]
    return {
        "matrix_seeds": matrix_seeds,
        "tiny": tiny,
        "trial_seeds": [rng.randrange(2**63) for _ in range(COVER_TRIALS)],
        "cli_seed": rng.randrange(2**32),
        "cover_seed": rng.randrange(2**32),
    }


# --- machine speed --------------------------------------------------------
#
# The benchmark was defined on a shared 2-vCPU VM whose speed drifts by up
# to 1.5x over minutes and flickers within seconds, invisibly to the
# process: its CPU time grows with its wall time.  So a pass runs a fixed
# pure-Python kernel before its first op and after every op, outside the
# ops' timing, and its times are reported at the speed at which the kernel
# takes CALIBRATION_REF_S: an op's time is scaled by CALIBRATION_REF_S over
# the mean of the kernel runs just before and just after it, and a traced
# pass's self times by CALIBRATION_REF_S over the kernel's mean time in the
# pass.  Over
# four minutes of surface passes the kernel's time tracked the pass time
# with a correlation of 0.96, and the scaled pass times drifted by 4%
# where the raw ones drifted by 30%.  The kernel lives here, so no change
# to the library can make it faster.
CALIBRATION_REF_S = 0.0006


def _calibration_kernel() -> float:
    acc = 0.0
    for _ in range(4):
        for j in range(12):
            c = 0.1 + 0.05 * j
            lo, hi = 1.0, 10.0
            for _ in range(50):
                mid = 0.5 * (lo + hi)
                if mid * math.log(mid) - c > 0.0:
                    hi = mid
                else:
                    lo = mid
            acc += lo + math.exp(-lo)
    return acc


def calibrate() -> float:
    """Seconds the calibration kernel takes now."""
    t0 = perf_counter()
    _calibration_kernel()
    return perf_counter() - t0


def speed_scale(calibrations: list[float]) -> float:
    """Factor that takes times measured alongside ``calibrations`` to the
    reference speed."""
    return CALIBRATION_REF_S * len(calibrations) / sum(calibrations)


def op_scales(calibrations: list[float]) -> list[float]:
    """Factor for each op of a pass, from the kernel runs on either side."""
    return [speed_scale(calibrations[i:i + 2]) for i in range(len(calibrations) - 1)]


# --- running ops ----------------------------------------------------------


@dataclass
class OpResult:
    key: str
    primary: bool
    seconds: float
    record: dict
    problems: list[str] = field(default_factory=list)

    @property
    def errors(self) -> list[str]:
        """Error type names raised inside this op."""
        if "error" in self.record:
            return [self.record["error"]]
        return [v["error"] for v in self.record.values() if isinstance(v, dict) and "error" in v]

    @property
    def failed(self) -> bool:
        return bool(self.errors or self.problems)


def attempt(call, to_record) -> tuple[object, dict]:
    """Run call(); a RicBoundsError becomes {"error": <type name>}."""
    from ricbounds import RicBoundsError

    try:
        value = call()
    except RicBoundsError as exc:
        return None, {"error": type(exc).__name__}
    return value, to_record(value)


class Pass:
    """Runs and times the ops of one pass; with a tracer, spans each op."""

    def __init__(self, tracer=None, tmpdir: Path | None = None):
        self.tracer = tracer
        self.tmpdir = tmpdir
        self.results: list[OpResult] = []
        # Kernel times: one before the first op, then one after each op.
        self.calibrations: list[float] = []
        self.cli_outputs: dict[str, str] = {}

    def op(self, key: str, primary: bool, run):
        """run() returns (value, record); value is handed back to the caller.
        The op is followed by one calibration run, outside its timing."""
        t0 = perf_counter()
        if self.tracer is None:
            value, record = run()
        else:
            with self.tracer.span("op", op_id=key):
                value, record = run()
        self.results.append(OpResult(key, primary, perf_counter() - t0, record))
        self.calibrations.append(calibrate())
        return value

    @property
    def scale(self) -> float:
        return speed_scale(self.calibrations)

    def cli(self, key: str, seed: int, fmt: str, out_name: str, command: list[str]) -> None:
        """One in-process call of the ricbounds console entry point, with
        only the global options --seed, --format and --out."""
        from ricbounds import cli

        out = self.tmpdir / out_name
        argv = ["--seed", str(seed), "--format", fmt, "--out", str(out)] + command

        def call():
            try:
                return cli.main(argv)
            except SystemExit as exc:
                return exc.code

        def run():
            if self.tracer is None:
                code = call()
            else:
                with self.tracer.span("cli"):
                    code = call()
            if code:
                return None, {"error": _EXIT_ERRORS.get(code, f"exit {code}")}
            return None, {"out": out_name}

        self.op(key, False, run)

    def to_json(self) -> dict:
        return {
            "calibrations": self.calibrations,
            "results": [[r.key, r.primary, r.seconds, r.record] for r in self.results],
            "cli_outputs": self.cli_outputs,
        }

    @classmethod
    def from_json(cls, data: dict) -> "Pass":
        p = cls()
        p.calibrations = data["calibrations"]
        p.results = [OpResult(*r) for r in data["results"]]
        p.cli_outputs = data["cli_outputs"]
        return p


def run_pass(workload: str, inputs: dict, seed: int, tracer=None) -> Pass:
    """Run one pass; returns it with its op results and kernel times."""
    with tempfile.TemporaryDirectory(prefix=".bench-", dir=CHECKOUT) as tmp:
        p = Pass(tracer, Path(tmp))
        p.calibrations.append(calibrate())
        if workload == "surface":
            _surface_pass(p, inputs, seed)
        elif workload == "phase":
            _phase_pass(p, inputs, seed)
        else:
            _empirical_pass(p, inputs)
        # The CLI outputs are read while the directory still exists.
        p.cli_outputs = {
            r.key: (p.tmpdir / r.record["out"]).read_text(encoding="utf-8")
            for r in p.results
            if "out" in r.record
        }
    return p


# --- surface ----------------------------------------------------------------


def _bound_record(b) -> dict:
    rec = {"L": b.L, "U": b.U, "lambda_max": b.lambda_max, "log_lambda_min": b.log_lambda_min}
    # The group ratios a family does not use are None and are left out.
    for key in ("gamma_min", "gamma_max", "nu_opt"):
        if getattr(b, key) is not None:
            rec[key] = getattr(b, key)
    return rec


def _tail_record(tb) -> dict:
    return {
        "side": tb.side,
        "gamma_used": tb.gamma_used,
        "log_lambda_star": tb.log_lambda_star,
        "psi_derivative": tb.psi_derivative,
        "log_eig_term": tb.log_eig_term,
        "log_cover_term": tb.log_cover_term,
        "log_total": tb.log_total,
    }


def point_key(d: float, r: float) -> str:
    return f"point delta={d!r} rho={r!r}"


def tail_key(t: dict, side: str) -> str:
    return f"tail {side} k={t['k']} n={t['n']} N={t['N']} eps={t['epsilon']!r}"


def _surface_pass(p: Pass, inputs: dict, seed: int) -> None:
    from ricbounds import asymptotic, finite

    # Every op closure runs at once inside p.op, so loop variables are
    # read before they change.
    for d, r in inputs["points"]:
        def point():
            record = {}
            for fam in FAMILIES:
                _, record[fam] = attempt(lambda: asymptotic.compute_bounds(fam, d, r), _bound_record)
            return None, record

        p.op(point_key(d, r), True, point)
    for t in inputs["tails"]:
        inst = finite.FiniteInstance(k=t["k"], n=t["n"], N=t["N"], epsilon=t["epsilon"])
        p.op(tail_key(t, "upper"), False,
             lambda: attempt(lambda: finite.tail_prob_upper(inst), _tail_record))
        p.op(tail_key(t, "lower"), False,
             lambda: attempt(lambda: finite.tail_prob_lower(inst), _tail_record))
    (d_lo, d_hi), (r_lo, r_hi) = inputs["grid"]["delta"], inputs["grid"]["rho"]
    p.cli("cli grid", seed, "csv", "grid.csv", [
        "grid",
        "--delta-min", repr(d_lo), "--delta-max", repr(d_hi), "--delta-steps", str(GRID_STEPS),
        "--rho-min", repr(r_lo), "--rho-max", repr(r_hi), "--rho-steps", str(GRID_STEPS),
        "--families", ",".join(FAMILIES),
    ])


def _check_surface(inputs: dict, p: Pass, ref: dict | None) -> None:
    from ricbounds import asymptotic

    by_key = {r.key: r for r in p.results}
    refs = (ref or {}).get("records", {})
    for d, r in inputs["points"]:
        res = by_key[point_key(d, r)]
        for fam in FAMILIES:
            got, want = res.record[fam], refs.get(res.key, {}).get(fam)
            res.problems += [f"{fam}: {m}" for m in _judge(
                want, got,
                lambda g: checks.bound_invariants(fam, d, r, g),
                lambda w, g: checks.bound_matches(w, g),
                known=checks.known_point_failure(fam, d, r, got.get("error")),
            )]
    for t in inputs["tails"]:
        for side in ("upper", "lower"):
            res = by_key[tail_key(t, side)]
            res.problems += _judge(
                refs.get(res.key), res.record,
                lambda g: checks.tail_invariants(t, g),
                lambda w, g: checks.tail_matches(t, w, g),
                known=checks.known_tail_failure(side, t, res.record.get("error")),
            )
    # The CLI grid, family by family, against the library at the same points.
    res = by_key["cli grid"]
    grid = inputs["grid"]
    grid_points = [(d, r) for d in linspace(*grid["delta"], GRID_STEPS)
                   for r in linspace(*grid["rho"], GRID_STEPS)]
    lib = {}
    for fam in FAMILIES:
        for d, r in grid_points:
            _, lib[fam, d, r] = attempt(lambda: asymptotic.compute_bounds(fam, d, r), _bound_record)
            if "error" not in lib[fam, d, r]:
                res.problems += [f"library {fam} at grid ({d!r}, {r!r}): {m}" for m in
                                 checks.bound_invariants(fam, d, r, lib[fam, d, r])]
    expect_error = {rec.get("error") for rec in lib.values()} - {None}
    if "error" in res.record:
        if res.record["error"] not in expect_error:
            res.problems.append(f"grid failed with {res.record['error']}; library raised {expect_error or 'nothing'}")
        return
    if expect_error:
        res.problems.append(f"grid succeeded where the library raised {expect_error}")
        return
    rows = list(csv.DictReader(p.cli_outputs[res.key].splitlines()))
    if len(rows) != len(FAMILIES) * len(grid_points):
        res.problems.append(f"grid wrote {len(rows)} rows")
        return
    for i, row in enumerate(rows):
        fam = FAMILIES[i // len(grid_points)]
        d, r = grid_points[i % len(grid_points)]
        want = lib[fam, d, r]
        if row["family"] != fam or not (
            checks.close(float(row["delta"]), d, 1e-15) and checks.close(float(row["rho"]), r, 1e-15)
        ):
            res.problems.append(f"grid row {i} is {row['family']} {row['delta']} {row['rho']}")
            continue
        csv_rec = {k: float(row[k]) for k in
                   ("L", "U", "lambda_max", "gamma_min", "gamma_max", "nu_opt") if row[k] != ""}
        csv_rec["log_lambda_min"] = want["log_lambda_min"]
        res.problems += [f"grid row {i}: {m}" for m in checks.bound_matches(want, csv_rec)]


# --- phase ------------------------------------------------------------------


def phase_key(d: float) -> str:
    return f"phase delta={d!r}"


def _phase_pass(p: Pass, inputs: dict, seed: int) -> None:
    from ricbounds import asymptotic

    for d in inputs["deltas"]:
        def curve_point():
            record = {}
            for fam in PHASE_FAMILIES:
                _, record[fam] = attempt(lambda: asymptotic.l1_phase_transition(d, fam),
                                         lambda rho: {"rho_star": rho})
            return None, record

        p.op(phase_key(d), True, curve_point)
    lo, hi = inputs["cli_range"]
    p.cli("cli phase", seed, "csv", "phase.csv", [
        "phase",
        "--delta-steps", str(PHASE_CLI_STEPS), "--delta-min", repr(lo), "--delta-max", repr(hi),
        "--families", ",".join(PHASE_FAMILIES),
    ])


def _phase_invariants(d: float, fam: str, rec: dict) -> list[str]:
    from ricbounds import asymptotic

    rho = rec["rho_star"]
    if not (math.isfinite(rho) and 0.0 < rho < 1.0):
        return [f"rho_star {rho!r} outside (0, 1)"]
    b = asymptotic.compute_bounds(fam, d, rho)
    if not max(b.L, b.U) < checks.L1_THRESHOLD:
        return [f"max(L, U) at rho_star is {max(b.L, b.U)!r}, not below sqrt(2) - 1"]
    return []


def _check_phase(inputs: dict, p: Pass, ref: dict | None) -> None:
    from ricbounds import asymptotic

    def rho_star_problems(w, g):
        if checks.rho_star_matches(w["rho_star"], g["rho_star"]):
            return []
        return [f"rho_star {g['rho_star']!r} != reference {w['rho_star']!r}"]

    by_key = {r.key: r for r in p.results}
    refs = (ref or {}).get("records", {})
    for d in inputs["deltas"]:
        res = by_key[phase_key(d)]
        for fam in PHASE_FAMILIES:
            res.problems += [f"{fam}: {m}" for m in _judge(
                refs.get(res.key, {}).get(fam), res.record[fam],
                lambda g: _phase_invariants(d, fam, g), rho_star_problems,
            )]
    # The CLI curve against the library at the same deltas.
    res = by_key["cli phase"]
    cli_deltas = linspace(*inputs["cli_range"], PHASE_CLI_STEPS)
    lib = {}
    for fam in PHASE_FAMILIES:
        for d in cli_deltas:
            _, lib[fam, d] = attempt(lambda: asymptotic.l1_phase_transition(d, fam),
                                     lambda rho: {"rho_star": rho})
            if "error" not in lib[fam, d]:
                res.problems += [f"library {fam} at delta {d!r}: {m}"
                                 for m in _phase_invariants(d, fam, lib[fam, d])]
    expect_error = {rec.get("error") for rec in lib.values()} - {None}
    if "error" in res.record or expect_error:
        if res.record.get("error") not in expect_error:
            res.problems.append(f"phase CLI outcome {res.record} vs library errors {expect_error}")
        return
    rows = list(csv.DictReader(p.cli_outputs[res.key].splitlines()))
    if len(rows) != len(PHASE_FAMILIES) * len(cli_deltas):
        res.problems.append(f"phase wrote {len(rows)} rows")
        return
    for i, row in enumerate(rows):
        fam, d = PHASE_FAMILIES[i // len(cli_deltas)], cli_deltas[i % len(cli_deltas)]
        want = lib[fam, d]["rho_star"]
        if row["family"] != fam or not checks.close(float(row["delta"]), d, 1e-15):
            res.problems.append(f"phase row {i} is {row['family']} {row['delta']}")
        elif not checks.rho_star_matches(want, float(row["rho_star"])):
            res.problems.append(f"phase row {i}: rho_star {row['rho_star']} != library {want!r}")


# --- empirical ----------------------------------------------------------------


def _run_record(run) -> dict:
    return {
        "best_support": list(run.best_support),
        "extreme_eig": run.extreme_eig,
        "estimate": run.estimate,
        "swaps_taken": run.swaps_taken,
        "restarts": run.restarts,
    }


def _sample_record(sample) -> dict:
    return {"shape": list(sample.entries.shape), "sum": float(sample.entries.sum())}


def ls_key(n: int, N: int, k: int, mode: str, seed: int) -> str:
    return f"local_search n={n} N={N} k={k} {mode} seed={seed}"


def _empirical_pass(p: Pass, inputs: dict) -> None:
    from ricbounds import covering, empirical

    for N in EMP_SIZES:
        for s in inputs["matrix_seeds"][str(N)]:
            sample = p.op(f"sample n={EMP_N} N={N} seed={s}", False, lambda: attempt(
                lambda: empirical.sample_gaussian(EMP_N, N, s), _sample_record))
            for k in EMP_KS:
                for mode in ("upper", "lower"):
                    p.op(ls_key(EMP_N, N, k, mode, s), True, lambda: attempt(
                        lambda: empirical.local_search(sample, k, mode, restarts=EMP_RESTARTS, seed=s),
                        _run_record))
    for cell in inputs["tiny"]:
        n, N, k, s = cell["n"], cell["N"], cell["k"], cell["seed"]
        sample = p.op(f"sample n={n} N={N} seed={s}", False,
                      lambda: attempt(lambda: empirical.sample_gaussian(n, N, s), _sample_record))
        p.op(f"exhaustive n={n} N={N} k={k} seed={s}", False, lambda: attempt(
            lambda: empirical.exhaustive_ric(sample, k),
            lambda res: {"L": res[0], "U": res[1], "arg_hi": list(res[2]), "arg_lo": list(res[3])}))
        for mode in ("upper", "lower"):
            p.op(ls_key(n, N, k, mode, s), False, lambda: attempt(
                lambda: empirical.local_search(sample, k, mode, restarts=TINY_RESTARTS, seed=s),
                _run_record))
    for ts in inputs["trial_seeds"]:
        plan = covering.CoveringPlan(N=COVER["N"], k=COVER["k"], m=COVER["m"], seed=ts)
        p.op(f"cover seed={ts}", False, lambda: attempt(
            lambda: covering.random_cover(plan),
            lambda res: {"covered": res[0], "uncovered": res[1]}))
    p.cli("cli empirical", inputs["cli_seed"], "csv", "empirical.csv", [
        "empirical",
        "--n", str(EMP_N), "--sizes", str(EMP_SIZES[0]), "--k", str(EMP_CLI_K),
        "--restarts", str(EMP_RESTARTS),
    ])
    # cover writes no CSV; its JSON envelope carries the per-trial outcomes.
    p.cli("cli cover", inputs["cover_seed"], "json", "cover.json", [
        "cover",
        "-N", str(COVER["N"]), "--k", str(COVER["k"]), "--m", str(COVER["m"]),
        "--trials", str(COVER_TRIALS), "--details",
    ])


def _ls_invariants(sample_entries, k: int, mode: str, restarts: int, rec: dict) -> list[str]:
    import numpy as np

    support = rec["best_support"]
    problems = []
    if len(support) != k or sorted(set(support)) != support or not 0 <= support[0] <= support[-1] < sample_entries.shape[1]:
        return [f"best_support {support} is not {k} sorted distinct columns"]
    cols = sample_entries[:, support]
    eigs = np.linalg.eigvalsh(cols.T @ cols)
    extreme = float(eigs[-1] if mode == "upper" else eigs[0])
    if not checks.close(rec["extreme_eig"], extreme, 1e-10, 1e-12):
        problems.append(f"extreme_eig {rec['extreme_eig']!r} is not that of its support ({extreme!r})")
    estimate = rec["extreme_eig"] - 1.0 if mode == "upper" else 1.0 - rec["extreme_eig"]
    if rec["estimate"] != estimate or rec["restarts"] != restarts or rec["swaps_taken"] < 0:
        problems.append("estimate, restarts or swaps_taken inconsistent")
    return problems


def _cover_outcome(res) -> list[str]:
    total = math.comb(COVER["N"], COVER["k"])
    if 0 <= res["uncovered"] <= total and res["covered"] == (res["uncovered"] == 0):
        return []
    return [f"cover outcome {res} inconsistent"]


def _check_empirical(inputs: dict, p: Pass, ref: dict | None) -> None:
    import numpy as np

    from ricbounds import asymptotic, covering, empirical

    by_key = {r.key: r for r in p.results}
    refs = (ref or {}).get("records", {})
    samples = {}

    def sample_entries(n, N, s):
        if (n, N, s) not in samples:
            samples[n, N, s] = empirical.sample_gaussian(n, N, s).entries
        return samples[n, N, s]

    def exact(res, invariants):
        res.problems += _judge(refs.get(res.key), res.record, invariants, checks.exact_matches)

    for res in p.results:
        if res.key.startswith("sample"):
            exact(res, lambda g: [] if math.isfinite(g["sum"]) else ["non-finite entries"])
    for N in EMP_SIZES:
        for s in inputs["matrix_seeds"][str(N)]:
            for k in EMP_KS:
                for mode in ("upper", "lower"):
                    exact(by_key[ls_key(EMP_N, N, k, mode, s)],
                          lambda g: _ls_invariants(sample_entries(EMP_N, N, s), k, mode, EMP_RESTARTS, g))
    for cell in inputs["tiny"]:
        n, N, k, s = cell["n"], cell["N"], cell["k"], cell["seed"]
        ex = by_key[f"exhaustive n={n} N={N} k={k} seed={s}"]
        exact(ex, lambda g: checks.non_finite(g, ("L", "U")))
        for mode in ("upper", "lower"):
            res = by_key[ls_key(n, N, k, mode, s)]
            exact(res, lambda g: _ls_invariants(sample_entries(n, N, s), k, mode, TINY_RESTARTS, g))
            if "error" in ex.record or "error" in res.record:
                continue
            oracle = ex.record["U" if mode == "upper" else "L"]
            if res.record["estimate"] > oracle + 1e-12 * max(1.0, abs(oracle)):
                res.problems.append(f"local search {res.record['estimate']!r} exceeds exhaustive {oracle!r}")
    for ts in inputs["trial_seeds"]:
        exact(by_key[f"cover seed={ts}"], _cover_outcome)

    # The empirical CLI row against the library on the same matrix.
    res = by_key["cli empirical"]
    k, N, s = EMP_CLI_K, EMP_SIZES[0], inputs["cli_seed"]
    theory = asymptotic.bt_bounds(EMP_N / N, k / EMP_N)
    res.problems += checks.bound_invariants("BT", EMP_N / N, k / EMP_N, _bound_record(theory))
    sample = empirical.sample_gaussian(EMP_N, N, s)
    est = {}
    for mode in ("upper", "lower"):
        run = empirical.local_search(sample, k, mode, restarts=EMP_RESTARTS, seed=s)
        res.problems += _ls_invariants(sample.entries, k, mode, EMP_RESTARTS, _run_record(run))
        est[mode] = run.estimate
    if "error" in res.record:
        res.problems.append(f"empirical CLI failed with {res.record['error']}")
    else:
        rows = list(csv.DictReader(p.cli_outputs[res.key].splitlines()))
        if len(rows) != 1 or rows[0]["error"]:
            res.problems.append(f"empirical CLI rows {rows}")
        elif (float(rows[0]["U_est"]) != est["upper"] or float(rows[0]["L_est"]) != est["lower"]
              or not checks.close(float(rows[0]["U_theory"]), theory.U, checks.RESIDUAL_TOL, 1e-12)
              or not checks.close(float(rows[0]["L_theory"]), theory.L, checks.RESIDUAL_TOL, 1e-12)):
            res.problems.append(f"empirical CLI row {rows[0]} disagrees with the library")
    # The cover CLI against the library's trials, drawn as the command draws them.
    res = by_key["cli cover"]
    trial_seeds = np.random.default_rng(inputs["cover_seed"]).integers(2**63, size=COVER_TRIALS)
    uncovered = []
    for ts in trial_seeds:
        plan = covering.CoveringPlan(N=COVER["N"], k=COVER["k"], m=COVER["m"], seed=int(ts))
        covered, count = covering.random_cover(plan)
        res.problems += _cover_outcome({"covered": covered, "uncovered": count})
        uncovered.append(count)
    if "error" in res.record:
        res.problems.append(f"cover CLI failed with {res.record['error']}")
    else:
        got = json.loads(p.cli_outputs[res.key])["results"]
        if got["trial_uncovered_counts"] != uncovered or got["failures"] != sum(1 for u in uncovered if u):
            res.problems.append("cover CLI outcomes disagree with the library trials")
        plan = covering.CoveringPlan(**COVER)
        if got["u"] != plan.u:
            res.problems.append(f"cover CLI drew u={got['u']}, plan says {plan.u}")


# --- judging --------------------------------------------------------------


def _judge(want, got: dict, invariants, matches, known: bool = False) -> list[str]:
    """Problems with one output, given its reference (None when this seed
    has no reference).

    A reference error that now returns a value is judged by invariants
    alone: a fix of a known defect is not a mismatch.  Without a
    reference, an error is a problem unless ``known`` says the input is
    one of the known defects (see checks.py).
    """
    if "error" in got:
        if want is None:
            return [] if known else [f"raised {got['error']} outside the known-defect inputs"]
        if "error" not in want:
            return [f"raised {got['error']} where the reference has a value"]
        if want["error"] != got["error"]:
            return [f"raised {got['error']} where the reference raised {want['error']}"]
        return []
    problems = invariants(got)
    if want is not None and "error" not in want:
        problems += matches(want, got)
    return problems


def check_pass(workload: str, inputs: dict, p: Pass, ref: dict | None) -> None:
    """Fill in problems on every op result of the pass."""
    if workload == "surface":
        _check_surface(inputs, p, ref)
    elif workload == "phase":
        _check_phase(inputs, p, ref)
    else:
        _check_empirical(inputs, p, ref)


def records(p: Pass) -> dict:
    """Op key -> record, the form stored in a reference file."""
    return {r.key: r.record for r in p.results if not r.key.startswith("cli ")}
