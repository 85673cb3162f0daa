"""Command-line front end; its argparse PARSER is built once, at import.

Subcommands: bounds (single point), grid (surface sweep), finite (tail
probabilities at concrete sizes), empirical (sampled estimates vs theory),
phase (l1 recovery curve), cover (random covering simulation).

Output goes to stdout or --out.  By default a table of rows (grid,
empirical, phase) prints as CSV and one record (bounds, finite, cover) as
aligned key/value text.  --format json gives a versioned envelope,
--format csv a record as one CSV row, and --format svg the figure of grid
or phase.  Numbers print in shortest round-trip form.  Every randomized
command is replay deterministic given --seed.

Exit codes: 0 success, 1 interrupted (Ctrl-C or stdout closed early), 2
usage or domain error, 3 solver failure, 4 guard refusal, 5 I/O failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import sys
import time

# numpy, empirical and covering load inside the commands that use them, so
# the other commands start without numpy.
from . import asymptotic, finite
from .errors import DomainError, IOFailure, RicBoundsError, check_count
from .svgfig import curve_svg, heatmap_svg

SCHEMA_VERSION = "1"

# A grid row is a bounds record without log_lambda_min.
GRID_COLUMNS = [c for c in asymptotic.AsymptoticBound.RECORD if c != "log_lambda_min"]


def _cell(x) -> str:
    """Shortest decimal that round-trips a float; empty for missing."""
    if x is None:
        return ""
    return repr(float(x)) if isinstance(x, float) else str(x)


def _rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row.get(c)) for c in columns])
    return buf.getvalue()


def _write_out(content: str, out: str | None) -> None:
    if out is None:
        print(content, end="" if content.endswith("\n") else "\n", flush=True)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as exc:
        raise IOFailure(f"cannot write {out}: {exc}") from exc


def _emit(args, params: dict, results, *, columns=None, figure=None):
    """Write results, a table (list of rows) or one record (dict), in the
    requested --format; figure() builds the SVG only when it is asked for."""
    if args.fmt == "json":
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "params": params,
            "seed": args.seed,
            "wall_time_s": time.monotonic() - args.t0,
            "results": results,
        }
        text = json.dumps(envelope, indent=2, allow_nan=True)
    elif args.fmt == "svg":
        text = figure()
    elif isinstance(results, list):
        text = _rows_to_csv(results, columns)
    elif args.fmt == "csv":
        text = _rows_to_csv([results], list(results))
    else:
        width = max(map(len, results))
        text = "\n".join(f"{key:<{width}}  {_cell(v)}".rstrip() for key, v in results.items())
    _write_out(text, args.out)


def _bound_record(b: asymptotic.AsymptoticBound) -> dict:
    rec = {c: getattr(b, c) for c in b.RECORD}
    if b.family == "BT":
        # Residuals of the first-order conditions; null at edge optima,
        # where the condition does not hold with equality.
        for side, at_edge in (("upper", b.boundary_upper), ("lower", b.boundary_lower)):
            resid = asymptotic.stationarity_residual(b, side)
            rec[f"stationarity_residual_{side}"] = None if at_edge else abs(resid)
        rec["boundary_upper"] = b.boundary_upper
        rec["boundary_lower"] = b.boundary_lower
    return rec


def bounds(args) -> None:
    """Bound values at a single (delta, rho) point."""
    b = asymptotic.compute_bounds(args.family, args.delta, args.rho)
    _emit(args, {"delta": args.delta, "rho": args.rho, "family": args.family}, _bound_record(b))


def _linspace(args, axis: str) -> list[float]:
    """The --{axis}-steps evenly spaced points from --{axis}-min to --{axis}-max."""
    lo, hi, steps = (getattr(args, f"{axis}_{end}") for end in ("min", "max", "steps"))
    for end, value in (("min", lo), ("max", hi)):
        if not math.isfinite(value):
            raise DomainError(f"--{axis}-{end} must be finite, got {value}")
    check_count(f"--{axis}-steps", steps, 2)
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _parse_families(text: str) -> list[str]:
    fams = [f.strip().upper() for f in text.split(",") if f.strip()]
    for f in fams:
        if f not in asymptotic.FAMILIES:
            raise DomainError(f"unknown family {f!r}; expected subset of {asymptotic.FAMILIES}")
    if len(set(fams)) < len(fams):
        raise DomainError(f"family repeated in {text!r}; each family may appear once")
    if not fams:
        raise DomainError("at least one family required")
    return fams


def grid(args) -> None:
    """Sweep the bound families over a (delta, rho) grid."""
    fams = _parse_families(args.families)
    deltas, rhos = _linspace(args, "delta"), _linspace(args, "rho")
    points = [(f, d, r) for f in fams for d in deltas for r in rhos]
    bounds_list = [asymptotic.compute_bounds(f, d, r) for f, d, r in points]
    rows = [{c: getattr(b, c) for c in GRID_COLUMNS} for b in bounds_list]
    # The heatmap draws the first family, whose points lead bounds_list.
    surface = [
        [bounds_list[i * len(rhos) + j].U for i in range(len(deltas))]
        for j in range(len(rhos))
    ]
    params = {
        "delta_range": [args.delta_min, args.delta_max, args.delta_steps],
        "rho_range": [args.rho_min, args.rho_max, args.rho_steps],
        "families": fams,
    }
    _emit(args, params, rows, columns=GRID_COLUMNS,
          figure=lambda: heatmap_svg(surface, deltas, rhos, f"U {fams[0]} bound surface"))


def finite_cmd(args) -> None:
    """Tail probability bound at a concrete size (k, n, N)."""
    inst = finite.FiniteInstance(k=args.k, n=args.n, N=args.N, epsilon=args.epsilon)
    tb = finite.tail_prob_upper(inst) if args.side == "upper" else finite.tail_prob_lower(inst)
    params = {"k": args.k, "n": args.n, "N": args.N, "epsilon": args.epsilon, "side": args.side}
    _emit(args, params, {c: getattr(tb, c) for c in tb.RECORD})


EMPIRICAL_COLUMNS = ["n", "N", "k", "U_est", "L_est", "U_theory", "L_theory",
                     "ratio_U", "ratio_L", "error"]


def empirical_cmd(args) -> None:
    """Empirical RIC estimates vs theory across matrix widths.

    A cell that fails, with a DomainError (say, a size N <= n) or a
    SolverError, reports it in its error column; the sweep continues.
    """
    from . import empirical

    n_rows, k_fixed, restarts, seed = args.n_rows, args.k_fixed, args.restarts, args.seed
    try:
        n_list = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise DomainError(f"sizes must be comma-separated integers, got {args.sizes!r}") from None
    if not n_list or min(n_list) < 1:
        raise DomainError(f"sizes must list positive integers, got {args.sizes!r}")
    check_count("restarts", restarts, 1)
    check_count("n", n_rows, 1)
    if k_fixed is not None:
        check_count("k", k_fixed, 1)
    if not 0.0 < args.k_frac < 1.0:
        raise DomainError(f"k-frac must be in (0,1), got {args.k_frac}")
    k = k_fixed if k_fixed is not None else max(1, round(args.k_frac * n_rows))

    def run_cell(N: int) -> dict:
        row = {"n": n_rows, "N": N, "k": k, "error": ""}
        try:
            theory, up, lo = empirical._theory_and_estimates(k, n_rows, N, seed, restarts)
            row.update(
                U_est=up.estimate,
                L_est=lo.estimate,
                U_theory=theory.U,
                L_theory=theory.L,
                ratio_U=theory.U / up.estimate if up.estimate > 0 else math.nan,
                ratio_L=theory.L / lo.estimate if lo.estimate > 0 else math.nan,
            )
        except RicBoundsError as exc:
            row["error"] = str(exc)
        return row

    rows = [run_cell(N) for N in n_list]
    params = {"n": n_rows, "sizes": n_list, "k": k, "restarts": restarts}
    _emit(args, params, rows, columns=EMPIRICAL_COLUMNS)


PHASE_COLUMNS = ["delta", "family", "rho_star"]


def phase_cmd(args) -> None:
    """l1 recovery phase-transition curve rho*(delta)."""
    fams = _parse_families(args.families)
    deltas = _linspace(args, "delta")
    points = [(f, d) for f in fams for d in deltas]
    stars = [asymptotic.l1_phase_transition(d, f) for f, d in points]
    rows = [
        {"delta": d, "family": f, "rho_star": s}
        for (f, d), s in zip(points, stars)
    ]
    series = {
        f: (deltas, [r["rho_star"] for r in rows if r["family"] == f])
        for f in fams
    }
    params = {"delta_range": [args.delta_min, args.delta_max, args.delta_steps], "families": fams}
    _emit(args, params, rows, columns=PHASE_COLUMNS,
          figure=lambda: curve_svg(series, "l1 phase transition lower bound"))


def cover_cmd(args) -> None:
    """Monte-Carlo check of the random covering construction."""
    import numpy as np
    from . import covering

    check_count("trials", args.trials, 1)
    plan = covering.CoveringPlan(N=args.universe, k=args.k, m=args.m, u=args.u)
    cb = covering.covering_bound(plan)  # refuses a plan before any trial runs
    rng = np.random.default_rng(args.seed)
    uncovered = [
        covering.random_cover(dataclasses.replace(plan, seed=int(ts)))[1]
        for ts in rng.integers(2**63, size=args.trials)
    ]
    failures = sum(1 for unc in uncovered if unc)
    rec = {
        "N": args.universe,
        "k": args.k,
        "m": args.m,
        "r": plan.r,
        "u": plan.u,
        "trials": args.trials,
        "failures": failures,
        "failure_frequency": failures / args.trials,
        "bound_envelope": cb.envelope,
        "log_bound_envelope": cb.log_envelope,
        "bound_intermediate": cb.intermediate,
        "log_bound_intermediate": cb.log_intermediate,
    }
    if args.details:
        rec["trial_uncovered_counts"] = uncovered
    params = {"N": args.universe, "k": args.k, "m": args.m, "u": args.u, "trials": args.trials}
    _emit(args, params, rec)


def _build_parser() -> argparse.ArgumentParser:
    shown = "[default: %(default)s]"
    top = argparse.ArgumentParser(
        prog="ricbounds", allow_abbrev=False,
        description="Probabilistic bounds on restricted isometry constants of Gaussian "
        "matrices: asymptotic bound families, finite-size tail probabilities, empirical "
        "estimates, covering simulations, and recovery phase curves.")
    top.add_argument("--out", help="Write output to a file.")
    top.add_argument("--seed", type=int, default=0, help="Root RNG seed. " + shown)
    top.add_argument("--format", dest="fmt", choices=["csv", "json", "svg"],
                     help="Output format [default: CSV for tables, key/value text for records].")
    commands = top.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def command(name, func) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=func.__doc__.splitlines()[0],
                                  description=func.__doc__, allow_abbrev=False)
        sub.set_defaults(func=func)
        return sub

    p = command("bounds", bounds)
    p.add_argument("delta", type=float)
    p.add_argument("rho", type=float)
    p.add_argument("--family", choices=asymptotic.FAMILIES, default="BT", help=shown)
    p = command("grid", grid)
    p.add_argument("--delta-min", type=float, default=0.05, help=shown)
    p.add_argument("--delta-max", type=float, default=0.9524, help=shown)
    p.add_argument("--delta-steps", type=int, default=20, help=shown)
    p.add_argument("--rho-min", type=float, default=0.05, help=shown)
    p.add_argument("--rho-max", type=float, default=0.95, help=shown)
    p.add_argument("--rho-steps", type=int, default=20, help=shown)
    p.add_argument("--families", default="BT", help="Comma-separated subset of BT,BCT,CT. " + shown)
    p = command("finite", finite_cmd)
    p.add_argument("k", type=int)
    p.add_argument("n", type=int)
    p.add_argument("N", type=int)
    p.add_argument("--epsilon", type=float, default=1e-3, help=shown)
    p.add_argument("--side", choices=["upper", "lower"], default="upper", help=shown)
    p = command("empirical", empirical_cmd)
    p.add_argument("--n", dest="n_rows", type=int, default=100, help=shown)
    p.add_argument("--sizes", default="200,400", help="Comma-separated N values. " + shown)
    p.add_argument("--k-frac", type=float, default=0.05, help="Sparsity rule, 0 < k_frac < 1: "
                   "k = max(1, round(k_frac * n)). " + shown)
    p.add_argument("--k", dest="k_fixed", type=int, help="Fixed k overriding --k-frac.")
    p.add_argument("--restarts", type=int, default=100, help=shown)
    p = command("phase", phase_cmd)
    p.add_argument("--delta-steps", type=int, default=50, help=shown)
    p.add_argument("--delta-min", type=float, default=0.05, help=shown)
    p.add_argument("--delta-max", type=float, default=0.9524, help=shown)
    p.add_argument("--families", default="BT",
                   help="Comma-separated; pass BT,BCT to co-plot both curves. " + shown)
    p = command("cover", cover_cmd)
    p.add_argument("--universe", "-N", type=int, required=True, help="Universe size N.")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--u", type=int, help="Supersets to draw, >= 0 [default: ceil(r*N)].")
    p.add_argument("--trials", type=int, default=100, help=shown)
    p.add_argument("--details", action="store_true", help="Include per-trial outcomes.")
    return top


PARSER = _build_parser()


def main(argv=None):
    try:
        args = PARSER.parse_args(argv)
        if args.fmt == "svg" and args.command not in ("grid", "phase"):
            raise DomainError(f"--format svg draws grid and phase only, not {args.command}")
        check_count("seed", args.seed)
        args.t0 = time.monotonic()
        args.func(args)
    except KeyboardInterrupt:
        sys.exit(1)
    except RicBoundsError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(exc.exit_code)
    except BrokenPipeError:
        # stdout's reader left early (`ricbounds grid | head`); devnull takes the exit flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        sys.exit(5)
    return 0


if __name__ == "__main__":
    main()
