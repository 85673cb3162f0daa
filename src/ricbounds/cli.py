"""Command-line front end.

Subcommands: bounds (single point), grid (surface sweep), finite (tail
probabilities at concrete sizes), empirical (sampled estimates vs theory),
phase (l1 recovery curve), cover (random covering simulation).

Output goes to stdout or --out.  By default a table of rows (grid,
empirical, phase) prints as CSV and one record (bounds, finite, cover) as
aligned key/value text.  --format json gives a versioned envelope,
--format csv a record as one CSV row, and --format svg the figure of grid
or phase.  Numbers print in shortest round-trip form.  Every randomized
command is replay deterministic given --seed.

Exit codes: 0 success, 2 domain error, 3 solver failure, 4 guard refusal,
5 I/O failure.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import sys
import time

import click

# numpy, empirical and covering load inside the commands that use them, so
# the other commands start without numpy.
from . import asymptotic, finite
from .errors import DomainError, IOFailure, RicBoundsError
from .svgfig import curve_svg, heatmap_svg

SCHEMA_VERSION = "1"

GRID_COLUMNS = [
    "delta",
    "rho",
    "family",
    "L",
    "U",
    "lambda_min",
    "lambda_max",
    "gamma_min",
    "gamma_max",
    "nu_opt",
]


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
        click.echo(content, nl=not content.endswith("\n"))
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(content)
    except OSError as exc:
        raise IOFailure(f"cannot write {out}: {exc}") from exc


def _emit(ctx, command: str, params: dict, results, *, columns=None, figure=None):
    """Write results, a table (list of rows) or one record (dict), in the
    requested --format; figure() builds the SVG only when it is asked for."""
    opts = ctx.obj
    fmt = opts["format"]
    if fmt == "json":
        envelope = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "params": params,
            "seed": opts["seed"],
            "wall_time_s": time.monotonic() - opts["t0"],
            "results": results,
        }
        text = json.dumps(envelope, indent=2, allow_nan=True)
    elif fmt == "svg":
        text = figure()
    elif isinstance(results, list):
        text = _rows_to_csv(results, columns)
    elif fmt == "csv":
        text = _rows_to_csv([results], list(results))
    else:
        width = max(map(len, results))
        text = "\n".join(f"{key:<{width}}  {_cell(v)}".rstrip() for key, v in results.items())
    _write_out(text, opts["out"])


@click.group()
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Write output to a file.")
@click.option("--seed", type=int, default=0, show_default=True, help="Root RNG seed.")
@click.option(
    "--format", "fmt", type=click.Choice(["csv", "json", "svg"]), default=None,
    help="Output format [default: CSV for tables, key/value text for records].",
)
@click.pass_context
def cli(ctx, out, seed, fmt):
    """Probabilistic bounds on restricted isometry constants of Gaussian
    matrices: asymptotic bound families, finite-size tail probabilities,
    empirical estimates, covering simulations, and recovery phase curves."""
    if fmt == "svg" and ctx.invoked_subcommand not in ("grid", "phase"):
        raise DomainError(f"--format svg draws grid and phase only, not {ctx.invoked_subcommand}")
    if seed < 0:
        raise DomainError(f"seed must be >= 0, got {seed}")
    ctx.obj = {
        "out": out,
        "seed": seed,
        "format": fmt,
        "t0": time.monotonic(),
    }


def _bound_record(b: asymptotic.AsymptoticBound) -> dict:
    rec = {
        "delta": b.delta,
        "rho": b.rho,
        "family": b.family,
        "L": b.L,
        "U": b.U,
        "lambda_min": b.lambda_min,
        "lambda_max": b.lambda_max,
        "log_lambda_min": b.log_lambda_min,
        "gamma_min": b.gamma_min,
        "gamma_max": b.gamma_max,
        "nu_opt": b.nu_opt,
    }
    if b.family == "BT":
        # Residuals of the first-order conditions; null at edge optima,
        # where the condition does not hold with equality.
        for side, at_edge in (("upper", b.boundary_upper), ("lower", b.boundary_lower)):
            resid = asymptotic.stationarity_residual(b, side)
            rec[f"stationarity_residual_{side}"] = None if at_edge else abs(resid)
        rec["boundary_upper"] = b.boundary_upper
        rec["boundary_lower"] = b.boundary_lower
    return rec


@cli.command()
@click.argument("delta", type=float)
@click.argument("rho", type=float)
@click.option("--family", type=click.Choice(asymptotic.FAMILIES), default="BT", show_default=True)
@click.pass_context
def bounds(ctx, delta, rho, family):
    """Bound values at a single (DELTA, RHO) point."""
    b = asymptotic.compute_bounds(family, delta, rho)
    _emit(ctx, "bounds", {"delta": delta, "rho": rho, "family": family}, _bound_record(b))


def _linspace(lo: float, hi: float, steps: int) -> list[float]:
    if steps < 2:
        raise DomainError(f"steps must be >= 2, got {steps}")
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


def _parse_families(text: str) -> list[str]:
    fams = [f.strip().upper() for f in text.split(",") if f.strip()]
    for f in fams:
        if f not in asymptotic.FAMILIES:
            raise DomainError(f"unknown family {f!r}; expected subset of {asymptotic.FAMILIES}")
    if not fams:
        raise DomainError("at least one family required")
    return fams


@cli.command()
@click.option("--delta-min", type=float, default=0.05, show_default=True)
@click.option("--delta-max", type=float, default=0.9524, show_default=True)
@click.option("--delta-steps", type=int, default=20, show_default=True)
@click.option("--rho-min", type=float, default=0.05, show_default=True)
@click.option("--rho-max", type=float, default=0.95, show_default=True)
@click.option("--rho-steps", type=int, default=20, show_default=True)
@click.option("--families", default="BT", show_default=True, help="Comma-separated subset of BT,BCT,CT.")
@click.pass_context
def grid(ctx, delta_min, delta_max, delta_steps, rho_min, rho_max, rho_steps, families):
    """Sweep the bound families over a (delta, rho) grid."""
    fams = _parse_families(families)
    deltas = _linspace(delta_min, delta_max, delta_steps)
    rhos = _linspace(rho_min, rho_max, rho_steps)
    points = [(f, d, r) for f in fams for d in deltas for r in rhos]
    bounds_list = [asymptotic.compute_bounds(f, d, r) for f, d, r in points]
    rows = [
        {c: rec.get(c) for c in GRID_COLUMNS}
        for rec in map(_bound_record, bounds_list)
    ]
    # The heatmap draws the first family, whose points lead bounds_list.
    surface = [
        [bounds_list[i * len(rhos) + j].U for i in range(len(deltas))]
        for j in range(len(rhos))
    ]
    params = {
        "delta_range": [delta_min, delta_max, delta_steps],
        "rho_range": [rho_min, rho_max, rho_steps],
        "families": fams,
    }
    _emit(ctx, "grid", params, rows, columns=GRID_COLUMNS,
          figure=lambda: heatmap_svg(surface, deltas, rhos, f"U {fams[0]} bound surface"))


@cli.command("finite")
@click.argument("k", type=int)
@click.argument("n", type=int)
@click.argument("n_total", type=int, metavar="N")
@click.option("--epsilon", type=float, default=1e-3, show_default=True)
@click.option("--side", type=click.Choice(["upper", "lower"]), default="upper", show_default=True)
@click.pass_context
def finite_cmd(ctx, k, n, n_total, epsilon, side):
    """Tail probability bound at a concrete size (K, N_ROWS, N)."""
    inst = finite.FiniteInstance(k=k, n=n, N=n_total, epsilon=epsilon)
    tb = finite.tail_prob_upper(inst) if side == "upper" else finite.tail_prob_lower(inst)
    rec = {
        "side": tb.side,
        "k": k,
        "n": n,
        "N": n_total,
        "epsilon": epsilon,
        "total": tb.total,
        "eig_term": tb.eig_term,
        "cover_term": tb.cover_term,
        "lambda_star": tb.lambda_star,
        "log_lambda_star": tb.log_lambda_star,
        "gamma_used": tb.gamma_used,
        "psi_derivative": tb.psi_derivative,
        "log_eig_term": tb.log_eig_term,
        "log_cover_term": tb.log_cover_term,
        "log_total": tb.log_total,
        "log_prefactor_proof": tb.log_prefactor_proof,
        "log_prefactor_stated": tb.log_prefactor_stated,
    }
    _emit(ctx, "finite", {"k": k, "n": n, "N": n_total, "epsilon": epsilon, "side": side}, rec)


EMPIRICAL_COLUMNS = ["n", "N", "k", "U_est", "L_est", "U_theory", "L_theory",
                     "ratio_U", "ratio_L", "error"]


@cli.command("empirical")
@click.option("--n", "n_rows", type=int, default=100, show_default=True)
@click.option("--sizes", default="200,400", show_default=True, help="Comma-separated N values.")
@click.option("--k-frac", type=float, default=0.05, show_default=True,
              help="Sparsity rule, 0 < k_frac < 1: k = max(1, round(k_frac * n)).")
@click.option("--k", "k_fixed", type=int, default=None, help="Fixed k overriding --k-frac.")
@click.option("--restarts", type=int, default=100, show_default=True)
@click.pass_context
def empirical_cmd(ctx, n_rows, sizes, k_frac, k_fixed, restarts):
    """Empirical RIC estimates vs theory across matrix widths.

    Guard violations are reported per cell; the sweep continues.
    """
    from . import empirical

    try:
        n_list = [int(s) for s in sizes.split(",") if s.strip()]
    except ValueError:
        raise DomainError(f"sizes must be comma-separated integers, got {sizes!r}") from None
    if not n_list or min(n_list) < 1:
        raise DomainError(f"sizes must list positive integers, got {sizes!r}")
    if restarts < 1:
        raise DomainError(f"restarts must be >= 1, got {restarts}")
    if n_rows < 1:
        raise DomainError(f"n must be >= 1, got {n_rows}")
    if k_fixed is not None and k_fixed < 1:
        raise DomainError(f"k must be >= 1, got {k_fixed}")
    if not 0.0 < k_frac < 1.0:
        raise DomainError(f"k-frac must be in (0,1), got {k_frac}")
    k = k_fixed if k_fixed is not None else max(1, round(k_frac * n_rows))
    seed = ctx.obj["seed"]

    def run_cell(N: int) -> dict:
        row = {"n": n_rows, "N": N, "k": k, "error": ""}
        try:
            theory = asymptotic.bt_bounds(n_rows / N, k / n_rows)
            sample = empirical.sample_gaussian(n_rows, N, seed)
            up = empirical.local_search(sample, k, "upper", restarts=restarts, seed=seed)
            lo = empirical.local_search(sample, k, "lower", restarts=restarts, seed=seed)
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
    _emit(ctx, "empirical", params, rows, columns=EMPIRICAL_COLUMNS)


PHASE_COLUMNS = ["delta", "family", "rho_star"]


@cli.command("phase")
@click.option("--delta-steps", type=int, default=50, show_default=True)
@click.option("--delta-min", type=float, default=0.05, show_default=True)
@click.option("--delta-max", type=float, default=0.9524, show_default=True)
@click.option("--families", default="BT", show_default=True,
              help="Comma-separated; pass BT,BCT to co-plot both curves.")
@click.pass_context
def phase_cmd(ctx, delta_steps, delta_min, delta_max, families):
    """l1 recovery phase-transition curve rho*(delta)."""
    fams = _parse_families(families)
    deltas = _linspace(delta_min, delta_max, delta_steps)
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
    params = {"delta_range": [delta_min, delta_max, delta_steps], "families": fams}
    _emit(ctx, "phase", params, rows, columns=PHASE_COLUMNS,
          figure=lambda: curve_svg(series, "l1 phase transition lower bound"))


@cli.command("cover")
@click.option("--universe", "-N", "n_universe", type=int, required=True, help="Universe size N.")
@click.option("--k", type=int, required=True)
@click.option("--m", type=int, required=True)
@click.option("--u", type=int, default=None, help="Supersets to draw, >= 0 [default: ceil(r*N)].")
@click.option("--trials", type=int, default=100, show_default=True)
@click.option("--details", is_flag=True, help="Include per-trial outcomes.")
@click.pass_context
def cover_cmd(ctx, n_universe, k, m, u, trials, details):
    """Monte-Carlo check of the random covering construction."""
    import numpy as np
    from . import covering

    if trials < 1:
        raise DomainError(f"trials must be >= 1, got {trials}")
    plan = covering.CoveringPlan(N=n_universe, k=k, m=m, u=u)
    rng = np.random.default_rng(ctx.obj["seed"])
    uncovered = [
        covering.random_cover(dataclasses.replace(plan, seed=int(ts)))[1]
        for ts in rng.integers(2**63, size=trials)
    ]
    failures = sum(1 for unc in uncovered if unc)
    cb = covering.covering_bound(plan)
    rec = {
        "N": n_universe,
        "k": k,
        "m": m,
        "r": plan.r,
        "u": plan.u,
        "trials": trials,
        "failures": failures,
        "failure_frequency": failures / trials,
        "bound_envelope": cb.envelope,
        "log_bound_envelope": cb.log_envelope,
        "bound_intermediate": cb.intermediate,
        "log_bound_intermediate": cb.log_intermediate,
    }
    if details:
        rec["trial_uncovered_counts"] = uncovered
    _emit(ctx, "cover", {"N": n_universe, "k": k, "m": m, "u": u, "trials": trials}, rec)


def main(argv=None):
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        sys.exit(exc.exit_code)
    except click.exceptions.Abort:
        sys.exit(1)
    except RicBoundsError as exc:
        click.echo(f"{type(exc).__name__}: {exc}", err=True)
        sys.exit(exc.exit_code)
    except OSError as exc:
        click.echo(f"i/o failure: {exc}", err=True)
        sys.exit(5)
    return 0


if __name__ == "__main__":
    main()
