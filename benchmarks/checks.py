"""Correctness checks: tolerances against the committed reference, and
invariants that hold for any seed.

Tolerances, and why each is what it is:

- L, U, lambda_max and ln(lambda_min): RESIDUAL_TOL = 1e-12 relative, the
  gate ROADMAP.md sets for any change to the solvers.  U = lambda_max - 1
  and L = 1 - lambda_min inherit an absolute floor of 1e-12 * lambda.
- gamma_min, gamma_max, nu_opt and a tail's gamma_used: GAMMA_TOL = 1e-10
  relative, the width to which the library locates them.
- rho_star: 2e-8 absolute.  The phase search stops when its bracket is
  1e-8 wide, so two correct searches may each sit up to 1e-8 from the
  true boundary, on either side.
- tail log values (log_eig_term, log_total, log_lambda_star): see
  tail_log_tol.
- local_search, exhaustive_ric and random_cover results: exact.  Seeded
  replays are bit-for-bit reproducible by the library's contract.

Known defects: at the commit that defined the benchmark, BT raises
SolverError near rho -> 1 and tail_prob_lower raises DomainError where
gamma collapses onto rho (k/n near 1).  Inputs there are kept and their
errors counted as failed ops.  Without a reference, an error is accepted
only on such an input (known_point_failure, known_tail_failure); any
other error makes the run incorrect.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

RESIDUAL_TOL = 1e-12
GAMMA_TOL = 1e-10
RHO_STAR_TOL = 2e-8
L1_THRESHOLD = math.sqrt(2.0) - 1.0

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The known-defect regions: BT at rho within 1e-3 of 1, the lower tail at
# k/n from 0.85 up.  Both sit clear of the inputs that do not fail.
KNOWN_BT_RHO = 1.0 - 1e-3
KNOWN_TAIL_K_FRAC = 0.85


def known_point_failure(family: str, delta: float, rho: float, error: str | None) -> bool:
    return family == "BT" and error == "SolverError" and rho > KNOWN_BT_RHO


def known_tail_failure(side: str, inst: dict, error: str | None) -> bool:
    return side == "lower" and error == "DomainError" and inst["k"] / inst["n"] >= KNOWN_TAIL_K_FRAC


def close(a: float, b: float, rel: float, floor: float = 0.0) -> bool:
    """|a - b| <= max(rel * max(|a|, |b|), floor); equal infinities pass."""
    if a == b:
        return True
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), floor)


def tail_log_tol(n: int, N: int, epsilon: float, value: float) -> float:
    """Absolute tolerance on a tail bound's log value.

    log_eig = log prefactor + N * net(lambda*) + n * eps * psi'(lambda*):
    - N * net: each correct root leaves |net| <= RESIDUAL_TOL, so two roots
      differ here by up to 2 N RESIDUAL_TOL;
    - the prefactor carries 1/2 ln(gamma - rho), and n * eps * psi' carries
      gamma linearly: both move by at most GAMMA_TOL per unit, giving
      (n * eps + 2) * GAMMA_TOL;
    - the rest scales with the value itself: GAMMA_TOL * |value|.
    """
    return 2.0 * N * RESIDUAL_TOL + (n * epsilon + 2.0) * GAMMA_TOL + GAMMA_TOL * abs(value)


def net_exponent_max(lam: float, delta: float, rho: float, gamma: float) -> float:
    """delta psi_max(lam, gamma) + H(rho delta) - delta gamma H(rho/gamma)."""
    from ricbounds.rates import ProblemShape, net_exponent_max as net_max

    return net_max(lam, ProblemShape(delta, rho, gamma))


def net_exponent_min_log(log_lam: float, delta: float, rho: float, gamma: float) -> float:
    """Net lower-tail exponent at lambda = exp(log_lam), in log form so it
    stays finite where lambda underflows."""
    from ricbounds.rates import shannon_entropy as h

    lam = math.exp(log_lam) if log_lam > -700.0 else 0.0
    ratio = 0.0 if gamma == rho else gamma * h(rho / gamma)
    return (
        delta
        * (
            h(gamma)
            + 0.5 * ((1.0 - gamma) * log_lam + gamma * math.log(gamma) + 1.0 - gamma - lam)
        )
        + h(rho * delta)
        - delta * ratio
    )


# Root residuals are recomputed in the same evaluation order as the library,
# so the only slack needed above RESIDUAL_TOL is a few rounding steps.
_RESIDUAL_SLACK = RESIDUAL_TOL * (1.0 + 1e-3)


def non_finite(record: dict, keys) -> list[str]:
    """A problem for each of ``keys`` whose value in ``record`` is not finite."""
    return [f"{k}={record[k]!r} is not finite" for k in keys if not math.isfinite(record[k])]


def bound_invariants(family: str, delta: float, rho: float, rec: dict) -> list[str]:
    """Invariants of one family's bound at (delta, rho)."""
    problems = non_finite(rec, ("L", "U", "lambda_max"))
    if problems:
        return problems
    if not close(rec["U"], rec["lambda_max"] - 1.0, 0.0, 1e-15 * rec["lambda_max"]):
        problems.append("U != lambda_max - 1")
    if family == "CT":
        from ricbounds.rates import shannon_entropy

        spread = math.sqrt(2.0 / delta * shannon_entropy(delta * rho))
        lam_max = (1.0 + math.sqrt(rho) + spread) ** 2
        lam_min = max(0.0, 1.0 - math.sqrt(rho) - spread) ** 2
        if not close(rec["lambda_max"], lam_max, RESIDUAL_TOL):
            problems.append("CT lambda_max differs from its closed form")
        if not close(rec["L"], 1.0 - lam_min, RESIDUAL_TOL, RESIDUAL_TOL):
            problems.append("CT L differs from its closed form")
        return problems
    problems += non_finite(rec, ("log_lambda_min",))
    if problems:
        return problems
    if family == "BT":
        g_up, g_lo = rec["gamma_min"], rec["gamma_max"]
        rho_up = rho
    else:  # BCT: upper side at gamma = nu = nu_opt, lower side at gamma = rho
        g_up, g_lo = rec["nu_opt"], rho
        rho_up = rec["nu_opt"]
    if not (rho <= g_up <= 1.0 / delta) or not (rho <= g_lo < 1.0):
        return [f"group ratio outside its range: upper {g_up}, lower {g_lo}"]
    lam = rec["lambda_max"]
    if abs(net_exponent_max(lam, delta, rho_up, g_up)) > _RESIDUAL_SLACK:
        problems.append("lambda_max residual above 1e-12")
    if lam < 1.0 + g_up:
        problems.append("lambda_max below its side constraint 1 + gamma")
    log_lam = rec["log_lambda_min"]
    if abs(net_exponent_min_log(log_lam, delta, rho, g_lo)) > _RESIDUAL_SLACK:
        problems.append("lambda_min residual above 1e-12")
    if log_lam > math.log1p(-g_lo):
        problems.append("lambda_min above its side constraint 1 - gamma")
    return problems


def bound_matches(ref: dict, rec: dict) -> list[str]:
    """Compare one family's bound with its reference."""
    problems = []
    for key in ("lambda_max", "log_lambda_min"):
        if not close(rec[key], ref[key], RESIDUAL_TOL, RESIDUAL_TOL):
            problems.append(f"{key} {rec[key]!r} != reference {ref[key]!r}")
    if not close(rec["U"], ref["U"], RESIDUAL_TOL, RESIDUAL_TOL * ref["lambda_max"]):
        problems.append(f"U {rec['U']!r} != reference {ref['U']!r}")
    if not close(rec["L"], ref["L"], RESIDUAL_TOL, RESIDUAL_TOL):
        problems.append(f"L {rec['L']!r} != reference {ref['L']!r}")
    for key in ("gamma_min", "gamma_max", "nu_opt"):
        if (rec.get(key) is None) != (ref.get(key) is None) or (
            ref.get(key) is not None and not close(rec[key], ref[key], GAMMA_TOL)
        ):
            problems.append(f"{key} {rec.get(key)!r} != reference {ref.get(key)!r}")
    return problems


def tail_invariants(inst: dict, rec: dict) -> list[str]:
    problems = non_finite(rec, ("log_eig_term", "log_cover_term", "log_total", "log_lambda_star"))
    if problems:
        return problems
    delta, rho, gamma = inst["n"] / inst["N"], inst["k"] / inst["n"], rec["gamma_used"]
    if rec["side"] == "upper":
        residual = net_exponent_max(math.exp(rec["log_lambda_star"]), delta, rho, gamma)
    else:
        residual = net_exponent_min_log(rec["log_lambda_star"], delta, rho, gamma)
    if abs(residual) > _RESIDUAL_SLACK:
        problems.append(f"{rec['side']} tail root residual {residual:.3g} above 1e-12")
    if not rec["psi_derivative"] < 0.0:
        problems.append("slack coefficient psi_derivative is not negative")
    hi, lo = max(rec["log_eig_term"], rec["log_cover_term"]), min(
        rec["log_eig_term"], rec["log_cover_term"]
    )
    if not close(rec["log_total"], hi + math.log1p(math.exp(lo - hi)), 1e-15, 1e-15):
        problems.append("log_total is not the log-sum of its two terms")
    return problems


def tail_matches(inst: dict, ref: dict, rec: dict) -> list[str]:
    problems = []
    if not close(rec["gamma_used"], ref["gamma_used"], GAMMA_TOL):
        problems.append(f"gamma_used {rec['gamma_used']!r} != reference {ref['gamma_used']!r}")
    for key in ("log_lambda_star", "log_eig_term", "log_total"):
        tol = tail_log_tol(inst["n"], inst["N"], inst["epsilon"], ref[key])
        if not close(rec[key], ref[key], 0.0, tol):
            problems.append(f"{key} {rec[key]!r} != reference {ref[key]!r} (tol {tol:.3g})")
    if not close(rec["log_cover_term"], ref["log_cover_term"], RESIDUAL_TOL, RESIDUAL_TOL):
        problems.append("log_cover_term differs from reference")
    return problems


def rho_star_matches(ref: float, got: float) -> bool:
    return close(got, ref, 0.0, RHO_STAR_TOL)


def exact_matches(ref: dict, rec: dict) -> list[str]:
    return [f"{k} {rec.get(k)!r} != reference {v!r}" for k, v in ref.items() if rec.get(k) != v]


# --- reference files ------------------------------------------------------


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{workload}-{seed}.json"


def load_reference(workload: str, seed: int) -> dict | None:
    path = reference_path(workload, seed)
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def reference_seeds(workload: str) -> list[int]:
    return sorted(
        int(p.stem.rsplit("-", 1)[1]) for p in REFERENCE_DIR.glob(f"{workload}-*.json")
    )
