"""The result records: immutable named tuples with fixed fields, reprs and values."""

import math

import pytest

from ricbounds import asymptotic
from ricbounds.asymptotic import AsymptoticBound, GammaOptimum
from ricbounds.covering import CoveringBound, CoveringPlan, covering_bound
from ricbounds.empirical import EmpiricalRun, local_search, sample_gaussian
from ricbounds.finite import FiniteInstance, TailBound, tail_prob_upper

# Field order of each record, as declared.
FIELDS = {
    AsymptoticBound: ("family", "delta", "rho", "L", "U", "lambda_min", "lambda_max", "log_lambda_min",
                      "gamma_min", "gamma_max", "nu_opt", "boundary_upper", "boundary_lower",
                      "log_gamma_offset_min", "log_gamma_offset_max"),
    GammaOptimum: ("gamma", "value", "at_boundary", "log_offset"),
    TailBound: ("side", "instance", "lambda_star", "log_lambda_star", "gamma_used", "psi_derivative",
                "log_prefactor_proof", "log_eig_term", "log_cover_term", "log_total"),
    EmpiricalRun: ("n", "N", "k", "seed", "mode", "best_support", "extreme_eig", "estimate", "restarts",
                   "swaps_taken"),
    CoveringBound: ("log_envelope", "log_intermediate"),
}

# Every field of twelve results, as the frozen-dataclass records gave them: an
# interior point, edge optima, tiny rho, rho = 1 - 1e-5, BCT's nu at the top of
# its interval and CT's clamped L.
PINNED = [
    (("compute_bounds", "BT", 0.5, 0.5),
     ("BT", 0.5, 0.5, 0.9994511974848705, 5.5490154859517045, 0.0005488025151295063, 6.5490154859517045,
      -7.507771898601172, 0.7577527082294875, 0.5181317647239589, None, False, False, -1.3557546489453605,
      -4.010089921723494)),
    (("compute_bounds", "BT", 0.5, 0.999),
     ("BT", 0.5, 0.999, 1.0, 6.761063924157649, 0.0, 7.761063924157649, -2788.40173263066, 2.0, 0.999, None,
      True, False, 0.0009995003330834232, -1387.294611786848)),
    (("compute_bounds", "BT", 0.5, 1e-150),
     ("BT", 0.5, 1e-150, 4.5619065887158196e-74, 4.5619065887158196e-74, 1.0, 1.0, -4.5619065887158196e-74,
      1e-150, 1e-150, None, False, False, -518.0816459236603, -518.0816459236603)),
    (("compute_bounds", "BT", 0.3, 0.99999),
     ("BT", 0.3, 0.99999, 1.0, 8.701503277979564, 0.0, 9.701503277979564, -407266.1992743724,
      1.7314722219761047, 0.99999, None, False, False, -0.31268236233594715, -203621.58672672135)),
    (("compute_bounds", "BCT", 0.5, 0.5),
     ("BCT", 0.5, 0.5, 0.9994879552883043, 6.018803260429359, 0.0005120447116957092, 7.018803260429359,
      -7.577098609206911, 0.5, 0.5, 0.5, False, False, None, None)),
    (("compute_bounds", "BCT", 0.9, 0.99999),
     ("BCT", 0.9, 0.99999, 1.0, 5.4508216182910365, 0.0, 6.4508216182910365, -72270.08094907118, 0.99999,
      0.99999, 0.999999999999, False, False, None, None)),
    (("compute_bounds", "BCT", 0.001, 1e-200),
     ("BCT", 0.001, 1e-200, 5.288414821767278e-99, 5.288414821767278e-99, 1.0, 1.0, -5.288414821767278e-99,
      1e-200, 1e-200, 1e-200, False, False, None, None)),
    (("compute_bounds", "CT", 0.3, 0.2),
     ("CT", 0.3, 0.2, 1.0, 6.167944549179582, 0.0, 7.167944549179581, -math.inf, None, None, None, False,
      False, None, None)),
    (("compute_bounds", "CT", 0.5, 1e-150),
     ("CT", 0.5, 1e-150, -0.0, 5.469390182020434e-74, 1.0, 1.0, 0.0, None, None, None, False, False, None,
      None)),
    (("optimize_gamma_for_max", 0.5, 0.999), (2.0, 2.049119428425847, True, 0.0009995003330834232)),
    (("optimize_gamma_for_min", 0.5, 0.5), (0.5181317647239589, -7.507771898601172, False, -4.010089921723494)),
    (("optimize_gamma_for_min", 0.5, 0.9999999999), (0.9999999999, -27725884976.39951, True, -math.inf)),
]


def test_field_order():
    for record, fields in FIELDS.items():
        assert record._fields == fields


def test_record_matches_the_fields():
    # RECORD is the output order: AsymptoticBound's fields in their declared
    # order up to nu_opt, with delta and rho ahead of family.  Every name in a
    # RECORD reads an attribute of the result, a field or a property.
    fields = AsymptoticBound._fields
    assert AsymptoticBound.RECORD == fields[1:3] + fields[:1] + fields[3:11]
    b = asymptotic.bt_bounds(0.5, 0.5)
    tb = tail_prob_upper(FiniteInstance(k=10, n=100, N=1000, epsilon=0.01))
    for rec, result in ((AsymptoticBound.RECORD, b), (TailBound.RECORD, tb)):
        assert len(set(rec)) == len(rec)
        for name in rec:
            getattr(result, name)


@pytest.mark.parametrize("call, want", PINNED, ids=[" ".join(map(str, c)) for c, _ in PINNED])
def test_values_are_pinned(call, want):
    got = getattr(asymptotic, call[0])(*call[1:])
    assert got == want
    assert [repr(v) for v in got] == [repr(v) for v in want]  # -0.0 and 0.0 differ here


def test_immutable_hashable_and_equal_field_by_field():
    for result in (asymptotic.bct_bounds(0.5, 0.5), asymptotic.optimize_gamma_for_max(0.5, 0.5)):
        for name in (result._fields[0], "extra"):  # a field; and __slots__ = () leaves no instance dict
            with pytest.raises(AttributeError):
                setattr(result, name, 1.0)
        twin = type(result)(*result)
        assert twin == result and hash(twin) == hash(result)
        assert twin != result._replace(**{result._fields[1]: 1.0})


def test_defaults_and_repr():
    b = AsymptoticBound("CT", 0.5, 0.25, 1.0, 2.0, 0.0, 3.0, -math.inf)
    assert (b.gamma_min, b.gamma_max, b.nu_opt, b.boundary_upper, b.boundary_lower,
            b.log_gamma_offset_min, b.log_gamma_offset_max) == (None, None, None, False, False, None, None)
    assert repr(b) == ("AsymptoticBound(family='CT', delta=0.5, rho=0.25, L=1.0, U=2.0, lambda_min=0.0, "
                       "lambda_max=3.0, log_lambda_min=-inf, gamma_min=None, gamma_max=None, nu_opt=None, "
                       "boundary_upper=False, boundary_lower=False, log_gamma_offset_min=None, "
                       "log_gamma_offset_max=None)")
    assert repr(GammaOptimum(0.5, -1.5, False, -2.0)) == (
        "GammaOptimum(gamma=0.5, value=-1.5, at_boundary=False, log_offset=-2.0)")
    assert repr(covering_bound(CoveringPlan(N=12, k=3, m=6))).startswith("CoveringBound(log_envelope=")
    run = local_search(sample_gaussian(6, 10, 1), 2, "upper", restarts=1, seed=1)
    assert repr(run).startswith("EmpiricalRun(n=6, N=10, k=2, seed=1, mode='upper', best_support=(")


@pytest.fixture
def entropy_args(monkeypatch):
    """Arguments of every shannon_entropy call that asymptotic makes itself."""
    seen = []

    def spy(p):
        seen.append(p)
        return entropy(p)

    entropy = asymptotic.shannon_entropy
    monkeypatch.setattr(asymptotic, "shannon_entropy", spy)
    return seen


def test_entropy_of_rho_delta_once_per_search_and_per_solve(entropy_args):
    # H(rho delta) is a constant of the point: each gamma search computes it
    # once for all its Newton steps and each lambda solve once for its foot.
    # The residual check evaluates the full net exponent in rates, unseen here.
    d, r = 0.5, 0.3
    asymptotic.solve_lambda_max(d, r, 0.4)
    asymptotic.solve_lambda_min(d, r, 0.4)
    assert entropy_args == [r * d] * 2
    entropy_args.clear()
    asymptotic.optimize_gamma_for_max(d, r)  # one search, then one solve
    assert entropy_args == [r * d] * 2
    entropy_args.clear()
    asymptotic.bt_bounds(d, r)  # two searches, two solves
    assert entropy_args == [r * d] * 4
    entropy_args.clear()
    asymptotic.optimize_gamma_for_min(d, 1.0 - 1e-10)  # past the cap: no search
    assert entropy_args == [(1.0 - 1e-10) * d]
    entropy_args.clear()
    asymptotic.bct_bounds(d, r)  # three solves, the last at nu = _NU_TOP
    assert entropy_args == [r * d, r * d, asymptotic._NU_TOP * d]
