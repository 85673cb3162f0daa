import time

import pytest

from ricbounds import asymptotic


def pytest_addoption(parser):
    parser.addoption(
        "--run-extended",
        action="store_true",
        default=False,
        help="run long (half-minute) reproduction tests",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-extended"):
        return
    skip = pytest.mark.skip(reason="needs --run-extended")
    for item in items:
        if "extended" in item.keywords:
            item.add_marker(skip)


def _linspace(lo, hi, steps):
    return [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]


@pytest.fixture(scope="session")
def interior_grid():
    """30x30 interior (delta, rho) grid with BT and BCT solutions.

    Shared by the root-correctness, improvement, and stationarity
    acceptance checks; build time is attributed to the root-correctness
    budget.
    """
    deltas = _linspace(0.05, 0.95, 30)
    rhos = _linspace(0.05, 0.95, 30)
    t0 = time.monotonic()
    bt = {}
    bct = {}
    for d in deltas:
        for r in rhos:
            bt[(d, r)] = asymptotic.bt_bounds(d, r)
            bct[(d, r)] = asymptotic.bct_bounds(d, r)
    elapsed = time.monotonic() - t0
    return {
        "deltas": deltas,
        "rhos": rhos,
        "bt": bt,
        "bct": bct,
        "build_seconds": elapsed,
    }
