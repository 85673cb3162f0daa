"""Spans and counts for the traced run, and the wrappers that record them.

The wrappers are installed on module attributes of ``ricbounds`` (and on
``numpy.linalg``) only inside :func:`installed`, which restores every
original on exit.  Nothing under ``src/`` is edited: a call made through
a wrapped attribute opens a span, a call made through a counted
attribute adds to a running count, and each span records how much every
count grew while it was open.

Every call in the benchmark is synchronous on one thread, so spans nest
strictly and no layer waits on another; self time is therefore the
whole story and no wait time is recorded.
"""

from __future__ import annotations

import math
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# A span closed by this error, whose parent is not itself an asymptotic
# span, counts once in asymptotic.solver_errors.
SOLVER_ERROR = "SolverError"


class Span:
    __slots__ = ("name", "start", "end", "parent", "op_id", "error", "counts_at_open", "counts")

    def __init__(self, name, start, parent, op_id, counts_at_open):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.op_id = op_id
        self.error = None
        self.counts_at_open = counts_at_open
        # Counts made while the span was open, its descendants included.
        self.counts = None

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op_id": self.op_id,
            "error": self.error,
            "counts": self.counts,
        }


class Tracer:
    """In-memory span recorder for one traced pass.

    Counts are running totals in one dict; a span keeps the totals at its
    opening and the difference at its closing, which keeps the counting
    wrappers down to one dict update.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.totals: Counter = Counter()
        self._stack: list[int] = []
        self.op_id = None

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent, self.op_id, dict(self.totals)))
        self._stack.append(index)
        return index

    def close(self, index: int, error: str | None = None) -> None:
        span = self.spans[index]
        span.end = perf_counter()
        span.error = error
        before = span.counts_at_open
        span.counts = {k: v - before.get(k, 0) for k, v in self.totals.items() if v != before.get(k, 0)}
        span.counts_at_open = None
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name} closed out of order")

    def count(self, counter: str, amount: int = 1) -> None:
        self.totals[counter] += amount

    @contextmanager
    def span(self, name: str, op_id=None):
        """Span opened by the benchmark itself (one op, one CLI call)."""
        if op_id is not None:
            self.op_id = op_id
        index = self.open(name)
        error = None
        try:
            yield index
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self.close(index, error)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are merged as intervals and clipped to the parent, so the
    arithmetic holds even if children overlapped or outlived the parent.
    """
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(kids):
            lo, hi = max(lo, span.start), min(hi, span.end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append((span.end - span.start) - covered)
    return out


# --- wrappers -------------------------------------------------------------


def _spanned(tracer: Tracer, name: str, fn, after=None):
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tracer.close(index, type(exc).__name__)
            raise
        if after is not None:
            after(tracer, args, kwargs, result)
        tracer.close(index)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def _counted(tracer: Tracer, counter: str, fn, amount=None):
    totals = tracer.totals
    if amount is None:
        def wrapper(*args, **kwargs):
            totals[counter] += 1
            return fn(*args, **kwargs)
    else:
        def wrapper(*args, **kwargs):
            totals[counter] += amount(args, kwargs)
            return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", counter)
    return wrapper


def _matrices(args, kwargs) -> int:
    """Number of matrices in a (possibly stacked) eigensolver argument."""
    a = args[0] if args else kwargs["a"]
    shape = getattr(a, "shape", ())
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


def _after_local_search(tracer, args, kwargs, run):
    tracer.count("swaps", run.swaps_taken)


def _after_exhaustive(tracer, args, kwargs, result):
    sample = args[0] if args else kwargs["sample"]
    k = args[1] if len(args) > 1 else kwargs["k"]
    tracer.count("supports", math.comb(sample.N, k))


def _after_cover(tracer, args, kwargs, result):
    plan = args[0] if args else kwargs["plan"]
    tracer.count("subsets_checked", math.comb(plan.N, plan.k))
    covered, _ = result
    if not covered:
        tracer.count("uncovered_trials")


def targets():
    """(module, attribute, kind, name, hook) for every wrapped attribute.

    kind is "span" (a span named ``name``, ``hook`` runs on return) or
    "count" (adds to counter ``name``; ``hook`` gives the amount).
    """
    import numpy.linalg

    from ricbounds import asymptotic, cli, covering, empirical, finite

    return [
        (asymptotic, "solve_lambda_max", "span", "asymptotic.solve_lambda", None),
        (asymptotic, "solve_lambda_min", "span", "asymptotic.solve_lambda", None),
        (asymptotic, "optimize_gamma_for_max", "span", "asymptotic.optimize_gamma", None),
        (asymptotic, "optimize_gamma_for_min", "span", "asymptotic.optimize_gamma", None),
        (asymptotic, "bt_bounds", "span", "asymptotic.bt", None),
        (asymptotic, "bct_bounds", "span", "asymptotic.bct", None),
        (asymptotic, "ct_bounds", "span", "asymptotic.ct", None),
        (asymptotic, "compute_bounds", "span", "asymptotic.compute_bounds", None),
        (asymptotic, "l1_phase_transition", "span", "asymptotic.phase", None),
        (finite, "optimize_gamma_for_max", "span", "asymptotic.optimize_gamma", None),
        (finite, "optimize_gamma_for_min", "span", "asymptotic.optimize_gamma", None),
        (finite, "tail_prob_upper", "span", "finite.tail", None),
        (finite, "tail_prob_lower", "span", "finite.tail", None),
        (asymptotic, "_net_max_raw", "count", "net_evals", None),
        (asymptotic, "_net_min_log_lambda", "count", "net_evals", None),
        (finite, "_net_max_raw", "count", "net_evals", None),
        (finite, "_net_min_log_lambda", "count", "net_evals", None),
        (numpy.linalg, "eigh", "count", "eig_blocks", _matrices),
        (numpy.linalg, "eigvalsh", "count", "eig_blocks", _matrices),
        (empirical, "sample_gaussian", "span", "empirical.sample", None),
        (empirical, "local_search", "span", "empirical.local_search", _after_local_search),
        (empirical, "exhaustive_ric", "span", "empirical.exhaustive", _after_exhaustive),
        (covering, "random_cover", "span", "covering.random_cover", _after_cover),
        (cli, "heatmap_svg", "span", "svgfig", None),
        (cli, "curve_svg", "span", "svgfig", None),
    ]


def originals() -> dict:
    """Identity snapshot of every wrap target, keyed by (module name, attr).

    A target that is gone raises AttributeError: its layer could no
    longer be measured, so the benchmark must be updated with it.
    """
    return {(t[0].__name__, t[1]): getattr(t[0], t[1]) for t in targets()}


def assert_unwrapped(snapshot: dict) -> None:
    """Raise unless every wrap target is the object in ``snapshot``."""
    for module, attr, *_ in targets():
        if getattr(module, attr) is not snapshot[(module.__name__, attr)]:
            raise RuntimeError(f"{module.__name__}.{attr} is not its original")


@contextmanager
def installed(tracer: Tracer):
    """Install every wrapper for the duration of the block."""
    saved = []
    try:
        for module, attr, kind, name, hook in targets():
            fn = getattr(module, attr)
            saved.append((module, attr, fn))
            if kind == "span":
                setattr(module, attr, _spanned(tracer, name, fn, hook))
            else:
                setattr(module, attr, _counted(tracer, name, fn, hook))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)


# --- per-layer metrics ----------------------------------------------------

# (metric, unit) in the order BENCHMARK.json lists them.
LAYER_METRICS = [
    ("rates.net_evals", "count"),
    ("asymptotic.solve_lambda.calls", "count"),
    ("asymptotic.solve_lambda.evals_per_root", "count"),
    ("asymptotic.solve_lambda.self_ms", "ms"),
    ("asymptotic.optimize_gamma.calls", "count"),
    ("asymptotic.optimize_gamma.roots_per_call", "count"),
    ("asymptotic.optimize_gamma.self_ms", "ms"),
    ("asymptotic.bt.self_ms", "ms"),
    ("asymptotic.bct.self_ms", "ms"),
    ("asymptotic.bct.roots_per_point", "count"),
    ("asymptotic.ct.self_ms", "ms"),
    ("asymptotic.phase.bounds_per_point", "count"),
    ("asymptotic.phase.self_ms", "ms"),
    ("asymptotic.solver_errors", "count"),
    ("finite.tail.calls", "count"),
    ("finite.tail.self_ms", "ms"),
    ("empirical.local_search.self_ms", "ms"),
    ("empirical.local_search.eig_blocks", "count"),
    ("empirical.local_search.swaps", "count"),
    ("empirical.local_search.useful_ratio", "ratio"),
    ("empirical.exhaustive.self_ms", "ms"),
    ("empirical.exhaustive.supports", "count"),
    ("empirical.sample.self_ms", "ms"),
    ("covering.random_cover.self_ms", "ms"),
    ("covering.subsets_checked", "count"),
    ("covering.uncovered_trials", "count"),
    ("cli.self_ms", "ms"),
    ("svgfig.self_ms", "ms"),
]

# Metrics that are ratios of two counts rather than totals per op.
_RATIOS = {
    "asymptotic.solve_lambda.evals_per_root",
    "asymptotic.optimize_gamma.roots_per_call",
    "asymptotic.bct.roots_per_point",
    "asymptotic.phase.bounds_per_point",
    "empirical.local_search.useful_ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_summary(spans: list[Span], primary_ops: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    Counts and self times are totals over the pass divided by the pass's
    number of primary ops ("per op"); the metrics in _RATIOS are ratios of
    two totals.
    """
    selfs = self_times(spans)
    calls: Counter = Counter()
    self_s: Counter = Counter()
    own: Counter = Counter()  # (span name, counter) -> count outside child spans
    totals: Counter = Counter()  # counter -> total over the pass
    child_calls: Counter = Counter()  # (parent name, child name) -> calls
    solver_errors = 0
    own_counts = [Counter(span.counts or {}) for span in spans]
    for span in spans:
        if span.parent is not None:
            own_counts[span.parent].subtract(span.counts or {})
        else:
            totals.update(span.counts or {})
    for span, s, counts in zip(spans, selfs, own_counts):
        calls[span.name] += 1
        self_s[span.name] += s
        parent = spans[span.parent].name if span.parent is not None else None
        if parent is not None:
            child_calls[(parent, span.name)] += 1
        for counter, n in counts.items():
            own[(span.name, counter)] += n
        if (
            span.error == SOLVER_ERROR
            and span.name.startswith("asymptotic.")
            and not (parent or "").startswith("asymptotic.")
        ):
            solver_errors += 1

    roots = calls["asymptotic.solve_lambda"]
    totals_per_op = {
        "rates.net_evals": totals["net_evals"],
        "asymptotic.solve_lambda.calls": roots,
        "asymptotic.solve_lambda.self_ms": 1e3 * self_s["asymptotic.solve_lambda"],
        "asymptotic.optimize_gamma.calls": calls["asymptotic.optimize_gamma"],
        "asymptotic.optimize_gamma.self_ms": 1e3 * self_s["asymptotic.optimize_gamma"],
        "asymptotic.bt.self_ms": 1e3 * self_s["asymptotic.bt"],
        "asymptotic.bct.self_ms": 1e3 * self_s["asymptotic.bct"],
        "asymptotic.ct.self_ms": 1e3 * self_s["asymptotic.ct"],
        "asymptotic.phase.self_ms": 1e3 * self_s["asymptotic.phase"],
        "asymptotic.solver_errors": solver_errors,
        "finite.tail.calls": calls["finite.tail"],
        "finite.tail.self_ms": 1e3 * self_s["finite.tail"],
        "empirical.local_search.self_ms": 1e3 * self_s["empirical.local_search"],
        "empirical.local_search.eig_blocks": own[("empirical.local_search", "eig_blocks")],
        "empirical.local_search.swaps": own[("empirical.local_search", "swaps")],
        "empirical.exhaustive.self_ms": 1e3 * self_s["empirical.exhaustive"],
        "empirical.exhaustive.supports": own[("empirical.exhaustive", "supports")],
        "empirical.sample.self_ms": 1e3 * self_s["empirical.sample"],
        "covering.random_cover.self_ms": 1e3 * self_s["covering.random_cover"],
        "covering.subsets_checked": own[("covering.random_cover", "subsets_checked")],
        "covering.uncovered_trials": own[("covering.random_cover", "uncovered_trials")],
        "cli.self_ms": 1e3 * self_s["cli"],
        "svgfig.self_ms": 1e3 * self_s["svgfig"],
    }
    out = {name: value / primary_ops for name, value in totals_per_op.items()}
    out["asymptotic.solve_lambda.evals_per_root"] = _ratio(
        own[("asymptotic.solve_lambda", "net_evals")], roots
    )
    out["asymptotic.optimize_gamma.roots_per_call"] = _ratio(
        child_calls[("asymptotic.optimize_gamma", "asymptotic.solve_lambda")],
        calls["asymptotic.optimize_gamma"],
    )
    out["asymptotic.bct.roots_per_point"] = _ratio(
        child_calls[("asymptotic.bct", "asymptotic.solve_lambda")], calls["asymptotic.bct"]
    )
    out["asymptotic.phase.bounds_per_point"] = _ratio(
        child_calls[("asymptotic.phase", "asymptotic.compute_bounds")],
        calls["asymptotic.phase"],
    )
    out["empirical.local_search.useful_ratio"] = _ratio(
        own[("empirical.local_search", "swaps")],
        own[("empirical.local_search", "eig_blocks")],
    )
    return {name: out[name] for name, _ in LAYER_METRICS}


def is_count(metric: str) -> bool:
    """True for metrics that must repeat exactly between traced runs."""
    return not metric.endswith("self_ms")


def inclusive(spans: list[Span], name: str, counter: str) -> tuple[float, float]:
    """Mean seconds and mean ``counter`` per span called ``name``, each
    including the span's descendants."""
    chosen = [s for s in spans if s.name == name]
    if not chosen:
        return 0.0, 0.0
    secs = sum(s.end - s.start for s in chosen) / len(chosen)
    return secs, sum((s.counts or {}).get(counter, 0) for s in chosen) / len(chosen)
