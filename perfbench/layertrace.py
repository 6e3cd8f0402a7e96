"""Per-layer tracing of qsl from outside the package.

``Tracer`` replaces public qsl functions, in every qsl module that holds a
reference to them, by wrappers that record a span (id, parent id, solve id,
name, start, end) or bump a counter.  ``numpy.linalg.{eigh,eigvalsh,svd,
lstsq}`` are wrapped too and reported as the ``linalg`` layer.  Nothing inside
``src/qsl`` is changed; ``uninstall`` puts the original objects back.

Spans stay in memory; ``layer_metrics`` reduces them to the per-layer numbers
the benchmark reports, and ``run.py`` writes the raw spans out at the end.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

import qsl
import qsl.bounds
import qsl.cli
import qsl.lie
import qsl.matcore
import qsl.models
import qsl.perturb

QSL_MODULES = (qsl, qsl.matcore, qsl.lie, qsl.perturb, qsl.bounds,
               qsl.models, qsl.cli)

LINALG = ("eigh", "eigvalsh", "svd", "lstsq")


def _restore_name(args, kwargs):
    sym = args[0] if args else kwargs["S"]
    return f"perturb.restore_{sym.kind}"


def _hsl_name(args, kwargs):
    return f"bounds.hamiltonian_speed_limit[{kwargs.get('method', 'exact')}]"


# (defining module, attribute) -> span name, or a function of the call's
# (args, kwargs) giving the name.
SPANS = {
    (qsl.models, "rydberg_chain_model"): "models.rydberg_chain_model",
    (qsl.models, "syk_model"): "models.syk_model",
    (qsl.lie, "commutant_basis"): "lie.commutant_basis",
    (qsl.lie, "quadratic_symmetry_basis"): "lie.quadratic_symmetry_basis",
    (qsl.perturb, "restore_symmetry"): _restore_name,
    (qsl.bounds, "kernel_complement_norm_exact"): "bounds.numerator_exact",
    (qsl.bounds, "kernel_complement_norm_commutator"): "bounds.numerator_commutator",
    (qsl.bounds, "chebyshev_filter_bound"): "bounds.numerator_chebyshev",
    (qsl.bounds, "hamiltonian_speed_limit"): _hsl_name,
    (qsl.bounds, "unitary_speed_limit"): "bounds.unitary_speed_limit",
    (qsl.bounds, "optimize_symmetry"): "bounds.optimize_symmetry",
    (qsl.cli, "run_command"): "cli.run_command",
    (qsl.cli, "load_problem"): "cli.load_problem",
    (qsl.cli, "parse_pauli_expression"): "cli.parse_pauli_expression",
}

# Small primitives called tens of thousands of times: counted, not spanned,
# so their time stays in the self time of the span that called them.
COUNTED = {
    (qsl.matcore, "commutator"): "matcore.commutator.calls",
    (qsl.matcore, "operator_norm"): "matcore.operator_norm.calls",
    (qsl.matcore, "iota"): "matcore.iota.calls",
}

BOUND_SPANS = ("bounds.unitary_speed_limit",
               "bounds.hamiltonian_speed_limit[exact]",
               "bounds.hamiltonian_speed_limit[commutator]",
               "bounds.hamiltonian_speed_limit[chebyshev]")
EXACT_SOLVE = "bounds.hamiltonian_speed_limit[exact]"


def _chebyshev_work(counts, args, kwargs):
    """Filter applications and the flops they imply (computed, not measured).

    One application of (ad_H)² is two commutators: four d x d complex
    matmuls at 8 d³ flops each for a linear symmetry, or four d⁵-sized
    einsum contractions per doubled-space commutator for a quadratic one.
    """
    H, sym = args[0], args[1]
    degree = int(args[2] if len(args) > 2 else kwargs["degree"])
    d = np.shape(H)[0]
    per_apply = 32.0 * d**3 if sym.kind == "linear" else 64.0 * d**5
    counts["bounds.cheb_applications"] += degree
    counts["bounds.cheb_gflop_computed"] += degree * per_apply / 1e9


class Tracer:
    """Spans and counters for one traced stretch of solves."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.solve_id = -1
        self._stack: list[int] = []
        self._patched: list = []

    def _span_wrapper(self, fn, label):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label if isinstance(label, str) else label(args, kwargs)
            if name == "bounds.numerator_chebyshev":
                _chebyshev_work(counts, args, kwargs)
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, self.solve_id, name, t0, t1)
        return wrapper

    def _count_wrapper(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _patch(self, module, attr, fn, wrapped) -> None:
        self._patched.append((module, attr, fn))
        setattr(module, attr, wrapped)

    def install(self) -> None:
        """Wrap every traced name in each module that holds a reference."""
        targets = [(m, a, self._span_wrapper, lab) for (m, a), lab in SPANS.items()]
        targets += [(m, a, self._count_wrapper, key) for (m, a), key in COUNTED.items()]
        for home, attr, make, label in targets:
            fn = getattr(home, attr)
            wrapped = make(fn, label)
            for module in QSL_MODULES:
                if getattr(module, attr, None) is fn:
                    self._patch(module, attr, fn, wrapped)
        for attr in LINALG:
            fn = getattr(np.linalg, attr)
            self._patch(np.linalg, attr, fn,
                        self._span_wrapper(fn, f"linalg.{attr}"))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def solve(self, solve_id: int, fn, *args):
        """Run one solve under a root span whose id every nested span shares."""
        self.solve_id = solve_id
        return self._span_wrapper(fn, "solve")(*args)


def span_totals(spans) -> dict:
    """Calls, self time and busy (total) time per span name, plus the
    nesting-derived counts the benchmark reports."""
    durations = [s[5] - s[4] for s in spans]
    child_time = [0.0] * len(spans)
    for s, dur in zip(spans, durations):
        if s[1] >= 0:
            child_time[s[1]] += dur
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    busy_s: defaultdict = defaultdict(float)
    for s, dur, inner in zip(spans, durations, child_time):
        calls[s[3]] += 1
        self_s[s[3]] += dur - inner
        busy_s[s[3]] += dur

    def has_ancestor(sid: int, name: str) -> bool:
        parent = spans[sid][1]
        while parent >= 0:
            if spans[parent][3] == name:
                return True
            parent = spans[parent][1]
        return False

    candidates = sum(1 for s in spans if s[3] in BOUND_SPANS
                     and has_ancestor(s[0], "bounds.optimize_symmetry"))
    eigen_in_exact = sum(1 for s in spans
                         if s[3] in ("linalg.eigh", "linalg.eigvalsh")
                         and has_ancestor(s[0], EXACT_SOLVE))
    return {"calls": calls, "self_s": self_s, "busy_s": busy_s,
            "candidates": candidates, "eigen_in_exact": eigen_in_exact}


def layer_metrics(spans, counts) -> dict:
    """The per-layer metrics named in BENCHMARK.json (without trace overhead)."""
    t = span_totals(spans)
    calls, self_s, busy_s = t["calls"], t["self_s"], t["busy_s"]
    exact_solves = calls[EXACT_SOLVE]
    return {
        "models.rydberg_chain_model.self_s": self_s["models.rydberg_chain_model"],
        "linalg.eigh.calls": calls["linalg.eigh"],
        "linalg.eigvalsh.calls": calls["linalg.eigvalsh"],
        "linalg.eigh.busy_s": busy_s["linalg.eigh"],
        "bounds.numerator_exact.calls": calls["bounds.numerator_exact"],
        "bounds.numerator_exact.self_s": self_s["bounds.numerator_exact"],
        "linalg.eigen_calls_per_exact_solve":
            t["eigen_in_exact"] / exact_solves if exact_solves else 0.0,
        "bounds.numerator_chebyshev.self_s": self_s["bounds.numerator_chebyshev"],
        "bounds.cheb_applications": counts["bounds.cheb_applications"],
        "bounds.cheb_gflop_computed": counts["bounds.cheb_gflop_computed"],
        "bounds.numerator_commutator.self_s": self_s["bounds.numerator_commutator"],
        "matcore.operator_norm.calls": counts["matcore.operator_norm.calls"],
        "bounds.optimize_symmetry.calls": calls["bounds.optimize_symmetry"],
        "bounds.optimize_symmetry.self_s": self_s["bounds.optimize_symmetry"],
        "bounds.optimize_symmetry.candidates": t["candidates"],
        "perturb.restore_linear.calls": calls["perturb.restore_linear"],
        "perturb.restore_linear.self_s": self_s["perturb.restore_linear"],
        "perturb.restore_quadratic.calls": calls["perturb.restore_quadratic"],
        "perturb.restore_quadratic.self_s": self_s["perturb.restore_quadratic"],
        "matcore.iota.calls": counts["matcore.iota.calls"],
        "linalg.lstsq.calls": calls["linalg.lstsq"],
        "linalg.lstsq.busy_s": busy_s["linalg.lstsq"],
        "lie.commutant_basis.self_s": self_s["lie.commutant_basis"],
        "lie.quadratic_symmetry_basis.self_s": self_s["lie.quadratic_symmetry_basis"],
        "linalg.svd.calls": calls["linalg.svd"],
        "linalg.svd.busy_s": busy_s["linalg.svd"],
        "cli.run_command.self_s": self_s["cli.run_command"],
        "cli.load_problem.self_s": self_s["cli.load_problem"],
        "cli.parse_pauli_expression.calls": calls["cli.parse_pauli_expression"],
        "cli.parse_pauli_expression.self_s": self_s["cli.parse_pauli_expression"],
        "matcore.commutator.calls": counts["matcore.commutator.calls"],
    }


def unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if "gflop" in metric:
        return "GFLOP"
    return "ratio" if "_per_" in metric else "count"


def exact_counts(spans, counts) -> dict:
    """Everything in a traced stretch that must repeat exactly on a rerun."""
    t = span_totals(spans)
    return {**{f"{k}.calls": v for k, v in sorted(t["calls"].items())},
            **dict(sorted(counts.items())),
            "candidates": t["candidates"], "eigen_in_exact": t["eigen_in_exact"]}
