"""Soundness oracle: every bound is at most the time of a pulse that reaches
the target.

Controls that are block-diagonal in the eigenbasis of S commute with S, so S
is a symmetry of the controls.  Random piecewise-constant pulses then give a
unitary U = propagate_piecewise(...) that the system reaches in T, the total
pulse time, and every valid lower bound on the time to implement U is at
most T.  A bound may also refuse: a QslError is always sound.

Half the drifts are block-diagonal too, so they keep S in exact arithmetic
and only rounding breaks it.  The restored ΔH, the analytic cap and the
breaking norm are then all noise, and a bound formed from them is not a
bound; restoration's acceptance test must catch these drifts and every
bound must refuse them.  ``uniform_speed_limit`` is not checked: it bounds
no particular U (the identity is reached at T = 0).

The same oracle runs through the CLI pipeline, discovery, the symmetry
search, restoration and the bound, on problem files whose target is a pulse
sequence's U, and on the analytic T1b route, whose σ_min is measured.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from qsl.bounds import single_control_bound, unitary_speed_limit
from qsl.cli import matrix_to_json, run_command
from qsl.lie import Symmetry, quadratic_symmetry_basis
from qsl.matcore import PAULI, QslError
from qsl.models import ControlSystem, PulseSchedule, propagate_piecewise
from qsl.perturb import restore_symmetry
from conftest import random_hermitian, random_unitary

SLACK = 1 + 1e-9


def _block_diagonal(rng, W, sizes):
    """W B W† for a random Hermitian B, block-diagonal with the given sizes."""
    d = W.shape[0]
    B = np.zeros((d, d), dtype=complex)
    start = 0
    for n in sizes:
        B[start:start + n, start:start + n] = random_hermitian(rng, n)
        start += n
    return W @ B @ W.conj().T


def _reached(rng, drift, controls, zero_pulses):
    """(U, T) for random piecewise-constant pulses, or none at all."""
    segments = int(rng.integers(1, 5))
    amplitudes = (np.zeros((len(controls), segments)) if zero_pulses
                  else 2.0 * rng.standard_normal((len(controls), segments)))
    pulses = PulseSchedule(float(rng.uniform(0.01, 0.3)), amplitudes)
    U = propagate_piecewise(ControlSystem(drift, controls), pulses)
    return U, pulses.total_time


def _assert_sound(bound, T):
    """bound() raises a QslError or returns at most T."""
    try:
        value = bound()
    except QslError:
        return
    assert value <= T * SLACK, (value, T)


def _assert_unitary_bounds_sound(U, S, drift, T):
    def restored():
        return unitary_speed_limit(U, S, restore_symmetry(S, drift)).bound_time

    def from_drift():
        return unitary_speed_limit(U, S, drift=drift).bound_time

    _assert_sound(restored, T)
    _assert_sound(from_drift, T)


@given(d=st.integers(2, 5), seed=st.integers(0, 2**32 - 1),
       keeps=st.booleans(), zero_pulses=st.booleans(),
       n_controls=st.integers(1, 3))
@settings(max_examples=150, deadline=None)
def test_linear_bounds_never_exceed_a_reaching_time(d, seed, keeps,
                                                    zero_pulses, n_controls):
    rng = np.random.default_rng(seed)
    W = random_unitary(rng, d)
    clusters = int(rng.integers(2, d + 1))
    # every cluster nonempty, the rest spread at random
    sizes = np.bincount(np.concatenate([np.arange(clusters),
                                        rng.integers(0, clusters,
                                                     d - clusters)]))
    values = np.repeat(rng.permutation(clusters) + rng.uniform(-0.3, 0.3),
                       sizes)
    S = Symmetry("linear", (W * values) @ W.conj().T)
    controls = [_block_diagonal(rng, W, sizes) for _ in range(n_controls)]
    drift = (_block_diagonal(rng, W, sizes) if keeps
             else random_hermitian(rng, d))
    U, T = _reached(rng, drift, controls, zero_pulses)

    _assert_unitary_bounds_sound(U, S, drift, T)
    if n_controls == 1:  # the control is then itself a symmetry
        _assert_sound(lambda: single_control_bound(drift, controls[0], U), T)


@given(seed=st.integers(0, 2**32 - 1), keeps=st.booleans(),
       zero_pulses=st.booleans())
@settings(max_examples=40, deadline=None)
def test_quadratic_bound_never_exceeds_a_reaching_time(seed, keeps,
                                                       zero_pulses):
    """Two qubits with one local control each; S a random real combination
    of their quadratic symmetries, bounded by T1a with the restored ΔH.  A
    drift in the span of the controls keeps every such S."""
    rng = np.random.default_rng(seed)
    one = np.eye(2)
    controls = [np.kron(random_hermitian(rng, 2), one),
                np.kron(one, random_hermitian(rng, 2))]
    basis = quadratic_symmetry_basis(controls)
    S = Symmetry("quadratic", sum(rng.standard_normal() * b.matrix
                                  for b in basis))
    drift = (sum(rng.standard_normal() * C for C in controls) if keeps
             else random_hermitian(rng, 4))
    U, T = _reached(rng, drift, controls, zero_pulses)
    _assert_unitary_bounds_sound(U, S, drift, T)


def _axis(rng) -> np.ndarray:
    """n·σ for a random unit vector n."""
    n = rng.standard_normal(3)
    n /= np.linalg.norm(n)
    return sum(c * PAULI[p] for c, p in zip(n, "XYZ"))


@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["linear",
                                                             "quadratic"]),
       iterations=st.integers(0, 4), search_seed=st.integers(0, 9))
@settings(max_examples=20, deadline=None)
def test_cli_pipeline_never_exceeds_a_reaching_time(seed, kind, iterations,
                                                    search_seed):
    """Qubit 0 is controlled along two random axes, qubit 1 along one, n·σ,
    so the linear commutant holds 1⊗n·σ; the drift is g·Z⊗Z plus random
    local fields.  ``bound unitary`` discovers, searches and restores, and
    its bound must stay at most the time of the pulses reaching the target,
    or it must refuse (exit 1)."""
    rng = np.random.default_rng(seed)
    one = np.eye(2)
    controls = [np.kron(_axis(rng), one), np.kron(_axis(rng), one),
                np.kron(one, _axis(rng))]
    drift = (rng.uniform(0.2, 2.0) * np.kron(PAULI["Z"], PAULI["Z"])
             + np.kron(random_hermitian(rng, 2), one)
             + np.kron(one, random_hermitian(rng, 2)))
    U, T = _reached(rng, drift, controls, zero_pulses=False)
    problem = {"qubits": 2, "drift": {"matrix": matrix_to_json(drift)},
               "controls": [{"matrix": matrix_to_json(C)} for C in controls],
               "target": {"unitary": {"matrix": matrix_to_json(U)}}}
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(problem))
        code = run_command(["bound", "unitary", str(path), "--kind", kind,
                            "--optimize-symmetry", str(iterations),
                            "--seed", str(search_seed), "--json-only"])
    assert code in (0, 1)
    if code == 0:
        bound = json.loads(out.getvalue())["bound_time"]
        assert bound <= T * SLACK, (bound, T)


@given(seed=st.integers(0, 2**32 - 1), segments=st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_analytic_bound_divides_by_the_measured_gap(seed, segments):
    """Control Z, drift X, U reached at T = 0.3: the analytic T1b divides by
    σ_min(Z) = 2, measured from Z.  A gap of 50, which a caller could once
    set, gave T >= 5.2 for such a U."""
    rng = np.random.default_rng(seed)
    pulses = PulseSchedule(0.3 / segments,
                           2.0 * rng.standard_normal((1, segments)))
    X, Z = PAULI["X"], PAULI["Z"]
    U = propagate_piecewise(ControlSystem(X, [Z]), pulses)
    rep = unitary_speed_limit(U, Symmetry("linear", Z), drift=X)
    assert rep.intermediates["sigma_min"] == 2.0
    assert rep.bound_time <= pulses.total_time * SLACK
