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
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from qsl.bounds import single_control_bound, unitary_speed_limit
from qsl.lie import Symmetry, quadratic_symmetry_basis
from qsl.matcore import QslError
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
