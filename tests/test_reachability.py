"""Soundness oracle: every bound is at most the time of a pulse that reaches
the target.

Controls that are block-diagonal in the eigenbasis of S commute with S, so S
is a symmetry of the controls.  Random piecewise-constant pulses then give a
unitary U = propagate_piecewise(...) that the system reaches in T, the total
pulse time, and every valid lower bound on the time to implement U is at
most T.  A bound may also refuse: a QslError is always sound.

Half the drifts are block-diagonal too, so they keep S in exact arithmetic
and only rounding breaks it.  The restored ΔH and the breaking norm are
then all noise, and a bound formed from them is not a
bound; restoration's acceptance test must catch these drifts and every
bound must refuse them.  ``uniform_speed_limit`` is not checked: it bounds
no particular U (the identity is reached at T = 0).

The same oracle runs through the CLI pipeline, discovery, the symmetry
search, restoration and the bound, on problem files whose target is a pulse
sequence's U, and on the drift-only T1b route, which restores S.

T2 has an oracle of the same kind.  Its value is invariant under
H_s -> λ H_s, so it bounds no fixed simulation time; read as the time to
reach the hardest point of the orbit {e^{-i H_s t} : t >= 0} (a
reconstruction, see ``qsl.bounds``), it is at most the time in which the
controls reach every point of a periodic orbit.  Drift X, control Z and
H_s = X + uZ: the constant control u runs the orbit, whose period is
τ_p = 2π/√(1 + u²).
"""

import math

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsl.bounds import (
    hamiltonian_speed_limit,
    single_control_bound,
    unitary_speed_limit,
)
from qsl.cli import matrix_to_json, run_command
from qsl.lie import Symmetry, quadratic_symmetry_basis
from qsl.matcore import PAULI, QslError
from qsl.models import Problem, PulseSchedule, propagate_piecewise
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
    U = propagate_piecewise(Problem(drift, controls), pulses)
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


@given(d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
       other=st.sampled_from(["random", "near", "scaled", "keeps", "same"]))
@settings(max_examples=60, deadline=None)
def test_delta_h_restored_for_another_drift(d, seed, other):
    """A ΔH restored for a drift D1 but given to the bound with the drift
    D2 that reaches U: the bound raises or stays at most T.  D1 is a random
    drift, D2 plus a small change, a multiple of D2, a drift that keeps S,
    or D2 itself."""
    rng = np.random.default_rng(seed)
    W = random_unitary(rng, d)
    sizes = [1, d - 1]
    S = Symmetry("linear", (W * np.repeat([1.0, -1.0], sizes)) @ W.conj().T)
    controls = [_block_diagonal(rng, W, sizes)]
    D2 = random_hermitian(rng, d)
    D1 = {"random": random_hermitian(rng, d),
          "near": D2 + 1e-3 * random_hermitian(rng, d),
          "scaled": rng.uniform(0.1, 3.0) * D2,
          "keeps": _block_diagonal(rng, W, sizes),
          "same": D2}[other]
    U, T = _reached(rng, D2, controls, zero_pulses=False)
    pert = restore_symmetry(S, D1)
    _assert_sound(lambda: unitary_speed_limit(U, S, pert,
                                              drift=D2).bound_time, T)


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
def test_drift_only_bound_divides_by_the_restored_delta_h(seed, segments):
    """Control Z, drift X, U reached at T = 0.3: the drift-only T1b divides
    by ||ΔH||_inf = 1 of the restored ΔH = -X, which is below the analytic
    cap ||[Z, X]||_F / σ_min(Z) = √2, so the bound is higher than the cap's
    and still at most the pulses' time."""
    rng = np.random.default_rng(seed)
    pulses = PulseSchedule(0.3 / segments,
                           2.0 * rng.standard_normal((1, segments)))
    X, Z = PAULI["X"], PAULI["Z"]
    U = propagate_piecewise(Problem(X, [Z]), pulses)
    rep = unitary_speed_limit(U, Symmetry("linear", Z), drift=X)
    assert rep.intermediates["delta_h_op_norm"] == 1.0
    assert rep.bound_time <= pulses.total_time * SLACK


def _orbit(u):
    """(drift X, control Z, H_s = X + uZ, the orbit's period τ_p)."""
    X, Z = PAULI["X"], PAULI["Z"]
    return X, Z, X + u * Z, 2 * math.pi / math.sqrt(1 + u * u)


@given(u=st.floats(-3, 3), a=st.floats(-2, 2), b=st.floats(-2, 2),
       degree=st.sampled_from([None, 1, 5, 64]))
@settings(max_examples=60, deadline=None)
def test_hamiltonian_bounds_never_exceed_the_orbit_period(u, a, b, degree):
    """Every T2 bound, for every numerator, with the restored ΔH supplied or
    restored from the drift, and for every S = a·1 + b·Z of the controls'
    commutant, is at most τ_p."""
    X, Z, H_s, tau = _orbit(u)
    S = Symmetry("linear", a * np.eye(2) + b * Z)
    for method, extra in (("exact", {}), ("commutator", {}),
                          ("chebyshev", {"degree": degree})):
        _assert_sound(lambda: hamiltonian_speed_limit(
            H_s, S, restore_symmetry(S, X), method=method,
            **extra).bound_time, tau)
        _assert_sound(lambda: hamiltonian_speed_limit(
            H_s, S, method=method, drift=X, **extra).bound_time, tau)


@pytest.mark.parametrize("u", [0.0, 0.3, -1.7])
def test_orbit_bound_closed_form(u):
    """With S = Z, ΔH = -X: exact and commutator both give
    1/(√2·√(1 + u²)), 0.6772855 against τ_p = 6.018 at u = 0.3, and
    chebyshev stays below them."""
    X, Z, H_s, tau = _orbit(u)
    S = Symmetry("linear", Z)
    pert = restore_symmetry(S, X)
    closed = 1 / (math.sqrt(2) * math.sqrt(1 + u * u))
    for method in ("exact", "commutator"):
        rep = hamiltonian_speed_limit(H_s, S, pert, method=method)
        assert rep.bound_time == pytest.approx(closed, rel=1e-12)
    cheb = hamiltonian_speed_limit(H_s, S, pert, method="chebyshev")
    assert cheb.bound_time <= closed * SLACK
    assert closed < tau


@pytest.mark.parametrize("method", ["exact", "commutator"])
@pytest.mark.parametrize("u", [0.0, 0.3, -1.7])
@pytest.mark.parametrize("search_seed", [0, 3])
def test_cli_hamiltonian_bound_never_exceeds_the_orbit_period(method, u,
                                                              search_seed):
    """``bound hamiltonian`` discovers {1, Z}, searches their span and
    restores: its bound is at most τ_p, and at most the closed form of
    S = Z, the best S of the span, which the search comes close to."""
    X, Z, H_s, tau = _orbit(u)
    problem = {"qubits": 1, "drift": {"matrix": matrix_to_json(X)},
               "controls": [{"matrix": matrix_to_json(Z)}],
               "target": {"hamiltonian": {"matrix": matrix_to_json(H_s)}}}
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(out):
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(problem))
        code = run_command(["bound", "hamiltonian", str(path), "--method",
                            method, "--optimize-symmetry", "20", "--seed",
                            str(search_seed), "--json-only"])
    assert code == 0
    bound = json.loads(out.getvalue())["bound_time"]
    closed = 1 / (math.sqrt(2) * math.sqrt(1 + u * u))
    assert bound <= tau
    assert closed * (1 - 1e-4) <= bound <= closed * SLACK


def _item1_targets():
    """Drift Z0 Z1, controls X0 and Z0: three targets U, each reached by a
    3-segment piecewise-constant pulse with N(0, 2²) amplitudes in a total
    time T in [0.05, 0.6] (numpy seed 0)."""
    X, Z, I2 = PAULI["X"], PAULI["Z"], PAULI["I"]
    drift = np.kron(Z, Z)
    controls = [np.kron(X, I2), np.kron(Z, I2)]
    rng = np.random.default_rng(0)
    targets = []
    for _ in range(3):
        T = float(rng.uniform(0.05, 0.6))
        pulses = PulseSchedule(T / 3, 2.0 * rng.standard_normal((2, 3)))
        targets.append((propagate_piecewise(Problem(drift, controls),
                                            pulses), pulses.total_time))
    return drift, controls, targets


@pytest.mark.parametrize("tol", ["0.5", "0.7", "0.8"])
@pytest.mark.parametrize("kind", ["linear", "quadratic"])
def test_large_rank_tolerance_never_exceeds_a_reaching_time(kind, tol):
    """A rank cut that lets non-null directions into the nullspace once
    listed 12 linear "symmetries" at tol 0.8 (4 are true) and bounds up to
    563 times the pulse time.  Discovery now re-checks every element at a
    rounding-level defect that no tol widens, and refuses (exit 1) what
    fails it; a bound that does follow stays at most T."""
    drift, controls, targets = _item1_targets()
    for U, T in targets:
        problem = {"qubits": 2, "drift": {"matrix": matrix_to_json(drift)},
                   "controls": [{"matrix": matrix_to_json(C)}
                                for C in controls],
                   "target": {"unitary": {"matrix": matrix_to_json(U)}}}
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            path = Path(tmp) / "problem.json"
            path.write_text(json.dumps(problem))
            code = run_command(["bound", "unitary", str(path), "--kind", kind,
                                "--optimize-symmetry", "5", "--tol", tol,
                                "--json-only"])
        assert code in (0, 1), err.getvalue()
        if code == 0:
            bound = json.loads(out.getvalue())["bound_time"]
            assert bound <= T * SLACK, (bound, T)
        else:
            assert err.getvalue().count("\n") == 1
