"""Permutation symmetries applied as gathers.

A linear symmetry S that is a float64 permutation matrix (the Rydberg swap
of atoms 1 and 2) has every product with S made as an index gather: the
restoration residual, the first factor of the eigenframe and the commutator
numerator.  Each value must equal, bit for bit, the value of the matmul
path, which these tests reach by patching the detector that ``Symmetry``
reads to find no permutation.  Matrices that are nearly, but not exactly,
permutations must take the matmul path.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qsl.lie
from qsl.bounds import (
    _StackScorer,
    chebyshev_degree_for,
    hamiltonian_speed_limit,
)
from qsl.lie import Symmetry
from qsl.matcore import (
    QslError,
    _permutation_of,
    _times_symmetry,
    permutation_operator,
)
from qsl.models import rydberg_chain_model
from qsl.perturb import Perturbation, restore_symmetry
from conftest import random_hermitian
from test_float_bundle import PARAMS
from test_search_scorer import _candidates, _public_objective, _public_value

METHODS = ("exact", "commutator", "chebyshev")


@contextlib.contextmanager
def _dense():
    """A context in which ``Symmetry`` finds no permutation: every product
    with S is a matmul."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qsl.lie, "_permutation_of", lambda A: None)
        yield


def _outcome(fn):
    """fn()'s report as (bound, intermediates, warnings), or the error it
    raises with its diagnostics (a ConditioningError's residual)."""
    try:
        rep = fn()
    except QslError as err:
        return type(err).__name__, str(err), getattr(err, "diagnostics", None)
    return rep.bound_time, rep.intermediates, rep.warnings


def _reports(H_s, S, drift, dH, filt=None):
    """Every number a bound of H_s under S reads: the from_matrix residual
    with and without a recorded drift, and the report of each method with
    the perturbation, with only the drift (restored), and with a
    perturbation whose residual is formed again."""
    pert = Perturbation.from_matrix(S, dH, drift=drift)
    out = [pert.residual, pert.op_norm]
    for method in METHODS:
        kwargs = dict(filt or {}) if method == "chebyshev" else {}
        for given, known in ((pert, None), (None, drift),
                             (Perturbation(dH, S), drift)):
            out.append(_outcome(lambda: hamiltonian_speed_limit(
                H_s, S, given, method=method, drift=known, **kwargs)))
    return out


def _both_paths(matrix, kind, H_s, drift, dH, filt=None):
    """(σ, reports) of a fresh symmetry, and (σ, reports) of one made with
    the detector patched out."""
    S = Symmetry(kind, matrix)
    got = S._permutation, _reports(H_s, S, drift, dH, filt)
    with _dense():
        T = Symmetry(kind, matrix)
        want = T._permutation, _reports(H_s, T, drift, dH, filt)
    return got, want


class TestDetector:
    def test_finds_the_permutation(self):
        sigma = np.array([2, 0, 1, 3])
        P = np.zeros((4, 4))
        P[np.arange(4), sigma] = 1.0
        assert np.array_equal(_permutation_of(P), sigma)
        assert np.array_equal(_permutation_of(np.eye(3)), np.arange(3))

    @pytest.mark.parametrize("case", [
        "complex", "int", "rect", "stack", "zero_row", "repeated_column",
        "minus_one", "two", "nan", "dense"])
    def test_refuses(self, case):
        P = np.eye(4)[[1, 0, 2, 3]]
        bad = {
            "complex": P.astype(complex),
            "int": P.astype(int),
            "rect": P[:3],
            "stack": np.array([P, P]),
            "zero_row": np.eye(4)[[1, 1, 2, 3]].T,
            "repeated_column": np.eye(4)[[1, 1, 2, 3]],
            "minus_one": P * np.array([1.0, 1.0, -1.0, 1.0]),
            "two": 2.0 * P,
            "nan": np.where(P == 1.0, np.nan, 0.0),
            "dense": np.ones((4, 4)),
        }[case]
        assert _permutation_of(bad) is None

    def test_dense_exits_before_allocating(self):
        """A dense float64 S at d = 256 is refused by the count of its
        nonzeros, with no array the size of them."""
        A = np.random.default_rng(0).standard_normal((256, 256))
        _permutation_of(A)  # first-call allocations
        tracemalloc.start()
        try:
            assert _permutation_of(A) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4096, peak

    @pytest.mark.parametrize("real", [True, False])
    def test_gathers_equal_products(self, rng, real):
        P = rydberg_chain_model(4).symmetry.matrix
        sigma = _permutation_of(P)
        X = random_hermitian(rng, 16)
        X = X.real.copy() if real else X
        for right in (False, True):
            for Y in (X, X.T):  # C- and F-ordered operands
                got = _times_symmetry(P, Y, sigma, right)
                want = _times_symmetry(P, Y, None, right)
                assert got.flags.c_contiguous
                assert np.array_equal(got, want)


@pytest.mark.parametrize("params", range(len(PARAMS)))
@pytest.mark.parametrize("N", range(3, 11))
def test_rydberg_equals_the_matmul_path(N, params):
    """Every report and residual of the Rydberg bundle, bit for bit: the
    bundle's own residual and ΔH norm, and ``_reports`` with the
    defaulted Chebyshev interval and with the bundle's estimates."""
    b = rydberg_chain_model(N, **PARAMS[params])
    with _dense():
        c = rydberg_chain_model(N, **PARAMS[params])
    assert c.symmetry._permutation is None
    assert b.symmetry._permutation is not None
    assert b.perturbation.residual == c.perturbation.residual
    assert b.perturbation.op_norm == c.perturbation.op_norm
    lo, hi = b.spectral_estimates
    for filt in (None, {"degree": chebyshev_degree_for(1e-2, lo, hi),
                        "sigma_min_est": lo, "sigma_max_est": hi}):
        (sigma, got), (none, want) = _both_paths(
            b.symmetry.matrix, "linear", b.target_hamiltonian,
            b.drift, b.perturbation.matrix, filt)
        assert sigma is not None and none is None
        assert got == want


def _involution(rng, d):
    """A random involutive permutation of d points: a random number of
    disjoint transpositions, as σ and as its float64 matrix."""
    order = rng.permutation(d)
    k = int(rng.integers(0, d // 2 + 1))
    sigma = np.arange(d)
    sigma[order[:k]], sigma[order[k:2 * k]] = order[k:2 * k], order[:k]
    P = np.zeros((d, d))
    P[np.arange(d), sigma] = 1.0
    return sigma, P


def _draw(rng, d, real):
    H = random_hermitian(rng, d)
    return H.real.copy() if real else H


@given(d=st.integers(1, 12), seed=st.integers(0, 2**32 - 1),
       real_h=st.booleans(), real_drift=st.booleans(),
       real_dh=st.booleans())
@settings(max_examples=60, deadline=None)
def test_random_involutions(d, seed, real_h, real_drift, real_dh):
    """A random involution against random real and complex Hermitian
    targets, drifts and ΔH: the gathers give the matmul path's values (or
    its errors, for the identity, which every drift keeps)."""
    rng = np.random.default_rng(seed)
    sigma, P = _involution(rng, d)
    H_s, drift, dH = (_draw(rng, d, r) for r in (real_h, real_drift, real_dh))
    (got_sigma, got), (none, want) = _both_paths(P, "linear", H_s, drift, dH)
    assert np.array_equal(got_sigma, sigma) and none is None
    assert got == want


def _swap(N=4):
    return rydberg_chain_model(N).symmetry.matrix.copy()


def _first_moved(P):
    """(i, σ(i)) for the first index the permutation P moves."""
    sigma = _permutation_of(P)
    i = int(np.flatnonzero(sigma != np.arange(len(P)))[0])
    return i, int(sigma[i])


def _near_miss(case):
    """A Hermitian matrix that is nearly the N = 4 swap, or a permutation
    of the wrong kind, and its kind."""
    P = _swap()
    i, j = _first_moved(P)
    if case == "one_ulp_below_one":
        P[i, j] = P[j, i] = 1.0 - 2.0**-52
    elif case == "extra_tiny_entry":
        P[i, i] = 1e-300
    elif case == "complex_phase":
        P = P.astype(complex)
        P[i, j], P[j, i] = 1j, -1j
    elif case == "hermitised_cycle":
        C = np.eye(16)[np.roll(np.arange(16), 1)]
        P = (C + C.T) / 2
    elif case == "quadratic":
        return permutation_operator([1, 0], [4, 4]).real.copy(), "quadratic"
    return P, "linear"


@pytest.mark.parametrize("case", ["one_ulp_below_one", "extra_tiny_entry",
                                  "complex_phase", "hermitised_cycle",
                                  "quadratic"])
def test_near_misses_take_the_matmul_path(rng, case):
    """A 1 off by one ulp, an extra 1e-300, a phase, the hermitised 16-cycle
    (a non-involution) and a quadratic swap find no permutation, and give
    the bounds of the matmul path."""
    M, kind = _near_miss(case)
    d = 4 if kind == "quadratic" else 16
    H_s, drift, dH = (random_hermitian(rng, d) for _ in range(3))
    (sigma, got), (_, want) = _both_paths(M, kind, H_s, drift, dH)
    assert sigma is None
    assert got == want
    if case == "one_ulp_below_one":  # and stays next to the exact swap's
        (_, exact), _ = _both_paths(_swap(), kind, H_s, drift, dH)
        assert exact[3][0] == pytest.approx(got[3][0], rel=1e-12)


@pytest.mark.parametrize("method", ["exact", "commutator"])
@pytest.mark.parametrize("N", [4, 5, 6])
def test_scorer_drops_the_permutation(N, method):
    """A scorer prepared with the Rydberg swap scores stacks of other
    candidates: its numerators take them with no σ, so each row is its
    public bound."""
    rng = np.random.default_rng(N)
    b = rydberg_chain_model(N)
    drift, H_s = b.drift, b.target_hamiltonian
    assert b.symmetry._permutation is not None
    scorer = _StackScorer(b.symmetry, drift, target_hamiltonian=H_s,
                          method=method)
    M = _candidates(rng, "linear", 2**N, drift)
    M = np.concatenate([M, (b.symmetry.matrix / 2**(N / 2))[None]])
    got = scorer(M)
    objective = _public_objective(drift, H_s=H_s, method=method)
    want = np.array([_public_value(objective, Symmetry("linear", m))
                     for m in M])
    live = ~np.isneginf(want)
    assert live.sum() >= len(M) - 2
    assert np.array_equal(np.isneginf(got), ~live)
    np.testing.assert_allclose(got[live], want[live], rtol=1e-10, atol=0)
    # the unit swap's public bound is the bound of the swap itself
    swap = hamiltonian_speed_limit(
        H_s, b.symmetry, restore_symmetry(b.symmetry, drift),
        method=method).bound_time
    assert want[-1] == pytest.approx(swap, rel=1e-10)
