"""The prepared ad_H kernel behind every Hamiltonian numerator.

The kernel applies ad_L (L = H or H⊗1 + 1⊗H) with one product per
application by exploiting hermiticity.  These tests hold it against the plain
commutator formulas it replaced, which survive here only as oracles.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsl.bounds import (
    ChebyshevFilter,
    _AdKernel,
    chebyshev_degree_for,
    chebyshev_filter_bound,
    hamiltonian_speed_limit,
    kernel_complement_norm_commutator,
    kernel_complement_norm_exact,
)
from qsl.lie import Symmetry
from qsl.matcore import TAU_H, commutator, hermitize, iota
from qsl.models import rydberg_chain_model
from qsl.perturb import Perturbation
from conftest import random_hermitian


def iota_commutator(H, Y):
    """[H⊗1 + 1⊗H, Y] with four d-dimensional contractions."""
    d = H.shape[0]
    Y4 = Y.reshape(d, d, d, d)
    out = (np.einsum("ae,ebcd->abcd", H, Y4)
           + np.einsum("bf,afcd->abcd", H, Y4)
           - np.einsum("abed,ec->abcd", Y4, H)
           - np.einsum("abcf,fd->abcd", Y4, H))
    return out.reshape(d * d, d * d)


def draw_hermitian(rng, d, real):
    if real:
        return hermitize(rng.standard_normal((d, d))).real
    return random_hermitian(rng, d)


def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def chebyshev_reference(H, S, degree, lo, hi):
    """The numerator with the original 4-matmul double commutator and ||S||."""
    Z = ChebyshevFilter(degree, lo, hi).apply(
        lambda Y: commutator(H, commutator(H, Y)), S.matrix)
    return float(np.sqrt(max(0.0, S.frobenius**2 - np.linalg.norm(Z)**2)))


def true_gap_interval(H):
    w = np.linalg.eigvalsh(H)
    gaps = np.abs(np.subtract.outer(w, w)).reshape(-1)
    nz = gaps[gaps > 1e-9 * np.max(gaps)]
    return float(nz.min() ** 2), float(nz.max() ** 2)


class TestDifferential:
    @given(d=st.integers(2, 7), seed=st.integers(0, 2**32 - 1),
           real=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_linear_ad_and_ad2(self, d, seed, real):
        rng = np.random.default_rng(seed)
        H = draw_hermitian(rng, d, real)
        Y = draw_hermitian(rng, d, real)
        k = _AdKernel(H, Symmetry("linear", Y))
        assert k.S.dtype == (np.float64 if real else np.complex128)
        once = commutator(H, Y)
        assert rel_err(k.ad(k.S), once) <= 1e-12
        assert rel_err(k.ad2(k.S), commutator(H, once)) <= 1e-12

    @given(d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
           real=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_quadratic_lift(self, d, seed, real):
        rng = np.random.default_rng(seed)
        H = draw_hermitian(rng, d, real)
        Y = draw_hermitian(rng, d * d, real)
        k = _AdKernel(H, Symmetry("quadratic", Y))
        once = iota_commutator(H, Y)
        assert rel_err(k.ad(k.S), once) <= 1e-12
        assert rel_err(k.ad2(k.S), iota_commutator(H, once)) <= 1e-12
        # the einsum oracle itself against the materialized lift
        assert rel_err(once, commutator(iota(H), Y)) <= 1e-12

    def test_mixed_real_hamiltonian_complex_symmetry(self, rng):
        H = draw_hermitian(rng, 5, real=True)
        Y = random_hermitian(rng, 5)
        k = _AdKernel(H.astype(complex), Symmetry("linear", Y))
        assert k.H.dtype == np.float64 and k.S.dtype == np.complex128
        assert rel_err(k.ad2(k.S), commutator(H, commutator(H, Y))) <= 1e-12

    def test_chebyshev_rydberg_n5(self):
        b = rydberg_chain_model(5)
        lo, hi = b.spectral_estimates
        degree = chebyshev_degree_for(1e-2, lo, hi)
        got, _ = chebyshev_filter_bound(b.target_hamiltonian, b.symmetry,
                                        degree, lo, hi)
        want = chebyshev_reference(b.target_hamiltonian, b.symmetry, degree,
                                   lo, hi)
        assert got == pytest.approx(want, rel=1e-10)

    def test_chebyshev_complex_hermitian_d8(self, rng):
        H = random_hermitian(rng, 8)
        S = Symmetry("linear", random_hermitian(rng, 8))
        lo, hi = true_gap_interval(H)
        degree = chebyshev_degree_for(1e-3, lo, hi)
        got, _ = chebyshev_filter_bound(H, S, degree, lo, hi)
        assert got == pytest.approx(chebyshev_reference(H, S, degree, lo, hi),
                                    rel=1e-10)


class TestToleranceEdge:
    """Inputs that are Hermitian only within TAU_H."""

    @staticmethod
    def noisy_problem(rng, noise, d=6):
        levels = rng.choice(np.arange(25), size=d, replace=False).astype(float)
        Q, _ = np.linalg.qr(rng.standard_normal((d, d))
                            + 1j * rng.standard_normal((d, d)))
        H = hermitize((Q * levels) @ Q.conj().T)

        def anti_hermitian():
            A = random_hermitian(rng, d)
            return 1j * noise * A / np.linalg.norm(A)

        # mostly in the kernel of ad_H, a small breaking part, and
        # anti-Hermitian noise of Frobenius norm `noise`
        S = hermitize(H @ H) / np.linalg.norm(H) ** 2 \
            + 1e-4 * random_hermitian(rng, d) + anti_hermitian()
        return H + anti_hermitian(), Symmetry("linear", S), true_gap_interval(H)

    @pytest.mark.parametrize("noise", [1e-12, 0.4 * TAU_H])
    @pytest.mark.parametrize("seed", range(4))
    def test_cheap_numerators_stay_below_exact(self, seed, noise):
        rng = np.random.default_rng(seed)
        H, S, (lo, hi) = self.noisy_problem(rng, noise)
        assert np.linalg.norm(S.matrix - S.matrix.conj().T) > 0
        exact = kernel_complement_norm_exact(H, S)
        assert exact > 0
        assert kernel_complement_norm_commutator(H, S) <= exact
        for eps in (0.3, 1e-1, 1e-2):
            degree = chebyshev_degree_for(eps, lo, hi)
            cheb, _ = chebyshev_filter_bound(H, S, degree, lo, hi)
            assert cheb <= exact

    @pytest.mark.parametrize("noise", [1e-12, 0.4 * TAU_H])
    def test_numerators_see_only_hermitised_inputs(self, rng, noise):
        H, S, (lo, hi) = self.noisy_problem(rng, noise)
        Hh, Sh = hermitize(H), Symmetry("linear", hermitize(S.matrix))
        degree = chebyshev_degree_for(1e-2, lo, hi)
        for numerator in (kernel_complement_norm_exact,
                          kernel_complement_norm_commutator,
                          lambda H_, S_: chebyshev_filter_bound(H_, S_, degree,
                                                                lo, hi)):
            assert numerator(H, S) == numerator(Hh, Sh)


class TestExactPathCost:
    @pytest.mark.parametrize("real", [True, False])
    def test_single_eigendecomposition(self, monkeypatch, rng, real):
        H = draw_hermitian(rng, 6, real)
        S = Symmetry("linear", draw_hermitian(rng, 6, real))
        pert = Perturbation.from_matrix(S, draw_hermitian(rng, 6, real))
        calls = []
        for name in ("eigh", "eigvalsh"):
            fn = getattr(np.linalg, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls.append((_name, args[0].dtype))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        rep = hamiltonian_speed_limit(H, S, pert, method="exact")
        assert rep.bound_time > 0
        assert calls == [("eigh", np.float64 if real else np.complex128)]
