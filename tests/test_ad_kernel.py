"""The prepared ad_H kernel behind every Hamiltonian numerator.

The kernel applies L (L = H or H⊗1 + 1⊗H) with one product, and ad_L on a
Hermitian argument with one product by exploiting hermiticity.  These tests
hold it against the plain commutator formulas it replaced, which survive
here only as oracles, and hold the eigenframe Chebyshev numerator, the
exact numerator's frame with a weight on each entry, against the
three-term recurrence and the explicit residual it replaced.
"""

import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qsl import matcore
from qsl.bounds import (
    ChebyshevFilter,
    _AdKernel,
    _eigenframe,
    _exact_projection,
    _sectors,
    _similarity,
    chebyshev_degree_for,
    chebyshev_filter_bound,
    hamiltonian_speed_limit,
    kernel_complement_norm_commutator,
    kernel_complement_norm_exact,
)
from qsl.lie import Symmetry
from qsl.matcore import TAU_H, commutator, hermitize, iota, operator_norm
from qsl.models import rydberg_chain_model
from qsl.perturb import Perturbation
from conftest import pairwise_kernel_complement, random_hermitian


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


def times_l(kernel, Y):
    """L Y, the product behind every numerator: H Y, or the lift
    contracted for quadratic S."""
    if kernel.kind == "quadratic":
        return matcore._times_lift(kernel.H, Y)
    return matcore._times_symmetry(Y, kernel.H, right=True)


def ad(kernel, Y):
    """[L, Y] for Hermitian Y: P - P† with P = L Y."""
    P = times_l(kernel, Y)
    return P - P.conj().T


def ad_anti(kernel, C):
    """[L, C] for anti-Hermitian C: Q + Q† with Q = L C."""
    Q = times_l(kernel, C)
    return Q + Q.conj().T


def ad2(kernel, Y):
    """[L, [L, Y]] for Hermitian Y: the recurrence oracle's operator."""
    return ad_anti(kernel, ad(kernel, Y))


def certified_numerator(kernel, S, X):
    """sqrt(max(0, ||S||² - ||S - ad_L X||²)) for the symmetry matrix S and
    any X, with ad_L X formed explicitly: the former Chebyshev value.

    ad_L is self-adjoint under the Hilbert-Schmidt inner product, so
    P_ker(S - ad_L X) = P_ker S and the residual is at least as large as
    the kernel component of S: the value is a lower bound on
    ||(1 - P_ker) S||_F however X was computed.  Only the anti-Hermitian
    part of X is used; its Hermitian part would add an anti-Hermitian term,
    orthogonal to the Hermitian rest of the residual, and so only enlarge it.
    """
    C = X - X.conj().T
    C *= 0.5
    A = ad_anti(kernel, C)
    # ||S||² - ||S - A||² as Re<A, 2 S - A>: the difference of the two
    # squares would cancel the digits of a value small against ||S||
    return float(np.sqrt(max(0.0, np.vdot(A, 2 * S - A).real)))


def rel_err(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def chebyshev_apply(self, apply_a, Y: np.ndarray) -> np.ndarray:
    """p(A) Y through the three-term recurrence, A given as a callable.

    Uses the normalized iterates Z_k = T_k(ℓ(A)) Y / T_k(x0), whose
    components all stay bounded by ||Y||, so the recurrence is stable for
    any degree; the Chebyshev values T_k(x0) themselves would overflow.
    The scalars are carried in the precision of Y, so a long-double Y runs
    the whole recurrence in extended precision.
    """
    real = np.finfo(Y.dtype).dtype.type
    lo, hi = (real(v) for v in self._interval)
    shift = (hi + lo) / (hi - lo)
    x0 = shift
    scale = 2 / (hi - lo)

    def mapped(Z):
        return shift * Z - scale * apply_a(Z)

    z_prev = Y
    z_curr = mapped(Y) / x0
    r_prev = 1.0 / x0
    for _ in range(self.degree - 1):
        r_curr = 1.0 / (2 * x0 - r_prev)
        z_next = 2 * r_curr * mapped(z_curr) - r_curr * r_prev * z_prev
        z_prev, z_curr = z_curr, z_next
        r_prev = r_curr
    return z_curr


def chebyshev_reference(H, S, degree, lo, hi):
    """The numerator with the original 4-matmul double commutator and ||S||."""
    Z = chebyshev_apply(ChebyshevFilter(degree, lo, hi),
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
        sym = Symmetry("linear", Y)
        k = _AdKernel(H, sym)
        assert sym.matrix.dtype == (np.float64 if real else np.complex128)
        once = commutator(H, Y)
        assert rel_err(ad(k, sym.matrix), once) <= 1e-12
        assert rel_err(ad2(k, sym.matrix), commutator(H, once)) <= 1e-12

    @given(d=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
           real=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_quadratic_lift(self, d, seed, real):
        rng = np.random.default_rng(seed)
        H = draw_hermitian(rng, d, real)
        Y = draw_hermitian(rng, d * d, real)
        sym = Symmetry("quadratic", Y)
        k = _AdKernel(H, sym)
        once = iota_commutator(H, Y)
        assert rel_err(ad(k, sym.matrix), once) <= 1e-12
        assert rel_err(ad2(k, sym.matrix), iota_commutator(H, once)) <= 1e-12
        # the einsum oracle itself against the materialized lift
        assert rel_err(once, commutator(iota(H), Y)) <= 1e-12

    def test_mixed_real_hamiltonian_complex_symmetry(self, rng):
        H = draw_hermitian(rng, 5, real=True)
        Y = random_hermitian(rng, 5)
        sym = Symmetry("linear", Y)
        k = _AdKernel(H.astype(complex), sym)
        assert k.H.dtype == np.float64 and sym.matrix.dtype == np.complex128
        assert rel_err(ad2(k, sym.matrix),
                       commutator(H, commutator(H, Y))) <= 1e-12

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
        return H + anti_hermitian(), S, true_gap_interval(H)

    @pytest.mark.parametrize("noise", [1e-12, 0.4 * TAU_H])
    @pytest.mark.parametrize("seed", range(4))
    def test_cheap_numerators_stay_below_exact(self, seed, noise):
        rng = np.random.default_rng(seed)
        H, M, (lo, hi) = self.noisy_problem(rng, noise)
        for A in (H, M):
            assert np.linalg.norm(A - A.conj().T) > 0
        S = Symmetry("linear", M)
        exact = kernel_complement_norm_exact(H, S)
        assert exact > 0
        assert kernel_complement_norm_commutator(H, S) <= exact
        for eps in (0.3, 1e-1, 1e-2):
            degree = chebyshev_degree_for(eps, lo, hi)
            cheb, _ = chebyshev_filter_bound(H, S, degree, lo, hi)
            assert cheb <= exact

    @pytest.mark.parametrize("noise", [1e-12, 0.4 * TAU_H])
    def test_numerators_see_only_hermitised_inputs(self, rng, noise):
        H, M, (lo, hi) = self.noisy_problem(rng, noise)
        S, Sh = Symmetry("linear", M), Symmetry("linear", hermitize(M))
        Hh = hermitize(H)
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
        pert = Perturbation(draw_hermitian(rng, 6, real), S)
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


def recurrence_numerator(H, S, degree, lo, hi, extended=False):
    """The former library numerator: the recurrence on the prepared kernel.

    ``extended`` runs it in long double.  In float64 every step adds a
    rounding error to the kernel component of Z, and ||S||² - ||Z||²
    magnifies it when the numerator is small against ||S||, so at degrees in
    the hundreds the float64 recurrence can miss the eigenframe value by
    more than 1e-9 relative.
    """
    k = _AdKernel(H, S)
    Y = S.matrix
    if extended:
        Y = Y.astype(np.longdouble if np.isrealobj(Y) else np.clongdouble)
    Z = chebyshev_apply(ChebyshevFilter(degree, lo, hi),
                        lambda Y: ad2(k, Y), Y)
    return math.sqrt(max(0.0, np.linalg.norm(Y)**2 - np.linalg.norm(Z)**2))


def lift_spectrum(H, kind):
    w = np.linalg.eigvalsh(H)
    return w if kind == "linear" else np.add.outer(w, w).reshape(-1)


def draw_problem(rng, kind, d, real):
    H = draw_hermitian(rng, d, real)
    n = d if kind == "linear" else d * d
    return H, Symmetry(kind, draw_hermitian(rng, n, real))


def optimal_x(H, S):
    """The X whose residual S - ad_L X is exactly the kernel part of S."""
    k = _AdKernel(H, S)
    _, V, lam, frame = _eigenframe(k, S.matrix)
    g = np.subtract.outer(lam, lam)
    keep = np.abs(g) > 1e-8 * np.max(np.abs(g))
    frame[keep] /= g[keep]
    frame[~keep] = 0
    return _similarity(V, frame, k.kind)


def explicit_residual_chebyshev(H, S, degree, lo, hi):
    """The former library Chebyshev value: in the eigenframe of L,
    X' = ((1 - p(g²))/g) ∘ S' on the filtered entries (g != 0, |p| <= 1) and
    0 elsewhere, taken back to X = W X' W† and scored by
    ``certified_numerator`` with the residual S - ad_L X formed
    explicitly."""
    k = _AdKernel(H, S)
    _, V, lam, frame = _eigenframe(k, S.matrix)
    g = np.subtract.outer(lam, lam)
    p = ChebyshevFilter(degree, lo, hi).evaluate(g * g)
    frame *= np.divide(1.0 - p, g, out=np.zeros_like(g),
                       where=(np.abs(p) <= 1.0) & (g != 0))
    return certified_numerator(k, S.matrix, _similarity(V, frame, k.kind))


class Counted(np.ndarray):
    """Counts every matmul on arrays derived from the eigenbasis, and
    records the operand shapes of each in ``products``."""

    matmuls = 0
    products = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            Counted.matmuls += 1
            Counted.products.append(tuple(np.shape(a) for a in inputs))

        def plain(a):
            return a.view(np.ndarray) if isinstance(a, Counted) else a
        inputs = tuple(plain(a) for a in inputs)
        if "out" in kwargs:
            kwargs["out"] = tuple(plain(a) for a in kwargs["out"])
        out = getattr(ufunc, method)(*inputs, **kwargs)
        return out.view(Counted) if isinstance(out, np.ndarray) else out


def count_cost(monkeypatch):
    """From here on, record each ``eigh`` and ``eigvalsh`` call with its
    shape in the returned list, and hand out the eigenbasis V of
    ``_AdKernel.eigen`` as a ``Counted`` view, so every product with V or
    with what was formed from it adds to ``Counted.matmuls``.  V is viewed
    after it is assembled, so the sectors' V is counted too."""
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(A, *args, _fn=getattr(np.linalg, name), _name=name,
                    **kwargs):
            calls.append((_name, A.shape))
            return _fn(A, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    eigen = _AdKernel.eigen.func

    def counted_eigen(self):
        w, V, lam = eigen(self)
        return w, V.view(Counted), lam
    prop = functools.cached_property(counted_eigen)
    prop.__set_name__(_AdKernel, "eigen")
    monkeypatch.setattr(_AdKernel, "eigen", prop)
    Counted.matmuls = 0
    Counted.products = []
    return calls


PROBLEM = dict(kind=st.sampled_from(["linear", "quadratic"]),
               seed=st.integers(0, 2**32 - 1), real=st.booleans())


class TestEigenframeChebyshev:
    """The exact numerator's eigenframe with the weight 1 - p(g²)² on each
    filtered entry: the cost of the exact numerator, whatever the degree."""

    @given(**PROBLEM, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_explicit_residual(self, kind, seed, real, data):
        """The weighted frame against the former explicit residual with the
        former X, on intervals that bracket the squared gaps, lie inside
        them (large gaps above the interval can make |p| > 1 and stay
        unfiltered) or reach far below them."""
        d = data.draw(st.integers(2, 8) if kind == "linear"
                      else st.integers(2, 4), label="d")
        degree = data.draw(st.integers(1, 10597), label="degree")
        lo_scale = data.draw(st.floats(1e-3, 3.0), label="lo_scale")
        hi_scale = data.draw(st.floats(0.05, 20.0), label="hi_scale")
        H, S = draw_problem(np.random.default_rng(seed), kind, d, real)
        lam = lift_spectrum(H, kind)
        gaps = np.abs(np.subtract.outer(lam, lam))
        nz = gaps[gaps > 1e-9 * gaps.max()] ** 2
        hi = hi_scale * float(nz.max())
        lo = min(lo_scale * float(nz.min()), hi)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, eps = chebyshev_filter_bound(H, S, degree, lo, hi)
        assert eps == ChebyshevFilter(degree, lo, hi).epsilon
        want = explicit_residual_chebyshev(H, S, degree, lo, hi)
        assert got == pytest.approx(want, rel=1e-12)
        assert got <= kernel_complement_norm_exact(H, S)

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    @pytest.mark.parametrize("sectors", [False, True])
    def test_costs_what_exact_costs(self, monkeypatch, rng, sectors, kind,
                                    real):
        """A chebyshev solve makes the ``eigh`` calls and the products with
        the eigenbasis of an exact solve on the same input: one block
        (d = 6, or 3 for quadratic S), or the two reflection sectors of
        H = R H R (d = 8, or 4)."""
        if sectors:
            H = reflection_symmetric(rng, 3 if kind == "linear" else 2, real)
        else:
            H = draw_hermitian(rng, 6 if kind == "linear" else 3, real)
        d = len(H)
        n = d if kind == "linear" else d * d
        S = Symmetry(kind, draw_hermitian(rng, n, real))
        pert = Perturbation(draw_hermitian(rng, d, real), S)
        calls = count_cost(monkeypatch)
        costs = []
        for kwargs in ({"method": "exact"},
                       {"method": "chebyshev", "degree": 10597,
                        "sigma_min_est": 0.1, "sigma_max_est": 50.0}):
            calls.clear()
            Counted.matmuls = 0
            assert hamiltonian_speed_limit(H, S, pert, **kwargs).bound_time > 0
            costs.append((list(calls), Counted.matmuls))
        assert costs[0] == costs[1]
        eighs, matmuls = costs[0]
        assert len(eighs) == (2 if sectors else 1) and matmuls > 0
        assert all(name == "eigh" for name, _ in eighs)

    @given(**PROBLEM, data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_recurrence(self, kind, seed, real, data):
        d = data.draw(st.integers(2, 8) if kind == "linear"
                      else st.integers(2, 4), label="d")
        degree = data.draw(st.integers(1, 10597), label="degree")
        lo_scale = data.draw(st.floats(1e-3, 3.0), label="lo_scale")
        hi_scale = data.draw(st.floats(1.0, 1.5), label="hi_scale")
        H, S = draw_problem(np.random.default_rng(seed), kind, d, real)
        lam = lift_spectrum(H, kind)
        gaps = np.abs(np.subtract.outer(lam, lam))
        nz = gaps[gaps > 1e-9 * gaps.max()] ** 2
        # every squared gap below hi + lo keeps |p| <= 1: no entry is dropped
        hi = hi_scale * float(nz.max())
        lo = min(lo_scale * float(nz.min()), hi)
        got, eps = chebyshev_filter_bound(H, S, degree, lo, hi)
        assert eps == ChebyshevFilter(degree, lo, hi).epsilon
        want = recurrence_numerator(H, S, degree, lo, hi, extended=True)
        assert got == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("N,seed", [(5, 0), (5, 1), (5, 2), (6, 0)])
    def test_matches_recurrence_rydberg(self, N, seed):
        rng = np.random.default_rng(seed)
        b = rydberg_chain_model(N, J=rng.uniform(0.8, 1.2),
                                g=rng.uniform(0.3, 0.7), h=rng.uniform(0.3, 0.7))
        lo, hi = b.spectral_estimates
        degree = chebyshev_degree_for(1e-2, lo, hi)
        got, _ = chebyshev_filter_bound(b.target_hamiltonian, b.symmetry,
                                        degree, lo, hi)
        want = recurrence_numerator(b.target_hamiltonian, b.symmetry, degree,
                                    lo, hi)
        assert got == pytest.approx(want, rel=1e-9)

    @given(**PROBLEM, d=st.integers(2, 4), scale=st.floats(-2.0, 3.0),
           noise=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    # a numerator 1e-4 of ||S||, which a difference of squares loses
    @example(kind="linear", seed=68, real=True, d=2, scale=0.0, noise=0.0)
    def test_any_x_stays_below_exact(self, kind, seed, real, d, scale, noise):
        rng = np.random.default_rng(seed)
        H, S = draw_problem(rng, kind, d, real)
        k, M = _AdKernel(H, S), S.matrix
        exact = kernel_complement_norm_exact(H, S)
        n = M.shape[0]
        wild = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        best = optimal_x(H, S)
        # rounding in the explicit residual only; no slack for wrong X
        slack = 1e-12 * np.linalg.norm(M)
        for X in (wild, scale * best, best + noise * wild, 1j * M, best):
            assert certified_numerator(k, M, X) <= exact + slack
        assert certified_numerator(k, M, best) == pytest.approx(exact,
                                                               rel=1e-9)
        # a Hermitian X leaves the residual at S: the value is 0
        assert certified_numerator(k, M, M) == 0.0

    @pytest.mark.parametrize("kind,d", [("linear", 6), ("quadratic", 3)])
    def test_cost_does_not_grow_with_degree(self, monkeypatch, kind, d):
        H, S = draw_problem(np.random.default_rng(7), kind, d, real=False)
        eighs = count_cost(monkeypatch)
        costs = []
        for degree in (10, 10_000):
            eighs.clear()
            Counted.matmuls = 0
            chebyshev_filter_bound(H, S, degree, 0.1, 50.0)
            costs.append((len(eighs), Counted.matmuls))
        assert costs[0] == costs[1]
        assert costs[0][0] == 1 and costs[0][1] > 0

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_contraction_frame_equals_kron(self, rng, d, real):
        H, S = draw_problem(rng, "quadratic", d, real)
        _, V, lam, frame = _eigenframe(_AdKernel(H, S), S.matrix)
        W = np.kron(V, V)
        assert rel_err(frame, W.conj().T @ S.matrix @ W) <= 1e-13
        assert rel_err(W.conj().T @ iota(H) @ W, np.diag(lam)) <= 1e-13
        M = draw_hermitian(rng, d * d, real)
        assert rel_err(_similarity(V, M, "quadratic"),
                       W @ M @ W.conj().T) <= 1e-13


def dense_path(monkeypatch):
    """From here on no product finds a permutation in S, so each product
    with S is a matmul."""
    monkeypatch.setattr(matcore, "_permutation_of", lambda A: None)


class TestPermutationCost:
    """The Rydberg swap S is a permutation matrix, so each product with it
    is a gather: the exact eigenframe makes one d x d product with the
    eigenbasis (W† S is a gather), and neither the commutator numerator
    nor the restoration residual multiplies by S."""

    @pytest.mark.parametrize("gather", [True, False])
    @pytest.mark.parametrize("N", [4, 5, 6])
    def test_eigenframe_is_one_product(self, monkeypatch, N, gather):
        if not gather:
            dense_path(monkeypatch)
        b = rydberg_chain_model(N)
        d = 2**N
        count_cost(monkeypatch)
        for method in ("exact", "chebyshev"):
            Counted.products = []
            hamiltonian_speed_limit(b.target_hamiltonian, b.symmetry,
                                    b.perturbation, method=method)
            square = Counted.products.count(((d, d), (d, d)))
            assert square == (1 if gather else 2), Counted.products

    @pytest.mark.parametrize("gather", [True, False])
    @pytest.mark.parametrize("N", [4, 6])
    def test_no_product_with_s(self, monkeypatch, N, gather):
        """S handed out as a ``Counted`` view: the residual a bound given
        the drift forms for a supplied ΔH, and the commutator numerator,
        never multiply by it.  (A drift-only bound restores S, whose
        eigenframe is not a gather.)"""
        if not gather:
            dense_path(monkeypatch)
        b = rydberg_chain_model(N)
        d = 2**N
        S = Symmetry("linear", b.symmetry.matrix)
        S.matrix = S.matrix.view(Counted)
        Counted.matmuls, Counted.products = 0, []
        pert = Perturbation(b.perturbation.matrix, S)
        for drift in (None, b.drift):
            hamiltonian_speed_limit(b.target_hamiltonian, S, pert,
                                    method="commutator", drift=drift)
        if gather:
            assert Counted.matmuls == 0
        else:  # the residual and the two numerators: one each
            assert Counted.products.count(((d, d), (d, d))) == 3


class TestMisSetInterval:
    """Intervals that miss the spectrum: every entry with |p| > 1 is left
    unfiltered, so the value stays finite, valid and warning-free."""

    @pytest.mark.parametrize("interval", [(0.5, 2.0), (1e-6, 1e-3)])
    def test_rydberg_n5(self, interval):
        b = rydberg_chain_model(5)
        H, S = b.target_hamiltonian, b.symmetry
        lo, hi = interval
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, eps = chebyshev_filter_bound(H, S, 10597, lo, hi)
        w = np.linalg.eigvalsh(H)
        g2 = np.subtract.outer(w, w) ** 2
        assert np.any((g2 >= lo) & (g2 <= hi))
        assert math.isfinite(got) and math.isfinite(eps)
        assert 0.0 < got <= kernel_complement_norm_exact(H, S)

    def test_interval_above_the_spectrum(self, rng):
        H, S = draw_problem(rng, "linear", 6, real=False)
        top = float(np.ptp(np.linalg.eigvalsh(H))) ** 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, _ = chebyshev_filter_bound(H, S, 10597, 10 * top, 20 * top)
        assert 0.0 <= got <= kernel_complement_norm_exact(H, S)

    def test_evaluate_overflows_quietly(self):
        filt = ChebyshevFilter(10597, 1e-6, 1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            p = filt.evaluate(np.array([0.0, 5e-4, 1.0, 100.0]))
        assert p[0] == pytest.approx(1.0) and abs(p[1]) <= filt.epsilon
        assert np.all(np.isinf(p[2:]))


def bit_reversal(n):
    """i with its n bits reversed: the chain reflection of the qubit order."""
    return np.array([int(format(i, f"0{n}b")[::-1], 2) for i in range(2**n)])


def reflection_symmetric(rng, n, real):
    """(M + R M R)/2 for a random Hermitian M: entry (i, j) and entry
    (rev i, rev j) are the same sum, so H = R H R and H = H† hold exactly."""
    rev = bit_reversal(n)
    M = draw_hermitian(rng, 2**n, real)
    return 0.5 * (M + M[np.ix_(rev, rev)])


def sum_x(n):
    """sum_i X_i, exactly degenerate across the two sectors."""
    d = 2**n
    idx = np.arange(d)
    H = np.zeros((d, d))
    for q in range(n):
        H[idx ^ (1 << q), idx] = 1.0
    return H


def dense_chebyshev(H, S, degree, lo, hi):
    """Oracle: the filtered residual p(g²) ∘ S' in the frame of a dense
    ``eigh`` of H (entries where |p| > 1 or g = 0 unfiltered), as
    sqrt(||S||² - ||residual||²)."""
    w, V = np.linalg.eigh(H)
    if S.kind == "quadratic":
        lam, W = np.add.outer(w, w).reshape(-1), np.kron(V, V)
    else:
        lam, W = w, V
    frame = W.conj().T @ S.matrix @ W
    g = np.subtract.outer(lam, lam)
    p = ChebyshevFilter(degree, lo, hi).evaluate(g * g)
    keep = (np.abs(p) <= 1.0) & (g != 0)
    residual = np.where(keep, p * frame, frame)
    return math.sqrt(max(0.0, np.linalg.norm(S.matrix)**2
                         - np.linalg.norm(residual)**2))


SECTOR_PROBLEM = dict(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
                      real=st.booleans())


class TestReflectionSectors:
    """A target with H = R H R, R the reversal of the qubit order, is
    decomposed in its R-even and R-odd sectors; every numerator must equal
    the one a dense ``eigh`` of H gives."""

    @staticmethod
    def check_numerators(H, S, tol=None):
        kernel = _AdKernel(H, S)
        assert len(list(_sectors(kernel.H))) == 2
        scale = 1e-12 * np.linalg.norm(S.matrix)
        want, want_near, lam, cut = pairwise_kernel_complement(H, S, tol)
        got, near = _exact_projection(kernel, S.matrix, tol)
        assert abs(got - want) <= scale and near == want_near
        hnorm = float(np.max(np.abs(np.linalg.eigvalsh(H))))
        if S.kind == "linear":
            want = np.linalg.norm(commutator(H, S.matrix)) / (2 * hnorm)
        else:
            want = np.linalg.norm(iota_commutator(H, S.matrix)) / (4 * hnorm)
        assert abs(kernel_complement_norm_commutator(H, S) - want) <= scale
        g2 = np.subtract.outer(lam, lam).reshape(-1) ** 2
        g2 = g2[g2 > (1e-6 * g2.max())]
        lo, hi = float(g2.min()), float(g2.max())
        degree = chebyshev_degree_for(1e-2, lo, hi)
        got, _ = chebyshev_filter_bound(H, S, degree, lo, hi)
        assert abs(got - dense_chebyshev(H, S, degree, lo, hi)) <= scale

    @given(**SECTOR_PROBLEM)
    @settings(max_examples=40, deadline=None)
    def test_linear_numerators_match_dense_eigh(self, n, seed, real):
        rng = np.random.default_rng(seed)
        H = reflection_symmetric(rng, n, real)
        self.check_numerators(H, Symmetry("linear",
                                          draw_hermitian(rng, 2**n, real)))

    @given(seed=st.integers(0, 2**32 - 1), real=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_quadratic_numerators_match_dense_eigh(self, seed, real):
        rng = np.random.default_rng(seed)
        H = reflection_symmetric(rng, 2, real)
        self.check_numerators(H, Symmetry("quadratic",
                                          draw_hermitian(rng, 16, real)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("real", [True, False])
    def test_cross_sector_degeneracies(self, rng, n, real):
        """sum X_i has n + 1 levels, each shared by both sectors."""
        S = Symmetry("linear", draw_hermitian(rng, 2**n, real))
        self.check_numerators(sum_x(n), S)
        if n == 2:
            self.check_numerators(sum_x(n), Symmetry(
                "quadratic", draw_hermitian(rng, 16, real)))

    @pytest.mark.parametrize("n", [3, 4])
    def test_cut_near_a_gap(self, rng, n):
        """A cut a third of the smallest level gap: the near flag is raised
        and both paths still drop the same kernel."""
        H = sum_x(n) + 0.01 * reflection_symmetric(rng, n, real=True)
        S = Symmetry("linear", draw_hermitian(rng, 2**n, False))
        gap = float(np.min(np.diff(np.linalg.eigvalsh(H))))
        assert pairwise_kernel_complement(H, S, gap / 3)[1]
        self.check_numerators(H, S, gap / 3)

    @given(**SECTOR_PROBLEM)
    @settings(max_examples=40, deadline=None)
    def test_eigen_decomposes_h(self, n, seed, real):
        """Block sizes k + |f| and k: for odd n the fixed points make the
        even sector larger than the odd one by more than one."""
        H = reflection_symmetric(np.random.default_rng(seed), n, real)
        kernel = _AdKernel(H, Symmetry("linear", np.eye(2**n)))
        sizes = [len(block) for block, _ in _sectors(kernel.H)]
        fixed = 2 ** ((n + 1) // 2)
        assert sizes == [(2**n + fixed) // 2, (2**n - fixed) // 2]
        w, V, lam = kernel.eigen
        assert lam is w and V.dtype == H.dtype
        hnorm = np.linalg.norm(H, 2)
        assert np.linalg.norm(H @ V - V * w) <= 1e-13 * hnorm
        assert np.linalg.norm(V.conj().T @ V - np.eye(2**n)) <= 1e-13
        assert np.max(np.abs(np.sort(w) - np.linalg.eigvalsh(H))) \
            <= 1e-13 * hnorm
        assert kernel.norm == pytest.approx(hnorm, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 5])
    @pytest.mark.parametrize("real", [True, False])
    def test_one_ulp_off_takes_one_block(self, monkeypatch, rng, n, real):
        H = reflection_symmetric(rng, n, real)
        S = Symmetry("linear", draw_hermitian(rng, 2**n, real))
        d = 2**n
        eigh, shapes = np.linalg.eigh, []

        def counted(A, *args, **kwargs):
            shapes.append(A.shape)
            return eigh(A, *args, **kwargs)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        kernel_complement_norm_exact(H, S)
        assert len(shapes) == 2 and sum(s[0] for s in shapes) == d
        i = int(np.flatnonzero(np.arange(d) < bit_reversal(n))[0])
        H[i, i] = np.nextafter(H[i, i].real, np.inf)
        shapes.clear()
        kernel_complement_norm_exact(H, S)
        assert shapes == [(d, d)]


class TestNormWithoutSecondPass:
    """``_AdKernel.norm`` reads the held H: no second hermiticity pass,
    and the value of ``operator_norm`` bit for bit off the sector path."""

    @pytest.mark.parametrize("H", [
        np.diag([1.0, -3.0, 2.0, 0.0]), np.diag([0.5, -0.25, 1.0, 2.0 + 0j]),
        np.diag([2.0, -1.0, 0.0]),
        hermitize(np.random.default_rng(3).standard_normal((6, 6))),
        random_hermitian(np.random.default_rng(4), 5)], ids=[
            "real-diagonal", "complex-diagonal", "diagonal-d3", "real",
            "complex"])
    def test_equals_operator_norm(self, monkeypatch, H):
        kernel = _AdKernel(H, Symmetry("linear", np.eye(len(H))))
        passes = []
        real_pass = matcore._hermitian_pass
        monkeypatch.setattr(matcore, "_hermitian_pass", lambda *a, **k: (
            passes.append(1), real_pass(*a, **k))[1])
        norm = kernel.norm
        assert passes == []
        assert norm == operator_norm(H)
