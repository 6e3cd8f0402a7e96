import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qsl.matcore
from qsl.matcore import (
    TAU_H,
    DimensionCapError,
    DimensionError,
    PAULI,
    ValidationError,
    _adjoint,
    _antihermitian_norm,
    _cluster_labels,
    _frobenius,
    _hermitian_defect,
    _kernel_mask,
    _lift,
    _near_cut,
    as_operator,
    check_entry_cap,
    commutator,
    frobenius_norm,
    hermitian_part,
    hermitize,
    iota,
    kron,
    matrix_exponential,
    operator_norm,
    permutation_operator,
    require_hermitian,
    require_unitary,
)
from conftest import (adjoint_superoperator, loop_labels,
                      random_hermitian, random_unitary)

X, Y, Z, I2 = PAULI["X"], PAULI["Y"], PAULI["Z"], PAULI["I"]


def _rand_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestBasicOps:
    def test_hermitize_is_projection(self, rng):
        A = _rand_complex(rng, (5, 5))
        H = hermitize(A)
        assert np.allclose(H, H.conj().T)
        assert np.allclose(hermitize(H), H)

    def test_hermitize_fixes_hermitian_part(self, rng):
        A = _rand_complex(rng, (4, 4))
        assert np.allclose(hermitize(A), (A + A.conj().T) / 2)

    def test_commutator_pauli(self):
        assert np.allclose(commutator(Z, X), 2j * Y)
        assert np.allclose(commutator(X, X), np.zeros((2, 2)))

    def test_commutator_antisymmetric(self, rng):
        A, B = _rand_complex(rng, (6, 6)), _rand_complex(rng, (6, 6))
        assert np.allclose(commutator(A, B), -commutator(B, A))

    def test_commutator_two_site(self):
        assert np.allclose(commutator(kron(Z, Z), kron(X, I2)), 2j * kron(Y, Z))

    def test_kron_values(self):
        assert np.allclose(kron(Z, I2), np.diag([1.0, 1.0, -1.0, -1.0]))
        assert np.allclose(kron(X, X), np.eye(4)[[3, 2, 1, 0]])

    def test_frobenius_norm(self, rng):
        A = _rand_complex(rng, (7, 3))
        assert frobenius_norm(A) == pytest.approx(np.sqrt(np.trace(A.conj().T @ A).real))

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e150, 1e200, 1e300])
    def test_norms_past_the_squares_are_finite(self, rng, scale):
        """Entries above about 1e154 have squares past float64: the norm is
        summed again from the matrix scaled by its largest entry, with no
        warning; a finite plain sum is kept bit for bit."""
        A = _rand_complex(rng, (5, 5))
        want = np.linalg.norm(A)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = frobenius_norm(scale * A)
            stack = _frobenius(np.array([scale * A, A, scale * A.real]))
        assert got == pytest.approx(scale * want, rel=1e-14)
        assert stack[0] == got
        assert stack[1] == _frobenius(A) == np.linalg.norm(A)
        assert stack[2] == pytest.approx(scale * np.linalg.norm(A.real),
                                         rel=1e-14)
        if scale <= 1e150:
            assert got == np.linalg.norm(scale * A)

    def test_operator_norm_hermitian_is_max_abs_eigenvalue(self):
        assert operator_norm(np.diag([1.0, -3.0, 2.0])) == pytest.approx(3.0)

    def test_operator_norm_general_is_largest_singular_value(self, rng):
        A = _rand_complex(rng, (5, 5))
        assert operator_norm(A) == pytest.approx(np.linalg.svd(A, compute_uv=False)[0])

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            commutator(np.eye(2), np.eye(3))

    def test_require_hermitian_rejects(self):
        with pytest.raises(ValidationError):
            require_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_require_unitary(self):
        require_unitary(np.eye(3, dtype=complex))
        with pytest.raises(ValidationError):
            require_unitary(2 * np.eye(3, dtype=complex))

    @pytest.mark.parametrize("check,arg,keyword", [
        (require_hermitian, np.eye(2), "tol"),
        (require_unitary, np.eye(2), "tol"), (check_entry_cap, 4, "cap")])
    def test_thresholds_are_constants(self, check, arg, keyword):
        """TAU_H, TAU_U and DIMENSION_CAP are fixed; no caller passes them."""
        with pytest.raises(TypeError):
            check(arg, **{keyword: 1.0})


class TestExponential:
    def test_z_rotation(self):
        U = matrix_exponential(Z, 0.5)
        assert np.allclose(U, np.diag([np.exp(-0.5j), np.exp(0.5j)]))

    def test_half_and_full_turns(self):
        assert np.allclose(matrix_exponential(Z, np.pi), -np.eye(2), atol=1e-12)
        assert np.allclose(matrix_exponential(X, np.pi / 2), -1j * X, atol=1e-12)
        assert np.allclose(matrix_exponential(Y, 0.0), np.eye(2))

    def test_unitarity(self, rng):
        H = random_hermitian(rng, 6)
        U = matrix_exponential(H, 1.3)
        assert np.allclose(U @ U.conj().T, np.eye(6), atol=1e-12)

    @given(t1=st.floats(-5, 5), t2=st.floats(-5, 5))
    @settings(max_examples=25, deadline=None)
    def test_group_property(self, t1, t2):
        H = np.array([[1.0, 0.3 - 0.2j], [0.3 + 0.2j, -0.5]])
        lhs = matrix_exponential(H, t1 + t2)
        rhs = matrix_exponential(H, t1) @ matrix_exponential(H, t2)
        assert np.allclose(lhs, rhs, atol=1e-12)


class TestVectorization:
    def test_product_identity(self, rng):
        # vec(A X B) = (A (x) B^T) vec(X) under row stacking
        A, Xm, B = (_rand_complex(rng, (4, 4)) for _ in range(3))
        lhs = (A @ Xm @ B).reshape(-1)
        rhs = kron(A, B.T) @ Xm.reshape(-1)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_adjoint_superoperator_action(self, rng):
        H = random_hermitian(rng, 4)
        Ym = _rand_complex(rng, (4, 4))
        lhs = adjoint_superoperator(H) @ Ym.reshape(-1)
        assert np.allclose(lhs, commutator(H, Ym).reshape(-1), atol=1e-12)

    def test_adjoint_superoperator_hermitian(self, rng):
        M = adjoint_superoperator(random_hermitian(rng, 5))
        assert operator_norm(M - M.conj().T) < 1e-10

    def test_adjoint_spectrum_is_eigenvalue_differences(self):
        H = np.diag([1.0, 2.0, 5.0])
        got = np.sort(np.linalg.eigvalsh(adjoint_superoperator(H)))
        want = np.sort(np.subtract.outer([1, 2, 5], [1, 2, 5]).ravel())
        assert np.allclose(got, want)

    def test_iota_spectrum_is_pairwise_sums(self):
        H = np.diag([1.0, 4.0])
        got = np.sort(np.linalg.eigvalsh(iota(H)))
        assert np.allclose(got, [2.0, 5.0, 5.0, 8.0])

    def test_adjoint_superoperator_of_z(self):
        assert np.allclose(adjoint_superoperator(Z), np.diag([0.0, 2.0, -2.0, 0.0]))

    def test_iota_of_z(self):
        assert np.allclose(iota(Z), np.diag([2.0, 0.0, 0.0, -2.0]))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_lift_equals_kron_sum(self, rng, d):
        eye = np.eye(d)
        Ys = [rng.standard_normal((d, d)),
              rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))]
        for Y in Ys:
            assert np.array_equal(_lift(Y), np.kron(Y, eye) + np.kron(eye, Y))
        stack = np.array(Ys)
        assert np.array_equal(_lift(stack), np.array([_lift(Y) for Y in Ys]))
        H = random_hermitian(rng, d)
        assert np.array_equal(iota(H), np.kron(H, eye) + np.kron(eye, H))


class TestPermutation:
    def test_two_qubit_swap(self):
        S = permutation_operator([1, 0], [2, 2])
        want = np.eye(4)[[0, 2, 1, 3]]
        assert np.array_equal(S, want)

    def test_identity_permutation(self):
        assert np.array_equal(permutation_operator([0, 1, 2], [2, 3, 2]),
                              np.eye(12))

    def test_composition(self, rng):
        dims = [2, 3, 2]
        p = list(rng.permutation(3))
        q = list(rng.permutation(3))
        pq = [p[q[a]] for a in range(3)]
        assert np.array_equal(permutation_operator(pq, dims),
                              permutation_operator(p, dims)
                              @ permutation_operator(q, dims))

    def test_moves_factor_to_slot(self):
        # factor 0 of |a b> goes to slot perm[0]
        P = permutation_operator([1, 0], [2, 3])
        v = np.zeros(6)
        v[1 * 3 + 2] = 1.0          # |1>|2>
        w = P @ v
        assert w[2 * 2 + 1] == 1.0  # |2>|1>

    def test_bad_permutation_rejected(self):
        with pytest.raises(DimensionError):
            permutation_operator([0, 0], [2, 2])

    def test_cap_applies_to_total_dimension(self):
        with pytest.raises(DimensionCapError):
            permutation_operator(list(range(21)), [2] * 21)


class TestSpectralClustering:
    def test_cluster_eigenvalues(self):
        labels = _cluster_labels(np.array([1.0, 1.0 + 1e-12, 2.0]), 1e-8)
        assert labels.tolist() == [0, 0, 1]

    @given(steps=st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]),
                          min_size=0, max_size=30),
           start=st.integers(-16, 16), tol=st.sampled_from([0.0, 0.5, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_labels_equal_loop_clusters(self, steps, start, tol):
        """Values on a grid of 1/4 subtract exactly, so many adjacent gaps
        lie exactly at tol."""
        w = start / 4 + np.cumsum([0.0] + steps)
        assert np.array_equal(np.diff(w), steps)
        assert _cluster_labels(w, tol).tolist() == loop_labels(w, tol).tolist()

    @given(w=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
           tol=st.floats(0.0, 10.0))
    @settings(max_examples=200, deadline=None)
    def test_labels_equal_loop_clusters_arbitrary(self, w, tol):
        w = np.sort(np.array(w))
        assert _cluster_labels(w, tol).tolist() == loop_labels(w, tol).tolist()

    @given(w=st.lists(st.sampled_from([0.0, 0.25, 0.5, 1.0, 3.0]),
                      min_size=1, max_size=12),
           tol=st.sampled_from([0.0, 0.25, 0.5]), seed=st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_drop_kernel_any_order(self, w, tol, seed):
        """The kernel mask joins the entries of one cluster of the sorted
        values, whatever the order of w, and zeroing it leaves +0.0 there
        and the rest unchanged; a stack of spectra gives each its own."""
        w = np.array(w)
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((w.size, w.size))
        got = X.copy()
        mask = _kernel_mask(w, tol)[0]
        got[mask] = 0.0
        order = np.argsort(w, kind="stable")
        labels = np.empty(w.size, dtype=int)
        labels[order] = loop_labels(w[order], tol)
        same = labels[:, None] == labels[None, :]
        assert np.array_equal(mask, same)
        assert np.array_equal(got, np.where(same, 0.0, X))
        assert not np.signbit(got[same]).any()
        stack = np.array([w, w[::-1], np.sort(w)])
        tols = np.array([tol, tol, 2 * tol])
        assert np.array_equal(_kernel_mask(stack, tols)[0], np.array(
            [_kernel_mask(v, t)[0] for v, t in zip(stack, tols)]))

    def test_drop_kernel_near_flag(self):
        """Near: an adjacent gap between clusters in (tol, 10·tol], or a
        cluster wider than tol."""
        def near(w):
            return _near_cut(*_kernel_mask(np.array(w), 1.0)[1:], 1.0)
        assert not near([0.0, 1.0, 12.0])      # gaps: in a cluster, far
        assert near([0.0, 1.0, 11.0])          # a gap of exactly 10·tol
        assert near([0.0, 0.6, 1.2, 50.0])     # a chain 1.2 wide
        assert not near([0.0, 0.5, 1.0, 50.0])  # a chain exactly tol wide
        assert not near([5.0])

    def test_entry_cap(self):
        check_entry_cap(qsl.matcore.DIMENSION_CAP)
        with pytest.raises(DimensionCapError):
            check_entry_cap(qsl.matcore.DIMENSION_CAP + 1)


def _count_eigvalsh(monkeypatch):
    calls = []
    fn = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(args[0].dtype)
        return fn(*args, **kwargs)
    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


class TestOperatorNormDiagonal:
    """A diagonal matrix with an exactly real diagonal is its own spectrum."""

    @pytest.mark.parametrize("diag", [
        [1.0, -3.0, 2.0], [0.0, -0.5, 0.0, 0.25], [0.0, 0.0, 0.0], [-7.5],
        [0.0]])
    def test_shortcut_equals_eigvalsh(self, monkeypatch, diag):
        want = float(np.max(np.abs(np.linalg.eigvalsh(np.diag(diag)))))
        calls = _count_eigvalsh(monkeypatch)
        for A in (np.diag(diag), np.diag(diag).astype(complex)):
            assert operator_norm(A) == want
        assert calls == []

    def test_tiny_diagonal_is_exact(self):
        # LAPACK rescales so tiny a spectrum and rounds it; the diagonal is exact
        A = np.diag([1e-300, -2e-300])
        assert operator_norm(A) == 2e-300
        assert operator_norm(A) == pytest.approx(
            np.max(np.abs(np.linalg.eigvalsh(A))), rel=1e-14)

    def test_random_real_diagonals(self, rng, monkeypatch):
        cases = [rng.standard_normal(d) * (rng.random(d) < 0.7)
                 for d in (1, 2, 5, 64, 300)]
        wants = [float(np.max(np.abs(np.linalg.eigvalsh(np.diag(v)))))
                 for v in cases]
        calls = _count_eigvalsh(monkeypatch)
        assert [operator_norm(np.diag(v)) for v in cases] == wants
        assert calls == []

    def test_complex_diagonal_falls_through(self, monkeypatch):
        calls = _count_eigvalsh(monkeypatch)
        A = np.diag([2.0 + 1e-14j, -1.0])  # Hermitian within tolerance
        assert operator_norm(A) == pytest.approx(2.0)
        assert calls == [np.float64]
        B = np.diag([3j, -1.0])  # not Hermitian: largest singular value
        assert operator_norm(B) == pytest.approx(3.0)

    def test_off_diagonal_entry_falls_through(self, monkeypatch):
        calls = _count_eigvalsh(monkeypatch)
        A = np.diag([1.0, -1.0, 0.5]).astype(complex)
        A[0, 2] = A[2, 0] = 1e-3
        assert operator_norm(A) == pytest.approx(0.75 + np.sqrt(0.0625 + 1e-6),
                                                 rel=1e-12)
        assert calls == [np.float64]

    def test_empty_matrix(self):
        assert operator_norm(np.zeros((0, 0))) == 0.0


class TestHermitianHelpers:
    @pytest.mark.parametrize("d", [1, 2, 63, 64, 65, 130])
    def test_defect_is_frobenius_norm_of_anti_hermitian_part(self, rng, d):
        for A in (_rand_complex(rng, (d, d)), rng.standard_normal((d, d)),
                  random_hermitian(rng, d)):
            A = np.asarray(A, dtype=complex)
            assert _hermitian_defect(A) == pytest.approx(
                np.linalg.norm(A - A.conj().T), rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_hermitian_part(self, rng, d):
        # hermitian_part checks its input as require_hermitian does, so the
        # inputs are Hermitian up to a defect far inside TAU_H
        real = (hermitize(rng.standard_normal((d, d)))
                + 1e-13 * rng.standard_normal((d, d))).astype(complex)
        got = hermitian_part(real)
        assert got.dtype == np.float64 and got.flags["C_CONTIGUOUS"]
        assert np.array_equal(got, hermitize(real).real)
        # imaginary part symmetric: hermitised away exactly
        sym_imag = real + 1e-13j * hermitize(rng.standard_normal((d, d))).real
        assert hermitian_part(sym_imag).dtype == np.float64
        assert np.array_equal(hermitian_part(sym_imag), hermitize(sym_imag).real)
        cplx = random_hermitian(rng, d) + 1e-13 * _rand_complex(rng, (d, d))
        got = hermitian_part(cplx)
        assert got.dtype == (np.complex128 if d > 1 else np.float64)
        assert np.array_equal(got, hermitize(cplx))
        # far from Hermitian: rejected
        for far in (rng.standard_normal((d, d)) + 1j, _rand_complex(rng, (d, d))):
            with pytest.raises(ValidationError):
                hermitian_part(far)


def _at_defect_ratio(rng, d, real, ratio):
    """A Hermitian matrix plus an anti-Hermitian term sized so that its
    defect is ``ratio`` times the tolerance TAU_H·max(1, ||A||_F)."""
    H = rng.standard_normal((d, d)) if real else _rand_complex(rng, (d, d))
    H = H + H.conj().T
    K = rng.standard_normal((d, d)) if real else _rand_complex(rng, (d, d))
    K = K - K.conj().T
    if not np.any(K):  # d = 1 and real: no anti-Hermitian direction
        return None
    A = H + ratio * TAU_H * max(1.0, np.linalg.norm(H)) / np.linalg.norm(
        K - K.conj().T) * K
    got = np.linalg.norm(A - A.conj().T) / (TAU_H * max(1.0, np.linalg.norm(A)))
    # adding a term ratio·TAU_H the size of H to H rounds that term by about
    # eps / (ratio·TAU_H) relative: a few parts in 1e6
    assert got == pytest.approx(ratio, rel=1e-4)
    return A


class TestFusedHermitianPass:
    """hermitian_part checks and hermitises in one pass over the matrix."""

    @given(d=st.integers(1, 140), seed=st.integers(0, 2**32 - 1),
           real=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_tolerance_edge(self, d, seed, real):
        rng = np.random.default_rng(seed)
        outside = _at_defect_ratio(rng, d, real, 2.0)
        if outside is None:
            return
        with pytest.raises(ValidationError):
            require_hermitian(outside)
        with pytest.raises(ValidationError):
            hermitian_part(outside)
        inside = _at_defect_ratio(rng, d, real, 0.5)
        require_hermitian(inside)
        got = hermitian_part(inside)
        # inexact input: the values of hermitize, float64 when they are real
        want = hermitize(inside)
        if not want.imag.any():
            want = want.real
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert got is not inside

    @given(d=st.integers(1, 140), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_exactly_hermitian_input_is_returned(self, d, seed):
        rng = np.random.default_rng(seed)
        real = rng.standard_normal((d, d))
        real = real + real.T
        assert hermitian_part(real) is real
        cplx = _rand_complex(rng, (d, d))
        cplx = cplx + cplx.conj().T
        if cplx.imag.any():  # d = 1 has a real diagonal only
            assert hermitian_part(cplx) is cplx
        # complex with a zero imaginary part: contiguous float64, same values
        zero_imag = real.astype(complex)
        got = hermitian_part(zero_imag)
        assert got.dtype == np.float64 and got.flags["C_CONTIGUOUS"]
        assert np.array_equal(got, real)

    def test_one_pass_and_no_norm_when_exact(self, rng, monkeypatch):
        norms = []
        fn = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm",
                            lambda *a, **k: norms.append(1) or fn(*a, **k))
        A = rng.standard_normal((200, 200))
        A = A + A.T
        require_hermitian(A)
        assert hermitian_part(A) is A
        assert norms == []
        require_hermitian(A + 1e-14 * np.triu(A))
        assert len(norms) == 1

    def test_operator_norm_needs_no_copy(self, rng, monkeypatch):
        """An exactly Hermitian operator: one pass, the input itself handed
        to eigvalsh, no second check."""
        A = rng.standard_normal((130, 130))
        A = A + A.T
        passes, given_to_eigvalsh = [], []
        pass_fn, eig_fn = qsl.matcore._hermitian_pass, np.linalg.eigvalsh
        monkeypatch.setattr(qsl.matcore, "_hermitian_pass",
                            lambda *a, **k: passes.append(1) or pass_fn(*a, **k))
        monkeypatch.setattr(np.linalg, "eigvalsh",
                            lambda M: given_to_eigvalsh.append(M) or eig_fn(M))
        assert operator_norm(A) == float(np.max(np.abs(eig_fn(A))))
        assert passes == [1] and given_to_eigvalsh[0] is A


# dimensions on either side of the 64 x 64 tile edges
TILE_EDGES = [1, 63, 64, 65, 127, 128, 129, 191, 192, 193]


def _random_square(rng, shape, real):
    return rng.standard_normal(shape) if real else _rand_complex(rng, shape)


class TestTilePairs:
    """The hermiticity pass and ||A - A†||_F walk the 64 x 64 tile pairs
    (A_IJ, A_JI) of A; a matrix of one tile (d <= 64) is a single pair,
    which meets the whole-matrix operations and their values."""

    @given(d=st.sampled_from(TILE_EDGES), seed=st.integers(0, 2**32 - 1),
           real=st.booleans(), n=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_norm(self, d, seed, real, n):
        rng = np.random.default_rng(seed)
        P = _random_square(rng, (n, d, d), real)
        got = _antihermitian_norm(P)
        assert got.shape == (n,)
        want = np.linalg.norm(P - _adjoint(P), axis=(-2, -1))
        assert np.allclose(got, want, rtol=1e-13, atol=0)
        # each matrix alone as in the stack, bit for bit
        assert [_antihermitian_norm(M) for M in P] == list(got)
        if d <= 64:
            assert np.array_equal(got, _frobenius(P - _adjoint(P)))

    @pytest.mark.parametrize("d", [5, 130])
    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e150, 1e200, 1e300])
    def test_norm_past_the_squares_is_finite(self, rng, d, scale):
        """Entries above about 1e154 have squares past float64: ||P - P†||_F
        is summed again over the tile pairs of P scaled by its largest
        entry, with no warning; a finite plain sum is kept bit for bit."""
        P = _random_square(rng, (d, d), False)
        want = np.linalg.norm(P - _adjoint(P))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _antihermitian_norm(scale * P)
            stack = _antihermitian_norm(np.array([scale * P, P]))
        assert got == pytest.approx(scale * want, rel=1e-13)
        assert stack[0] == got and stack[1] == _antihermitian_norm(P)
        if scale <= 1e150:
            assert got == np.sqrt(qsl.matcore._pair_square_sum(scale * P))

    @given(d=st.sampled_from(TILE_EDGES), seed=st.integers(0, 2**32 - 1),
           real=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_defect(self, d, seed, real):
        rng = np.random.default_rng(seed)
        A = _random_square(rng, (d, d), real)
        near = A + A.conj().T + 1e-9 * A  # a defect far below ||A||_F
        for M in (A, near):
            assert _hermitian_defect(M) == pytest.approx(
                np.linalg.norm(M - M.conj().T), rel=1e-13, abs=0)

    @given(d=st.sampled_from(TILE_EDGES), seed=st.integers(0, 2**32 - 1),
           real=st.booleans(), k=st.integers(1, 3))
    @settings(max_examples=40, deadline=None)
    def test_hermitian_part_from_any_first_pair(self, d, seed, real, k):
        """Exactly Hermitian but for k entries: the copy starts at the
        first tile pair that is not exactly Hermitian and holds A's values
        in the pairs before it; every value is hermitize's."""
        rng = np.random.default_rng(seed)
        A = _random_square(rng, (d, d), real)
        A = A + A.conj().T
        for i, j in rng.integers(d, size=(k, 2)):
            A[i, j] += 1e-13 if real else 1e-13 + 1e-13j
        got = hermitian_part(A)
        want = hermitize(A)
        if not want.imag.any():
            want = want.real
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert (got is A) == np.array_equal(A, A.conj().T)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(d=st.sampled_from([65, 128, 129, 193]),
           seed=st.integers(0, 2**32 - 1), real=st.booleans(),
           bad=st.sampled_from([np.nan, np.inf, -np.inf]))
    @settings(max_examples=30, deadline=None)
    def test_non_finite_entry_below_the_diagonal(self, d, seed, real, bad):
        """One bad entry in a tile below the diagonal tiles, its mirror
        finite: rejected, with no numpy warning."""
        rng = np.random.default_rng(seed)
        A = _random_square(rng, (d, d), real)
        A = A + A.conj().T
        i = int(rng.integers(64, d))
        j = int(rng.integers(0, i // 64 * 64))  # a tile column left of i's
        A[i, j] = bad
        for check in (require_hermitian, hermitian_part):
            with pytest.raises(ValidationError, match="non-finite"):
                check(A)

    @pytest.mark.parametrize("real", [True, False])
    def test_memory_is_a_few_tiles(self, rng, real):
        """At d = 1024 a pass, and the norm, hold a few tiles beyond the
        result: no row block against a column slab, no d x d difference."""
        d = 1024
        A = _random_square(rng, (d, d), real)
        H = A + A.conj().T
        near = H + 1e-13 * A  # inside the tolerance, not exactly Hermitian
        tile, whole = 64 * 64 * A.itemsize, d * d * A.itemsize
        for f, M, result in ((require_hermitian, H, 0), (hermitian_part, H, 0),
                             (hermitian_part, near, whole),
                             (_antihermitian_norm, A, 0)):
            tracemalloc.start()
            try:
                f(M)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= result + 5 * tile, (f.__name__, peak / tile)


class TestNonFiniteEntries:
    """NaN or ±inf anywhere makes the defect non-finite, which every
    hermiticity and unitarity check rejects, naming the entries."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(d=st.integers(1, 70), seed=st.integers(0, 2**32 - 1),
           real=st.booleans(), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           imag=st.booleans(), mirror=st.booleans(), diagonal=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_rejected(self, d, seed, real, bad, imag, mirror, diagonal):
        rng = np.random.default_rng(seed)
        i, j = rng.integers(d, size=2)
        if diagonal:
            j = i
        value = complex(0.0, bad) if imag and not real else bad
        H = random_hermitian(rng, d)
        U = random_unitary(rng, d)
        if real:
            H, U = H.real + H.real.T, np.linalg.qr(rng.standard_normal((d, d)))[0]
        for A, checks in ((H, (require_hermitian, hermitian_part)),
                          (U, (require_unitary,))):
            A = A.copy()
            A[i, j] = value
            if mirror:  # keep the Hermitian pattern: A[j, i] = conj(A[i, j])
                A[j, i] = np.conj(value)
            for check in checks:
                # inf - inf is NaN: the check reports it, with no numpy
                # warning (any RuntimeWarning fails the test)
                with pytest.raises(ValidationError, match="non-finite"):
                    check(A)


class TestAsOperator:
    def test_float64_stays_float64(self, rng):
        A = rng.standard_normal((4, 4))
        assert as_operator(A) is A
        assert require_hermitian(A + A.T).dtype == np.float64

    @pytest.mark.parametrize("value", [
        np.eye(3, dtype=np.float32), np.eye(3, dtype=int),
        [[1, 0], [0, 1]], np.eye(2, dtype=np.complex64)])
    def test_other_dtypes_become_complex128(self, value):
        assert as_operator(value).dtype == np.complex128

    def test_builders_stay_complex128(self):
        assert permutation_operator([1, 0], [2, 2]).dtype == np.complex128
        assert np.asarray(PAULI["X"]).dtype == np.complex128
