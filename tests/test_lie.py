import numpy as np
import pytest

from qsl.lie import (
    Symmetry,
    _nullspace,
    _verify_commutation,
    commutant_basis,
    quadratic_symmetry_basis,
    symmetry_breaking_norm,
)
from qsl.matcore import (
    ConditioningError,
    PAULI,
    TAU_RANK,
    ValidationError,
    adjoint_superoperator,
    commutator,
    frobenius_norm,
    iota,
    kron,
    spectral_gap_min,
)
from qsl.models import coupled_qubit_model, global_controls
from conftest import random_hermitian, span_residual

X, Y, Z, I2 = PAULI["X"], PAULI["Y"], PAULI["Z"], PAULI["I"]

CNOT_CONTROLS = [kron(X, I2), kron(Z, I2), kron(I2, X), kron(I2, Z)]


class TestCommutant:
    def test_single_x_commutant(self):
        basis = commutant_basis([X])
        assert len(basis) == 2
        for sym in basis:
            assert span_residual(sym.matrix, []) > 0  # nonzero matrices
            assert frobenius_norm(commutator(sym.matrix, X)) < 1e-10
        # span includes both I and X
        assert span_residual(np.eye(2), basis) < 1e-10
        assert span_residual(X, basis) < 1e-10

    def test_global_controls_three_qubits(self):
        basis = commutant_basis(global_controls(3))
        assert len(basis) == 5

    def test_global_commutant_contains_transpositions(self):
        from qsl.matcore import permutation_operator

        basis = commutant_basis(global_controls(3))
        dims = [2, 2, 2]
        for perm in ([1, 0, 2], [0, 2, 1], [2, 1, 0]):
            M = permutation_operator(perm, dims)
            assert span_residual(M, basis) < 1e-8

    def test_cnot_controls_have_trivial_commutant(self):
        basis = commutant_basis(CNOT_CONTROLS)
        assert len(basis) == 1
        assert span_residual(np.eye(4), basis) < 1e-10

    def test_elements_commute_and_are_orthonormal(self, rng):
        ops = [random_hermitian(rng, 3) for _ in range(2)]
        basis = commutant_basis(ops)
        for i, a in enumerate(basis):
            for op in ops:
                assert frobenius_norm(commutator(a.matrix, op)) < 1e-8
            for j, b in enumerate(basis):
                overlap = np.trace(a.matrix.conj().T @ b.matrix).real
                assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf"), 0.0,
                                     1.0, 5.0])
    @pytest.mark.parametrize("find", [commutant_basis, quadratic_symmetry_basis])
    def test_unusable_tolerance_rejected(self, find, tol):
        """Such a cut returns an empty basis: every commutant holds the
        identity.  At tol >= 1 no singular value exceeds tol · s_max."""
        with pytest.raises(ValidationError, match="rank tolerance"):
            find([X, Z], tol=tol)


class TestCommutationRecheck:
    """Discovery re-checks [L, M] = 0 for every element M and control L,
    the guard against a false symmetry."""

    def test_element_off_the_commutant_is_refused(self, rng):
        basis = [s.matrix for s in commutant_basis(global_controls(3))]
        off = basis[1] + 1e-3 * random_hermitian(rng, 8)
        with pytest.raises(ConditioningError) as err:
            _verify_commutation(basis[:1] + [off], global_controls(3),
                                TAU_RANK)
        diag = err.value.diagnostics
        assert set(diag) == {"defect", "scale"}
        assert diag["defect"] > 100 * TAU_RANK * diag["scale"]

    def test_discovered_bases_pass(self):
        ising3 = global_controls(3)
        for controls in (CNOT_CONTROLS, ising3):
            _verify_commutation([s.matrix for s in commutant_basis(controls)],
                                controls, TAU_RANK)
        lifts = [iota(C) for C in CNOT_CONTROLS]
        _verify_commutation(
            [s.matrix for s in quadratic_symmetry_basis(CNOT_CONTROLS)],
            lifts, TAU_RANK)


class TestQuadraticSymmetries:
    def test_cnot_controls_dimension(self):
        basis = quadratic_symmetry_basis(CNOT_CONTROLS)
        assert len(basis) == 4
        for sym in basis:
            assert sym.kind == "quadratic"
            assert sym.base_dimension == 4

    def test_contains_the_coupled_qubit_invariant(self):
        basis = quadratic_symmetry_basis(CNOT_CONTROLS)
        S = coupled_qubit_model(1.0).symmetry.matrix
        assert span_residual(S, basis) <= 1e-8

    def test_elements_commute_with_lifts(self):
        for sym in quadratic_symmetry_basis([X]):
            assert frobenius_norm(commutator(sym.matrix, iota(X))) < 1e-8

    def test_full_algebra_leaves_identity_and_swap(self):
        from qsl.matcore import permutation_operator

        for d in (2, 3):
            ops = []
            for a in range(d):
                for b in range(a + 1, d):
                    real = np.zeros((d, d))
                    real[a, b] = real[b, a] = 1.0
                    imag = np.zeros((d, d), dtype=complex)
                    imag[a, b] = -1j
                    imag[b, a] = 1j
                    ops.extend([real, imag])
            for k in range(1, d):
                diag = np.zeros(d)
                diag[:k] = 1.0
                diag[k] = -float(k)
                ops.append(np.diag(diag))
            basis = quadratic_symmetry_basis(ops)
            assert len(basis) == 2
            assert span_residual(np.eye(d * d), basis) < 1e-8
            assert span_residual(permutation_operator([1, 0], [d, d]), basis) < 1e-8


def _stack(ops, quadratic):
    lift = iota if quadratic else (lambda op: op)
    return np.vstack([adjoint_superoperator(lift(op)) for op in ops])


def _nullspace_full_svd(K, tol=TAU_RANK):
    """Oracle: the right nullspace from the full factorisation, the m×m
    left basis included."""
    _, s, Vh = np.linalg.svd(K, full_matrices=True)
    rank = int(np.sum(s > tol * s[0])) if s[0] > 0 else 0
    return [Vh[i].conj() for i in range(rank, Vh.shape[0])]


class TestNullspace:
    """Discovery reads only the right singular vectors of the stacked
    superoperator; skipping the left basis must not change them beyond
    rounding (LAPACK may take a different path for the reduced
    factorisation, so equality is not always bit for bit)."""

    @pytest.mark.parametrize("quadratic", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_full_svd(self, rng, quadratic, k):
        stacks = [_stack(CNOT_CONTROLS[:k], quadratic),
                  _stack([random_hermitian(rng, 3) for _ in range(k)],
                         quadratic)]
        if not quadratic:
            stacks.append(_stack(global_controls(3)[:k], quadratic))
        for K in stacks:
            assert K.shape[0] >= K.shape[1]
            got, want = _nullspace(K, TAU_RANK), _nullspace_full_svd(K)
            assert len(got) == len(want) > 0
            for g, w in zip(got, want):
                assert np.allclose(g, w, rtol=0, atol=1e-14)

    def test_wide_matrix_keeps_its_full_nullspace(self, rng):
        K = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
        got = _nullspace(K, TAU_RANK)
        assert len(got) == 4
        for g, w in zip(got, _nullspace_full_svd(K)):
            assert np.allclose(g, w, rtol=0, atol=1e-14)
        V = np.array(got)
        assert np.allclose(K @ V.T, 0, atol=1e-12)
        assert np.allclose(V.conj() @ V.T, np.eye(4), atol=1e-12)

    def test_cnot_discovery_builds_no_left_basis(self, monkeypatch):
        calls = []
        svd = np.linalg.svd

        def counting_svd(a, full_matrices=True, **kwargs):
            calls.append((a.shape, full_matrices))
            return svd(a, full_matrices=full_matrices, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting_svd)
        assert len(quadratic_symmetry_basis(CNOT_CONTROLS)) == 4
        assert ((1024, 256), False) in calls
        assert not [shape for shape, full in calls
                    if full and shape[0] > shape[1]]


class TestSymmetryDataclass:
    def test_kind_checked(self):
        with pytest.raises(ValidationError):
            Symmetry("cubic", np.eye(2))

    def test_projector_sigma_min_is_one(self):
        P = np.diag([1.0, 0.0, 0.0]).astype(complex)
        assert Symmetry("linear", P).sigma_min == pytest.approx(1.0)

    def test_gap_is_measured_never_set(self):
        """σ_min divides the analytic bound, so no caller may set it."""
        M = np.diag([0.0, 5.0])
        for setting in ({"sigma_min_hint": 2.5}, {"_sigma_min": 2.5}):
            with pytest.raises(TypeError):
                Symmetry("linear", M, **setting)
        sym = Symmetry("linear", M)
        assert sym.sigma_min == spectral_gap_min(M) == 5.0

    def test_scaling_scales_gaps(self):
        sym = Symmetry("linear", np.diag([0.0, 1.0, 3.0]))
        assert sym.scaled(2.0).sigma_min == pytest.approx(2 * sym.sigma_min)

    def test_breaking_norm_coupled_qubit(self):
        bundle = coupled_qubit_model(1.0)
        got = symmetry_breaking_norm(bundle.symmetry, bundle.target_unitary)
        assert got == pytest.approx(4 * np.sqrt(2), rel=1e-12)

    def test_breaking_norm_zero_for_commuting_target(self):
        sym = Symmetry("linear", Z)
        U = np.diag(np.exp(1j * np.array([0.3, -0.7])))
        assert symmetry_breaking_norm(sym, U) < 1e-12


    def test_hermitian_part_formed_once(self, rng):
        """``matrix`` is the one Hermitian array, formed at construction:
        the input itself when that is exactly Hermitian, float64 when it is
        exactly real, and hermitize's values, checked, when it is neither."""
        exact = random_hermitian(rng, 4)
        assert Symmetry("linear", exact).matrix is exact
        real = Symmetry("linear", (exact + exact.conj()) / 2)
        assert real.matrix.dtype == np.float64
        assert np.array_equal(real.matrix, exact.real)
        near = exact + 1e-13 * rng.standard_normal((4, 4))
        sym = Symmetry("linear", near)
        assert sym.matrix is not near
        assert np.array_equal(sym.matrix, 0.5 * (near + near.conj().T))
        assert not hasattr(sym, "hermitian")
        with pytest.raises(ValidationError):
            Symmetry("linear", near + 1e-3 * np.triu(np.ones((4, 4))))


class TestDiscoveryDtype:
    """A float64 control stack would send the nullspace SVD down another
    LAPACK path and rotate the discovered basis; discovery works in
    complex128 whatever the input dtype."""

    def test_float64_controls_give_the_same_basis(self):
        for find, controls in ((commutant_basis, global_controls(3)),
                               (quadratic_symmetry_basis, CNOT_CONTROLS)):
            real = [C.real.copy() for C in controls]
            assert all(C.dtype == np.float64 for C in real)
            want, got = find(controls), find(real)
            assert len(got) == len(want) > 1
            for g, w in zip(got, want):
                assert np.array_equal(g.matrix, w.matrix)

