import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qsl.matcore
import qsl.perturb
from qsl.lie import Symmetry, quadratic_symmetry_basis
from qsl.matcore import (
    ConditioningError,
    DimensionError,
    GAP_RTOL,
    PAULI,
    TAU_RANK,
    ValidationError,
    _lift,
    commutator,
    frobenius_norm,
    hermitize,
    iota,
    kron,
    operator_norm,
)
from qsl.models import coupled_qubit_model
from qsl.perturb import (
    Perturbation,
    _commuting_limit,
    _quadratic_constraint,
    _quadratic_setup,
    _restore_quadratic,
    restore_symmetry,
)
from conftest import (analytic_cap, cluster_gap, loop_labels, random_hermitian,
                      random_unitary)

X, Z, I2 = PAULI["X"], PAULI["Z"], PAULI["I"]


class TestSpectralGap:
    """The σ_min of the analytic-cap oracle (``conftest.cluster_gap``), on
    spectra whose smallest gap is known."""

    def test_projector(self):
        assert cluster_gap(np.diag([1.0, 0, 0])) == pytest.approx(1.0)

    def test_spread_spectrum(self):
        assert cluster_gap(np.diag([1.0, 2.0, 4.0])) == pytest.approx(1.0)

    def test_pauli_z(self):
        assert cluster_gap(Z) == pytest.approx(2.0)

    def test_smallest_of_several_gaps(self):
        assert cluster_gap(np.diag([0.0, 0.3, 1.0])) == pytest.approx(0.3)

    def test_multiple_of_identity_has_no_gap(self):
        assert cluster_gap(3.0 * np.eye(4)) == np.inf


class TestLinearRestore:
    def test_z_symmetry_cancels_x_drift(self):
        pert = restore_symmetry(Symmetry("linear", Z), X)
        assert np.allclose(pert.matrix, -X, atol=1e-12)
        assert pert.op_norm == pytest.approx(1.0)

    def test_diagonal_drift_needs_nothing(self):
        pert = restore_symmetry(Symmetry("linear", Z), np.diag([0.4, -0.1]))
        assert frobenius_norm(pert.matrix) < 1e-12

    def test_restored_drift_commutes(self, rng):
        for _ in range(10):
            S = Symmetry("linear", random_hermitian(rng, 6))
            H = random_hermitian(rng, 6)
            pert = restore_symmetry(S, H)
            assert frobenius_norm(commutator(S.matrix, H + pert.matrix)) < 1e-8
            assert np.allclose(pert.matrix, pert.matrix.conj().T, atol=1e-9)

    def test_only_off_block_part_is_touched(self, rng):
        # the perturbation never overlaps the part of the drift that already
        # commutes with S
        S = Symmetry("linear", np.diag([0.0, 0.0, 1.0]))
        H = random_hermitian(rng, 3)
        pert = restore_symmetry(S, H)
        overlap = np.trace(pert.matrix.conj().T @ (H + pert.matrix))
        assert abs(overlap) < 1e-10

    def test_norm_minimality_against_lemma(self, rng):
        for _ in range(10):
            S = Symmetry("linear", random_hermitian(rng, 5))
            H = random_hermitian(rng, 5)
            pert = restore_symmetry(S, H)
            cap = analytic_cap(S.matrix, H)
            assert pert.frob_norm <= cap + 1e-9

    def test_scaling_invariance(self, rng):
        S = random_hermitian(rng, 4)
        H = random_hermitian(rng, 4)
        a = restore_symmetry(Symmetry("linear", S), H)
        b = restore_symmetry(Symmetry("linear", 3.0 * S), H)
        assert np.allclose(a.matrix, b.matrix, atol=1e-10)


def _hermitian_basis_restore(S: Symmetry, H: np.ndarray) -> np.ndarray:
    """Reference quadratic restoration: real least squares over an
    orthonormal Hermitian basis, the real and imaginary parts stacked."""
    d = H.shape[0]
    basis = []
    for i in range(d):
        for j in range(i, d):
            E = np.zeros((d, d), dtype=complex)
            if i == j:
                E[i, i] = 1.0
                basis.append(E)
                continue
            E[i, j] = E[j, i] = 1.0 / np.sqrt(2)
            F = np.zeros((d, d), dtype=complex)
            F[i, j], F[j, i] = 1j / np.sqrt(2), -1j / np.sqrt(2)
            basis += [E, F]

    def embed(Y):
        v = commutator(S.matrix, iota(Y)).reshape(-1)
        return np.concatenate([v.real, v.imag])

    M = np.array([embed(B) for B in basis]).T
    coeffs, *_ = np.linalg.lstsq(M, -embed(H), rcond=TAU_RANK)
    return hermitize(sum(c * B for c, B in zip(coeffs, basis)))


class TestQuadraticRestore:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_hermitian_basis_solver(self, rng, d):
        controls = [random_hermitian(rng, d)]
        if d == 4:  # local control of two qubits leaves a 4-element basis
            controls = [kron(X, I2), kron(Z, I2), kron(I2, X), kron(I2, Z)]
        basis = quadratic_symmetry_basis(controls)
        for _ in range(5):
            M = sum(rng.standard_normal() * b.matrix for b in basis)
            S = Symmetry("quadratic", M + rng.standard_normal() * np.eye(d * d))
            H = random_hermitian(rng, d)
            got = restore_symmetry(S, H).matrix
            want = _hermitian_basis_restore(S, H)
            assert frobenius_norm(got - want) <= 1e-10 * frobenius_norm(want)

    def test_coupled_qubit_pair(self):
        g = 0.7
        bundle = coupled_qubit_model(g)
        pert = restore_symmetry(bundle.symmetry, bundle.drift)
        assert np.allclose(pert.matrix, -g * kron(Z, Z), atol=1e-8)
        assert pert.op_norm == pytest.approx(g, abs=1e-8)

    def test_restored_lift_commutes(self, rng):
        S = Symmetry("quadratic", random_hermitian(rng, 9))
        H = random_hermitian(rng, 3)
        pert = restore_symmetry(S, H)
        defect = frobenius_norm(commutator(S.matrix, iota(H + pert.matrix)))
        assert defect < 1e-8
        assert pert.residual is not None and pert.residual < 1e-8


def _constraint_by_columns(S: np.ndarray, d: int) -> np.ndarray:
    """Oracle: the quadratic restoration constraint built one unit matrix at
    a time, K[:, e] = vec([S, E_e⊗1 + 1⊗E_e])."""
    eye = np.eye(d)
    return np.array([
        commutator(S, np.kron(E, eye) + np.kron(eye, E)).reshape(-1)
        for E in np.eye(d * d).reshape(d * d, d, d)]).T


class TestQuadraticConstraint:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("complex_s", [False, True])
    def test_batched_equals_column_build(self, rng, d, complex_s):
        for _ in range(3):
            S = random_hermitian(rng, d * d)
            if not complex_s:
                S = S.real
            got = _quadratic_constraint(S, d)
            assert got.dtype == S.dtype
            assert np.array_equal(got, _constraint_by_columns(S, d))

    def test_discovered_symmetries(self):
        for sym in quadratic_symmetry_basis(
                [kron(X, I2), kron(Z, I2), kron(I2, X), kron(I2, Z)]):
            assert np.array_equal(_quadratic_constraint(sym.matrix, 4),
                                  _constraint_by_columns(sym.matrix, 4))


class TestPerturbationRecord:
    def test_from_matrix_norms(self):
        sym = Symmetry("linear", Z)
        pert = Perturbation.from_matrix(sym, 2.0 * X)
        assert pert.op_norm == pytest.approx(2.0)
        assert pert.frob_norm == pytest.approx(2.0 * np.sqrt(2))

    def test_norms_are_measured_never_set(self):
        """||ΔH||_inf divides every bound, so both norms come from the matrix."""
        sym = Symmetry("linear", Z)
        with pytest.raises(TypeError):
            Perturbation(X, sym, 1e-9, 1.0)
        pert = Perturbation(2.0 * X, sym)
        assert (pert.op_norm, pert.frob_norm) == (
            operator_norm(2.0 * X), frobenius_norm(2.0 * X))
        with pytest.raises(ValidationError):
            Perturbation(np.array([[0.0, 1.0], [0.0, 0.0]]), sym)

    def test_dimension_checked_against_the_base_space(self):
        with pytest.raises(DimensionError):
            Perturbation.from_matrix(Symmetry("linear", Z), np.eye(3))
        quad = Symmetry("quadratic", kron(Z, I2) + kron(I2, Z))
        assert Perturbation.from_matrix(quad, X).op_norm == 1.0
        with pytest.raises(DimensionError):
            Perturbation.from_matrix(quad, np.eye(4))

    def test_from_matrix_residual_with_drift(self):
        sym = Symmetry("linear", Z)
        pert = Perturbation.from_matrix(sym, -X, drift=X)
        assert pert.residual == pytest.approx(0.0, abs=1e-12)

    def test_norm_bound_value(self):
        """The restored ||ΔH||_inf under the analytic cap: ||[Z, X]||_F =
        2√2 over the gap 2 is √2, while ΔH = -X has norm 1."""
        cap = analytic_cap(Z, X)
        assert cap == pytest.approx(np.sqrt(2.0))
        assert restore_symmetry(Symmetry("linear", Z), X).op_norm == 1.0

    def test_norm_bound_projector_is_commutator_norm(self, rng):
        """A projector's gap is 1 and [S, H_d] is ±the off-block part of
        H_d, so the cap is ||[S, H_d]||_F = ||ΔH||_F exactly."""
        S = Symmetry("linear", np.diag([1.0, 1.0, 0.0, 0.0]))
        H = random_hermitian(rng, 4)
        cap = analytic_cap(S.matrix, H)
        assert cap == pytest.approx(frobenius_norm(commutator(S.matrix, H)))
        pert = restore_symmetry(S, H)
        assert pert.frob_norm == pytest.approx(cap, rel=1e-12)
        assert pert.op_norm <= cap

    def test_norm_bound_dominates_restoration(self):
        from qsl.models import hopping_chain_model

        bundle = hopping_chain_model(3, 1.0)
        pert = restore_symmetry(bundle.symmetry, bundle.drift)
        cap = analytic_cap(bundle.symmetry.matrix, bundle.drift)
        assert pert.op_norm <= cap + 1e-12


class TestOnePassPerPerturbation:
    """A Perturbation checks ΔH and reads ||ΔH||_inf from one hermiticity
    pass, and the norm is ``operator_norm``'s bit for bit."""

    @pytest.mark.parametrize("d", [6, 130])
    @pytest.mark.parametrize("case", ["real", "complex", "diagonal",
                                      "complex diagonal", "inexact"])
    def test_one_pass(self, rng, monkeypatch, d, case):
        dH = random_hermitian(rng, d)
        if case == "real":
            dH = dH.real
        elif case == "diagonal":
            dH = np.diag(dH.diagonal().real)
        elif case == "complex diagonal":  # e.g. a Pauli-text ΔH such as Z0
            dH = np.diag(dH.diagonal().real).astype(complex)
        elif case == "inexact":  # Hermitian within the tolerance only
            dH = dH + 1e-13 * rng.standard_normal((d, d))
        sym = Symmetry("linear", random_hermitian(rng, d))
        passes = []
        fn = qsl.matcore._hermitian_pass
        monkeypatch.setattr(qsl.matcore, "_hermitian_pass",
                            lambda *a, **k: passes.append(1) or fn(*a, **k))
        pert = Perturbation(dH, sym)
        assert passes == [1]
        monkeypatch.undo()
        assert pert.matrix is dH
        assert pert.op_norm == operator_norm(dH)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_diagonal_is_not_copied(self, dtype):
        """A diagonal ΔH is checked, not hermitised: no d x d array is
        allocated, even for a complex ΔH with a zero imaginary part, whose
        Hermitian part would be a float64 copy."""
        d = 512
        dH = np.diag(np.linspace(-1.0, 1.0, d)).astype(dtype)
        sym = Symmetry("linear", np.diag(np.arange(d, dtype=float)))
        tracemalloc.start()
        try:
            pert = Perturbation(dH, sym)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pert.matrix is dH and pert.op_norm == 1.0
        assert peak < d * d * 8 // 4, peak


class TestResidualFromOneProduct:
    """Perturbation.from_matrix forms ||[S, H]||_F as ||P - P†||_F with
    P = S H (or S iota(H)); the two-product commutator is the oracle."""

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("d", [2, 5, 9])
    def test_linear(self, rng, d, real):
        for _ in range(5):
            S, H_d, dH = (random_hermitian(rng, d) for _ in range(3))
            if real:
                S, H_d, dH = S.real, H_d.real, dH.real
            pert = Perturbation.from_matrix(Symmetry("linear", S), dH, drift=H_d)
            want = frobenius_norm(commutator(S, H_d + dH))
            assert pert.residual == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("real", [True, False])
    @pytest.mark.parametrize("d", [2, 3])
    def test_quadratic(self, rng, d, real):
        for _ in range(5):
            S = random_hermitian(rng, d * d)
            H_d, dH = random_hermitian(rng, d), random_hermitian(rng, d)
            if real:
                S, H_d, dH = S.real, H_d.real, dH.real
            pert = Perturbation.from_matrix(Symmetry("quadratic", S), dH,
                                            drift=H_d)
            want = frobenius_norm(commutator(S, iota(H_d + dH)))
            assert pert.residual == pytest.approx(want, rel=1e-12)


# Oracles: each solver forms its own two-product commutator residual, and
# the eigenvalues of S are clustered one at a time.

def _oracle_restore_linear(S: Symmetry, H_d: np.ndarray):
    w, V = np.linalg.eigh(S.matrix)
    labels = loop_labels(w, GAP_RTOL * float(np.max(np.abs(w))))
    Hd_eig = V.conj().T @ H_d @ V
    off_cluster = labels[:, None] != labels[None, :]
    dH = hermitize(V @ np.where(off_cluster, -Hd_eig, 0.0) @ V.conj().T)
    return dH, frobenius_norm(commutator(S.matrix, H_d + dH))


def _oracle_restore_quadratic(S: Symmetry, H_d: np.ndarray):
    d = H_d.shape[0]
    K = _quadratic_constraint(S.matrix, d)
    y, *_ = np.linalg.lstsq(
        K, -commutator(S.matrix, _lift(H_d)).reshape(-1), rcond=TAU_RANK)
    dH = hermitize(y.reshape(d, d))
    return dH, frobenius_norm(commutator(S.matrix, _lift(H_d + dH)))


def _rounded_spectrum(rng, d):
    """Exactly Hermitian, with eigenvalues rounded to a few integers, so
    the clusters are degenerate."""
    V = random_unitary(rng, d)
    w = np.round(2.0 * rng.standard_normal(d))
    return hermitize((V * w) @ V.conj().T)


def _kernel_rows(K: np.ndarray) -> np.ndarray:
    """Rows N whose conjugates span ker K: the right singular vectors of
    one dense SVD of K with singular value at most TAU_RANK·s_max."""
    _, s, Vh = np.linalg.svd(K)
    rank = int(np.sum(s > TAU_RANK * s[0])) if s.size and s[0] > 0 else 0
    return Vh[rank:]


def _assert_minimal_norm(S: np.ndarray, H: np.ndarray, dH: np.ndarray):
    """ΔH is orthogonal to ker K, the minimal-norm property: no part of it
    could be dropped with the constraint still met."""
    N = _kernel_rows(_quadratic_constraint(S, H.shape[0]))
    leak = np.linalg.norm(N @ dH.reshape(-1))
    assert leak <= 1e-12 * max(1.0, frobenius_norm(H))


class TestOneExit:
    """restore_symmetry returns the oracles' ΔH and op_norm, and their
    residual to rounding.  The linear oracle runs the solver's one LAPACK
    call, so that ΔH is equal bit for bit; the quadratic oracle is a
    per-row lstsq, which the stacked QR and SVD projection meets at
    ||ΔH - ΔH_oracle||_F <= 1e-12·max(1, ||H_d||_F), with ΔH orthogonal to
    ker K."""

    def _assert_matches(self, S, H, oracle):
        want_dH, want_residual = oracle(S, H)
        pert = restore_symmetry(S, H)
        if S.kind == "linear":
            assert np.array_equal(pert.matrix, want_dH)
            assert pert.op_norm == operator_norm(want_dH)
        else:
            close = 1e-12 * max(1.0, frobenius_norm(H))
            assert frobenius_norm(pert.matrix - want_dH) <= close
            assert abs(pert.op_norm - operator_norm(want_dH)) <= close
            _assert_minimal_norm(S.matrix, H, pert.matrix)
        scale = max(1.0, S.frobenius * frobenius_norm(H))
        assert abs(pert.residual - want_residual) <= 1e-14 * scale

    @pytest.mark.parametrize("d", [2, 3, 5, 8, 16])
    @pytest.mark.parametrize("spectrum", ["random", "rounded"])
    def test_linear(self, rng, d, spectrum):
        for _ in range(5):
            M = (random_hermitian(rng, d) if spectrum == "random"
                 else _rounded_spectrum(rng, d))
            self._assert_matches(Symmetry("linear", M),
                                 random_hermitian(rng, d),
                                 _oracle_restore_linear)

    @pytest.mark.parametrize("d", [2, 3])
    def test_quadratic(self, rng, d):
        basis = quadratic_symmetry_basis([random_hermitian(rng, d)])
        for _ in range(5):
            M = sum(rng.standard_normal() * b.matrix for b in basis)
            S = Symmetry("quadratic", M + rng.standard_normal() * np.eye(d * d))
            self._assert_matches(S, random_hermitian(rng, d),
                                 _oracle_restore_quadratic)

    def test_coupled_qubit_bundle(self):
        bundle = coupled_qubit_model(0.7)
        self._assert_matches(bundle.symmetry, bundle.drift,
                             _oracle_restore_quadratic)

    @pytest.mark.parametrize("kind,d", [("linear", 4), ("quadratic", 2)])
    def test_unrestored_drift_raises(self, rng, monkeypatch, kind, d):
        """A solve whose ΔH leaves H_d + ΔH breaking S is refused, with the
        residual and the limit it failed."""
        dim = d if kind == "linear" else d * d
        S = Symmetry(kind, random_hermitian(rng, dim))
        monkeypatch.setattr(qsl.perturb, f"_restore_{kind}",
                            lambda S, H: -0.5 * H)
        with pytest.raises(ConditioningError) as err:
            restore_symmetry(S, random_hermitian(rng, d))
        diagnostics = err.value.diagnostics
        assert diagnostics["residual"] > diagnostics["limit"] > 0.0

    def test_dimension_mismatch_rejected(self, rng):
        for S in (Symmetry("linear", random_hermitian(rng, 3)),
                  Symmetry("quadratic", random_hermitian(rng, 9))):
            with pytest.raises(ValidationError):
                restore_symmetry(S, random_hermitian(rng, 2))


def _copy_swap(d: int) -> np.ndarray:
    """The swap of the two copies, |a, b> -> |b, a>, on d² dimensions."""
    a, b = np.divmod(np.arange(d * d), d)
    P = np.zeros((d * d, d * d))
    P[b * d + a, np.arange(d * d)] = 1.0
    return P


def _quadratic_row(rng, d: int, kind: str, W: np.ndarray) -> np.ndarray:
    """One exactly Hermitian quadratic S on d² dimensions.  ``merged`` is
    an integer combination of 1, the copy swap and the pair projections
    Π_ab + Π_ba in the eigenframe W of a control, whose eigenvalues
    coincide across clusters."""
    n = d * d
    if kind == "identity":  # K = 0: nothing to restore
        return np.eye(n)
    if kind == "swap":
        return _copy_swap(d)
    if kind == "merged":
        S = rng.integers(-1, 2) * np.eye(n) + rng.integers(-1, 2) * _copy_swap(d)
        P = np.einsum("ia,ja->aij", W, W.conj())  # eigenprojections of W
        for a in range(d):
            for b in range(a, d):
                pair = kron(P[a], P[b]) + kron(P[b], P[a])
                S = S + rng.integers(-1, 2) * pair
        return hermitize(S)
    control = random_hermitian(rng, d)
    if kind == "real":
        control = control.real
    basis = quadratic_symmetry_basis([control])
    return hermitize(sum(rng.standard_normal() * b.matrix for b in basis))


@given(d=st.sampled_from([2, 3]), seed=st.integers(0, 2**32 - 1),
       kinds=st.lists(st.sampled_from(["identity", "swap", "merged", "real",
                                       "complex"]), min_size=1, max_size=6),
       real_frame=st.booleans(), real_drift=st.booleans())
@settings(max_examples=60, deadline=None)
def test_stacked_quadratic_restore(d, seed, kinds, real_frame, real_drift):
    """_restore_quadratic on a stack of real, complex or mixed rows: each
    row is a per-row lstsq's minimal-norm ΔH, restores S to the residual
    limit and is orthogonal to ker K, and equals that row restored alone
    bit for bit."""
    rng = np.random.default_rng(seed)
    frame = random_hermitian(rng, d)
    W = np.linalg.eigh(frame.real if real_frame else frame)[1]
    S = np.array([_quadratic_row(rng, d, kind, W) for kind in kinds])
    if not S.imag.any():
        S = np.ascontiguousarray(S.real)
    H = random_hermitian(rng, d)
    H = hermitize(H.real).real if real_drift else H
    dH = _restore_quadratic(S, H)
    assert dH.shape == (len(S), d, d)
    real = S.dtype == H.dtype == np.float64  # then every step is real
    assert (dH.dtype == np.float64) == real
    scale = max(1.0, frobenius_norm(H))
    for i, S_i in enumerate(S):
        want, _ = _oracle_restore_quadratic(Symmetry("quadratic", S_i), H)
        assert frobenius_norm(dH[i] - want) <= 1e-12 * scale
        residual = frobenius_norm(commutator(S_i, _lift(H + dH[i])))
        assert residual <= _commuting_limit(frobenius_norm(S_i),
                                            frobenius_norm(H))
        _assert_minimal_norm(S_i, H, dH[i])
        if kinds[i] == "identity":
            assert not dH[i].any()
        for alone in (_restore_quadratic(S[i:i + 1], H)[0],
                      _restore_quadratic(S_i, H),
                      _restore_quadratic(S_i, H, _quadratic_setup(H))):
            assert np.array_equal(alone, dH[i])


class TestDriftKeepsSymmetry:
    """A drift that passes restoration's acceptance test by itself keeps S:
    its ΔH is all zeros, so no bound follows."""

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_linear(self, rng, d):
        for _ in range(5):
            # H_d a polynomial in S commutes with it up to rounding
            S = Symmetry("linear", _rounded_spectrum(rng, d))
            H = S.matrix @ S.matrix - 0.5 * S.matrix
            assert frobenius_norm(commutator(S.matrix, H)) > 0.0
            pert = restore_symmetry(S, H)
            assert not pert.matrix.any() and pert.matrix.shape == (d, d)
            assert pert.op_norm == 0.0 and pert.frob_norm == 0.0

    def test_quadratic(self, rng):
        controls = [kron(random_hermitian(rng, 2), I2),
                    kron(I2, random_hermitian(rng, 2))]
        basis = quadratic_symmetry_basis(controls)
        for _ in range(5):
            S = Symmetry("quadratic", sum(rng.standard_normal() * b.matrix
                                          for b in basis))
            H = sum(rng.standard_normal() * C for C in controls)
            pert = restore_symmetry(S, H)
            assert not pert.matrix.any() and pert.op_norm == 0.0

    def test_decided_at_the_limit(self):
        """||[Z, εX]||_F = 2√2·ε against TAU_RANK·max(1, ||Z||_F ||εX||_F)
        = 1e-9: the drift keeps Z up to ε = 3.54e-10."""
        S = Symmetry("linear", Z)
        assert restore_symmetry(S, 3.5e-10 * X).op_norm == 0.0
        eps = 3.6e-10
        assert np.array_equal(restore_symmetry(S, eps * X).matrix, -eps * X)

    @pytest.mark.parametrize("tol", [float("nan"), -1e-9, float("inf")])
    def test_unusable_tolerance_rejected(self, tol):
        """The acceptance cut is TAU_RANK; no caller sets it, so any
        tolerance passed, even TAU_RANK itself, is refused."""
        for value in (tol, TAU_RANK):
            with pytest.raises(TypeError):
                restore_symmetry(Symmetry("linear", Z), X, tol=value)

    def test_overflowing_drift_norm_decides_nothing(self):
        """A drift whose squared entries overflow is decided on norms summed
        again from scaled entries: ||[X, 1e200·Z]||_F and the residual are
        finite, so 1e200·Z is restored to ΔH = -1e200·Z, to rounding.  A
        product ||S||_F ||H||_F past float64 would make the limit inf, so
        that every residual would pass as "keeps": the limit refuses it."""
        pert = restore_symmetry(Symmetry("linear", X), 1e200 * Z)
        assert np.isfinite(pert.residual) and pert.residual < 1e-9 * 2e200
        assert np.isfinite(pert.matrix).all()
        assert np.allclose(pert.matrix, -1e200 * Z, rtol=1e-15, atol=0.0)
        assert pert.op_norm == pytest.approx(1e200, rel=1e-15)
        for h_frob in (float("inf"), float("nan")):
            with pytest.raises(ValidationError, match="not finite"):
                qsl.perturb._commuting_limit(np.array([1.0, 2.0]), h_frob)
        with pytest.raises(ValidationError, match="not finite"):
            qsl.perturb._commuting_limit(1e200, 1e200)
