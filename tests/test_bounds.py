import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qsl import bounds
from qsl.bounds import (
    ChebyshevFilter,
    chebyshev_degree_for,
    chebyshev_filter_bound,
    hamiltonian_speed_limit,
    kernel_complement_norm_commutator,
    kernel_complement_norm_exact,
    optimize_symmetry,
    single_control_bound,
    uniform_speed_limit,
    unitary_speed_limit,
)
from qsl.lie import Symmetry, commutant_basis, quadratic_symmetry_basis
from qsl.matcore import (
    ConditioningError,
    GAP_RTOL,
    PAULI,
    DimensionError,
    QslError,
    ValidationError,
    _cluster_labels,
    commutator,
    frobenius_norm,
    hermitize,
    kron,
    matrix_exponential,
    operator_norm,
)
from qsl.models import (
    Problem,
    PulseSchedule,
    coupled_qubit_model,
    global_controls,
    propagate_piecewise,
)
from qsl.perturb import Perturbation, restore_symmetry
from conftest import (analytic_cap, evolution_from_identity_peak,
                      kernel_projection_lower_bound, pairwise_kernel_complement,
                      random_hermitian, random_state, random_unitary)

X, Y, Z, I2 = PAULI["X"], PAULI["Y"], PAULI["Z"], PAULI["I"]


def lattice_hermitian(rng, d, n_levels=24, scale=1.0):
    """Hermitian matrix with integer-spaced spectrum, Haar-rotated."""
    levels = rng.choice(np.arange(n_levels + 1), size=d, replace=False)
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    Q, R = np.linalg.qr(raw)
    Q = Q * (np.diag(R) / np.abs(np.diag(R)))
    return hermitize((Q * (scale * levels.astype(float))) @ Q.conj().T)


def true_gap_interval(H, kind="linear"):
    """Exact nonzero spectral interval of (ad_H)² (or its doubled-space lift)."""
    w = np.linalg.eigvalsh(H)
    if kind == "quadratic":
        w = np.add.outer(w, w).reshape(-1)
    gaps = np.abs(np.subtract.outer(w, w)).reshape(-1)
    nz = gaps[gaps > 1e-9 * max(1.0, np.max(gaps))]
    return float(nz.min() ** 2), float(nz.max() ** 2)


class TestUniform:
    def test_value(self):
        assert uniform_speed_limit(2.0) == pytest.approx(1 / 8)

    def test_accepts_perturbation_record(self):
        pert = Perturbation(X, Symmetry("linear", Z))
        assert uniform_speed_limit(pert) == pytest.approx(0.25)

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            uniform_speed_limit(0.0)

    def test_half_strength(self):
        assert uniform_speed_limit(0.5) == pytest.approx(0.5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, value):
        with pytest.raises(ValidationError, match="must be finite"):
            uniform_speed_limit(value)


class TestUnitaryBound:
    def test_coupled_qubit_reference_value(self):
        bundle = coupled_qubit_model(1.0)
        rep = unitary_speed_limit(bundle.target_unitary, bundle.symmetry,
                                  bundle.perturbation)
        assert rep.bound_time == pytest.approx(math.sqrt(2) / 4, abs=1e-12)
        assert rep.theorem == "T1a"

    def test_scales_inversely_with_coupling(self):
        for g in (0.5, 2.0):
            bundle = coupled_qubit_model(g)
            rep = unitary_speed_limit(bundle.target_unitary, bundle.symmetry,
                                      bundle.perturbation)
            assert rep.bound_time == pytest.approx(math.sqrt(2) / (4 * g), rel=1e-10)

    def test_linear_kind_value(self):
        S = Symmetry("linear", Z)
        pert = Perturbation(0.5 * X, S)
        U = matrix_exponential(X, 1.0)
        rep = unitary_speed_limit(U, S, pert)
        want = frobenius_norm(commutator(U, Z)) / (2 * frobenius_norm(Z) * 0.5)
        assert rep.bound_time == pytest.approx(want, rel=1e-12)
        assert rep.theorem == "T1b"

    def test_commuting_target_gives_zero(self):
        S = Symmetry("linear", Z)
        pert = Perturbation(X, S)
        U = np.diag(np.exp(1j * np.array([0.2, 1.1])))
        assert unitary_speed_limit(U, S, pert).bound_time == pytest.approx(0.0, abs=1e-12)

    def test_drift_route_reports_the_restored_perturbation(self):
        """Given only the drift, a linear S is restored: ΔH = -X for S = Z,
        reported with the bound, and no warning."""
        S = Symmetry("linear", Z)
        rep = unitary_speed_limit(matrix_exponential(X, 0.3), S, drift=X)
        assert np.array_equal(rep.perturbation.matrix,
                              restore_symmetry(S, X).matrix)
        assert rep.intermediates["delta_h_op_norm"] == 1.0
        assert set(rep.intermediates) == {"symmetry_frobenius",
                                          "delta_h_op_norm", "breaking_norm"}
        assert rep.warnings == []

    def test_symmetry_scaling_leaves_bound_unchanged(self, rng):
        S = random_hermitian(rng, 4)
        pert_m = random_hermitian(rng, 4)
        U = matrix_exponential(random_hermitian(rng, 4), 0.7)
        reps = []
        for factor in (1.0, 5.0):
            sym = Symmetry("linear", factor * S)
            pert = Perturbation(pert_m, sym)
            reps.append(unitary_speed_limit(U, sym, pert).bound_time)
        assert reps[0] == pytest.approx(reps[1], rel=1e-12)


class TestSuppliedPerturbation:
    """A supplied ΔH counts only for its own symmetry and, when the bound
    knows the drift, only if H_d + ΔH keeps that symmetry.  Drift X + 1e-3 Z
    and control Z reach U at T = 0.3."""

    H_d = X + 1e-3 * Z

    def _target(self):
        rng = np.random.default_rng(0)
        system = Problem(self.H_d, [Z])
        return propagate_piecewise(system, PulseSchedule(
            0.1, rng.standard_normal((1, 3))))

    def test_restored_for_its_symmetry(self):
        S = Symmetry("linear", Z)
        rep = unitary_speed_limit(self._target(), S,
                                  restore_symmetry(S, self.H_d),
                                  drift=self.H_d)
        assert rep.bound_time == pytest.approx(0.29536413, rel=1e-7)
        assert rep.bound_time <= 0.3

    def test_equal_symmetry_accepted(self):
        pert = restore_symmetry(Symmetry("linear", Z), self.H_d)
        rep = unitary_speed_limit(self._target(), Symmetry("linear", Z.copy()),
                                  pert)
        assert rep.bound_time <= 0.3

    @pytest.mark.parametrize("drift", [False, True])
    def test_restored_for_another_symmetry_rejected(self, drift):
        pert = restore_symmetry(Symmetry("linear", X), self.H_d)
        with pytest.raises(ValidationError, match="another symmetry"):
            unitary_speed_limit(self._target(), Symmetry("linear", Z), pert,
                                drift=self.H_d if drift else None)

    @pytest.mark.parametrize("listed", [True, False])
    def test_unrestored_drift_rejected(self, listed):
        """1e-3 X leaves X + 1e-3 Z breaking Z: the bound forms the
        residual and refuses, whether the drift is an array or a nested
        list."""
        S = Symmetry("linear", Z)
        pert = Perturbation(1e-3 * X, S)
        drift = self.H_d.tolist() if listed else self.H_d
        with pytest.raises(ConditioningError) as err:
            unitary_speed_limit(self._target(), S, pert, drift=drift)
        diagnostics = err.value.diagnostics
        assert diagnostics["residual"] > diagnostics["limit"]

    def test_delta_h_for_another_drift_rejected(self):
        """S = Z: -1e-3 X restores the drift 1e-3 X but not X + Y, whose U
        at T = 0.3 it would bound by 411.65; the bound given X + Y refuses
        it, while the ΔH restored for X + Y gives 0.291.  The drift 1e-3 X,
        and its list copy, still bound with it."""
        S = Symmetry("linear", Z)
        pert = Perturbation(-1e-3 * X, S)
        U = matrix_exponential(X + Y, 0.3)
        with pytest.raises(ConditioningError) as err:
            unitary_speed_limit(U, S, pert, drift=X + Y)
        diagnostics = err.value.diagnostics
        assert diagnostics["residual"] > diagnostics["limit"]
        rep = unitary_speed_limit(U, S, restore_symmetry(S, X + Y),
                                  drift=X + Y)
        assert rep.bound_time == pytest.approx(0.29108065, rel=1e-7)
        for drift in (1e-3 * X, (1e-3 * X).tolist()):
            assert unitary_speed_limit(U, S, pert, drift=drift).bound_time > 0

    # the product (H_d + ΔH)·S overflows with no numpy warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_restored_drift_whose_residual_leaves_float64_refused(self):
        """S = 1e150 X with drift Z keeps ||S||_F ||H_d||_F finite, but
        ΔH = 1e200 Z sends ||[S, H_d + ΔH]||_F past float64: refused, as
        the acceptance rule cannot decide."""
        S = Symmetry("linear", 1e150 * X)
        with pytest.raises(ValidationError,
                           match=r"\|\|\[S, H\]\|\|_F is not finite"):
            unitary_speed_limit(np.eye(2), S, Perturbation(1e200 * Z, S),
                                drift=Z)

    def test_trusted_without_drift(self):
        """With no drift anywhere a supplied ΔH is taken as given."""
        S = Symmetry("linear", Z)
        rep = unitary_speed_limit(self._target(), S,
                                  Perturbation(1e-3 * X, S))
        assert rep.intermediates["delta_h_op_norm"] == pytest.approx(1e-3)


class TestKernelComplement:
    def test_fully_breaking_case(self):
        assert kernel_complement_norm_exact(Z, Symmetry("linear", X)) \
            == pytest.approx(math.sqrt(2))

    def test_commuting_case(self):
        assert kernel_complement_norm_exact(Z, Symmetry("linear", Z)) == 0.0

    def test_zero_hamiltonian(self):
        assert kernel_complement_norm_exact(np.zeros((2, 2)),
                                            Symmetry("linear", X)) == 0.0

    def test_pythagoras_with_kernel_part(self, rng):
        # S = commuting piece + breaking piece, orthogonal in Frobenius norm
        H = np.diag([0.0, 1.0, 3.0]).astype(complex)
        S_ker = np.diag([1.0, -2.0, 0.5]).astype(complex)
        off = np.zeros((3, 3), complex)
        off[0, 1] = off[1, 0] = 1.0
        S = Symmetry("linear", S_ker + off)
        got = kernel_complement_norm_exact(H, S)
        assert got == pytest.approx(frobenius_norm(off), rel=1e-12)

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_unusable_degeneracy_tolerance_rejected(self, tol):
        """The swap of the first two levels commutes with diag(1, 1, 2): the
        true numerator is 0, which a negative cut misses."""
        H, S = np.diag([1.0, 1.0, 2.0]), Symmetry("linear", np.eye(3)[[1, 0, 2]])
        assert kernel_complement_norm_exact(H, S, 0.0) == 0.0
        with pytest.raises(ValidationError, match="degeneracy tolerance"):
            kernel_complement_norm_exact(H, S, tol)
        with pytest.raises(ValidationError, match="degeneracy tolerance"):
            hamiltonian_speed_limit(H, S, Perturbation(np.ones((3, 3)), S),
                                    tol_degeneracy=tol)

    def test_identity_generator_has_trivial_kernel_complement(self, rng):
        S = Symmetry("linear", random_hermitian(rng, 4))
        assert kernel_complement_norm_exact(np.eye(4, dtype=complex), S) == 0.0

    def test_commutator_never_exceeds_exact(self, rng):
        for _ in range(30):
            H = random_hermitian(rng, 6)
            S = Symmetry("linear", random_hermitian(rng, 6))
            lo = kernel_complement_norm_commutator(H, S)
            hi = kernel_complement_norm_exact(H, S)
            assert lo <= hi + 1e-9

    def test_quadratic_commutator_never_exceeds_exact(self, rng):
        for _ in range(10):
            H = random_hermitian(rng, 3)
            S = Symmetry("quadratic", random_hermitian(rng, 9))
            lo = kernel_complement_norm_commutator(H, S)
            hi = kernel_complement_norm_exact(H, S)
            assert lo <= hi + 1e-9


def _exact_with_flag(H, S, tol=None):
    return bounds._exact_projection(bounds._AdKernel(H, S), S.matrix, tol)


def _widest_cluster(lam, tol):
    """Largest max - min over the clusters of the sorted values."""
    w = np.sort(lam)
    starts = np.flatnonzero(np.diff(_cluster_labels(w, tol), prepend=-1))
    ends = np.append(starts[1:], w.size) - 1
    return float(np.max(w[ends] - w[starts]))


class TestOneClusterRule:
    """The exact numerator's kernel is the eigenvalue clusters of ad_L, the
    rule restoration uses: never a larger value than the pairwise cut
    |λ_i - λ_j| <= tol, the same value unless a cluster is wider than tol,
    and the near-degeneracy warning wherever the pairwise cut gives it."""

    @given(d=st.integers(2, 12), quadratic=st.booleans(), real=st.booleans(),
           seed=st.integers(0, 2**32 - 1), explicit_tol=st.booleans(),
           steps=st.lists(st.sampled_from([0.0, 0.3, 0.7, 0.95, 2.0, 5.0,
                                           9.5, 30.0]),
                          min_size=1, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_never_exceeds_pairwise_cut(self, d, quadratic, real, seed,
                                        explicit_tol, steps):
        if quadratic:
            d = 2 + d % 3  # 2 to 4
        rng = np.random.default_rng(seed)
        # spectrum in [-1, 1] with |w| = 1 at one end, and a chain of
        # eigenvalues spaced by the given multiples of the cut
        tol = 1e-3 if explicit_tol else GAP_RTOL
        w = rng.uniform(-1.0, 1.0, d)
        w[0] = 1.0
        chain = steps[:d - 2]
        w[2:2 + len(chain)] = w[1] + tol * np.cumsum(chain)
        U = (np.linalg.qr(rng.standard_normal((d, d)))[0] if real
             else random_unitary(rng, d))
        H = hermitize((U * w) @ U.conj().T)
        n = d * d if quadratic else d
        M = random_hermitian(rng, n)
        S = Symmetry("quadratic" if quadratic else "linear",
                     M.real if real else M)
        cut = tol if explicit_tol else None
        got, near = _exact_with_flag(H, S, cut)
        want, want_near, lam, used = pairwise_kernel_complement(H, S, cut)
        slack = 1e-12 * frobenius_norm(S.matrix)
        assert got <= want + slack
        if _widest_cluster(lam, used) <= used:
            assert abs(got - want) <= slack
        if want_near:
            assert near

    def test_chain_wider_than_tol(self):
        """Adjacent gaps 6e-4 <= tol = 1e-3 chain 0 and 1.2e-3 into one
        cluster: their entry joins the kernel, which the pairwise cut keeps,
        and the warning still fires."""
        H = np.diag([0.0, 6e-4, 1.2e-3, 1.0])
        S = Symmetry("linear", np.ones((4, 4)))
        got = kernel_complement_norm_exact(H, S, 1e-3)
        want, want_near, _, _ = pairwise_kernel_complement(H, S, 1e-3)
        assert got == pytest.approx(math.sqrt(6), rel=1e-14)
        assert want == pytest.approx(math.sqrt(8), rel=1e-14) and want_near
        pert = Perturbation(np.diag([1.0, 0.0, 0.0, 0.0]), S)
        rep = hamiltonian_speed_limit(H, S, pert, tol_degeneracy=1e-3)
        assert any("degeneracy" in w for w in rep.warnings)

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    @pytest.mark.parametrize("rel,warned", [(1 - 1e-6, True),
                                            (1 + 1e-6, False)])
    def test_warning_band_edge(self, kind, rel, warned):
        """An adjacent gap just inside or just outside 10·tol."""
        tol = 1e-3
        g = 10 * tol * rel
        if kind == "linear":
            H = np.diag([0.0, g, 1.0])
        else:  # pairwise sums 0, g, g, 2g: adjacent gaps g, 0, g
            H = np.diag([0.0, g])
        d = H.shape[0]
        n = d if kind == "linear" else d * d
        S = Symmetry(kind, random_hermitian(np.random.default_rng(5), n))
        pert = Perturbation(np.eye(d)[::-1], S)
        rep = hamiltonian_speed_limit(H, S, pert, tol_degeneracy=tol)
        assert any("degeneracy" in w for w in rep.warnings) is warned
        assert pairwise_kernel_complement(H, S, tol)[1] is warned


class TestChebyshev:
    def test_epsilon_decreases_with_degree(self):
        eps = [ChebyshevFilter(m, 1.0, 100.0).epsilon for m in (4, 16, 64)]
        assert eps[0] > eps[1] > eps[2] > 0

    def test_degree_for_meets_target(self):
        m = chebyshev_degree_for(1e-6, 1.0, 100.0)
        assert ChebyshevFilter(m, 1.0, 100.0).epsilon <= 1e-6
        assert ChebyshevFilter(m - 1, 1.0, 100.0).epsilon > 1e-6

    def test_degree_for_capped_at_the_constant(self):
        assert chebyshev_degree_for(1e-12, 1e-6, 1e6) == \
            bounds.DEFAULT_MAX_DEGREE
        with pytest.raises(TypeError):
            chebyshev_degree_for(1e-2, 1.0, 100.0, max_degree=10)

    def test_filter_value_at_zero_is_one(self):
        filt = ChebyshevFilter(12, 1.0, 9.0)
        assert filt.evaluate(0.0) == pytest.approx(1.0, rel=1e-12)

    def test_filter_small_inside_band(self):
        filt = ChebyshevFilter(40, 1.0, 9.0)
        xs = np.linspace(1.0, 9.0, 17)
        assert np.max(np.abs(filt.evaluate(xs))) <= filt.epsilon * 1.0000001

    def test_converges_with_true_interval(self, rng):
        H = lattice_hermitian(rng, 8, scale=0.7)
        S = Symmetry("linear", random_hermitian(rng, 8))
        lo, hi = true_gap_interval(H)
        exact = kernel_complement_norm_exact(H, S)
        got, eps = chebyshev_filter_bound(H, S, 256, lo, hi)
        assert eps < 1e-6
        assert got == pytest.approx(exact, abs=1e-6)

    def test_valid_even_with_wrong_interval(self, rng):
        H = lattice_hermitian(rng, 8)
        S = Symmetry("linear", random_hermitian(rng, 8))
        exact = kernel_complement_norm_exact(H, S)
        lo, hi = true_gap_interval(H)
        for bad in [(hi / 4, hi / 2), (lo / 100, hi / 10), (hi, 2 * hi)]:
            got, _ = chebyshev_filter_bound(H, S, 64, *bad)
            assert 0.0 <= got <= exact + 1e-9

    def test_single_gap_spectrum(self):
        # only one nonzero gap value: the estimate interval collapses
        S = Symmetry("linear", X)
        got, _ = chebyshev_filter_bound(Z, S, 64, 4.0, 4.0)
        assert got == pytest.approx(math.sqrt(2), abs=1e-9)

    def test_single_gap_low_degree(self):
        S = Symmetry("linear", X)
        got, _ = chebyshev_filter_bound(Z, S, 8, 4.0, 4.0)
        assert got == pytest.approx(math.sqrt(2), abs=1e-3)

    def test_commuting_symmetry_clamps_to_zero(self):
        got, _ = chebyshev_filter_bound(Z, Symmetry("linear", Z), 32, 4.0, 4.0)
        assert got == 0.0


class TestHamiltonianBound:
    def test_linear_value_identity(self, rng):
        H = random_hermitian(rng, 5)
        S = Symmetry("linear", random_hermitian(rng, 5))
        pert = Perturbation(random_hermitian(rng, 5), S)
        rep = hamiltonian_speed_limit(H, S, pert)
        want = kernel_complement_norm_exact(H, S) / (
            math.sqrt(2) * S.frobenius * pert.op_norm)
        assert rep.bound_time == pytest.approx(want, rel=1e-12)
        assert rep.theorem == "T2b"

    def test_quadratic_value_identity(self, rng):
        H = random_hermitian(rng, 3)
        S = Symmetry("quadratic", random_hermitian(rng, 9))
        pert = Perturbation(random_hermitian(rng, 3), S)
        rep = hamiltonian_speed_limit(H, S, pert)
        want = kernel_complement_norm_exact(H, S) / (
            2 * math.sqrt(2) * S.frobenius * pert.op_norm)
        assert rep.bound_time == pytest.approx(want, rel=1e-12)
        assert rep.theorem == "T2a"

    def test_method_ordering(self, rng):
        H = lattice_hermitian(rng, 6)
        S = Symmetry("linear", random_hermitian(rng, 6))
        pert = Perturbation(random_hermitian(rng, 6), S)
        exact = hamiltonian_speed_limit(H, S, pert, method="exact").bound_time
        comm = hamiltonian_speed_limit(H, S, pert, method="commutator").bound_time
        lo, hi = true_gap_interval(H)
        cheb = hamiltonian_speed_limit(H, S, pert, method="chebyshev",
                                       degree=256, sigma_min_est=lo,
                                       sigma_max_est=hi).bound_time
        assert comm <= exact + 1e-9
        assert cheb <= exact + 1e-9
        assert cheb == pytest.approx(exact, abs=1e-6)

    def test_default_chebyshev_interval_is_sound(self, rng):
        H = random_hermitian(rng, 6)
        S = Symmetry("linear", random_hermitian(rng, 6))
        pert = Perturbation(random_hermitian(rng, 6), S)
        rep = hamiltonian_speed_limit(H, S, pert, method="chebyshev", degree=128)
        exact = hamiltonian_speed_limit(H, S, pert).bound_time
        assert 0.0 <= rep.bound_time <= exact + 1e-9
        assert "epsilon" in rep.intermediates

    def test_pauli_reference_value(self):
        # fully off-diagonal S against a Z generator with unit-strength controls
        S = Symmetry("linear", X)
        pert = Perturbation(Z, S)
        rep = hamiltonian_speed_limit(Z, S, pert)
        assert rep.bound_time == pytest.approx(1 / math.sqrt(2), rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_commutator_numerator_past_float64(self):
        """H_s = 1e200 Z and S = 1e150 X: the product H_s S leaves float64,
        but the value is homogeneous of degree 0 in H_s, so the commutator
        numerator is formed again from H_s/||H_s||_inf, and the bound is
        exact's, here ||X||_F/(√2 ||X||_F 1e-3) = 707.1."""
        S = Symmetry("linear", 1e150 * X)
        pert = Perturbation(1e-3 * Z, S)
        exact, comm = (hamiltonian_speed_limit(1e200 * Z, S, pert,
                                               method=method).bound_time
                       for method in ("exact", "commutator"))
        assert exact == pytest.approx(1e3 / math.sqrt(2), rel=1e-12)
        assert comm == pytest.approx(exact, rel=1e-12)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("method", ["exact", "commutator", "gate"])
    def test_underflowing_denominator_refused(self, method):
        """||S||_F ||ΔH||_inf = 1.4e-350 is 0 in float64: the time would be
        infinite (or a ZeroDivisionError), and is refused."""
        S = Symmetry("linear", 1e-150 * X)
        pert = Perturbation(1e-200 * Z, S)
        with pytest.raises(ValidationError, match="not finite"):
            if method == "gate":
                unitary_speed_limit(matrix_exponential(X + Z, 0.3), S, pert)
            else:
                hamiltonian_speed_limit(Z, S, pert, method=method)

    def test_commuting_target_gives_zero(self):
        S = Symmetry("linear", Z)
        rep = hamiltonian_speed_limit(Z, S, Perturbation(X, S))
        assert rep.bound_time == 0.0

    def test_near_degenerate_warning(self):
        H = np.diag([0.0, 1.0, 1.0 + 3e-8]).astype(complex)
        S = Symmetry("linear", random_hermitian(np.random.default_rng(0), 3))
        pert = Perturbation(np.diag([0.1, 0.0, 0.0]).astype(complex), S)
        rep = hamiltonian_speed_limit(H, S, pert)
        assert any("degeneracy" in w for w in rep.warnings)

    def test_unknown_method_rejected(self):
        S = Symmetry("linear", Z)
        with pytest.raises(ValidationError):
            hamiltonian_speed_limit(X, S, Perturbation(X, S),
                                    method="magic")


class TestSingleControl:
    def test_reference_value(self):
        """Control Z, drift X: ΔH = -X restores Z, ||ΔH||_inf = 1."""
        U = matrix_exponential(X, 0.7)
        got = single_control_bound(X, Z, U)
        want = frobenius_norm(commutator(U, Z)) / (2 * frobenius_norm(Z))
        assert got == pytest.approx(want, rel=1e-12)

    def test_commuting_control_rejected(self):
        with pytest.raises(ValidationError):
            single_control_bound(Z, Z, matrix_exponential(Z, 0.5))

    def test_pauli_target(self):
        # ||[Z, X]||_F = 2 sqrt(2), ||X||_F = sqrt(2), ΔH = -Z restores X
        assert single_control_bound(Z, X, Z.astype(complex)) == pytest.approx(
            1.0, rel=1e-12)

    def test_target_commuting_with_control_gives_zero(self):
        U = matrix_exponential(X, 1.1)
        assert single_control_bound(Z, X, U) == pytest.approx(0.0, abs=1e-12)

    def test_drift_scaling_halves(self):
        U = matrix_exponential(X, 0.7)
        assert single_control_bound(2 * Z, X, U) == pytest.approx(
            single_control_bound(Z, X, U) / 2, rel=1e-12)

    def test_is_the_restored_linear_unitary_bound(self, rng):
        for d in (2, 3, 5):
            H_d, H_c = random_hermitian(rng, d), random_hermitian(rng, d)
            U = random_unitary(rng, d)
            rep = unitary_speed_limit(U, Symmetry("linear", H_c), drift=H_d)
            assert single_control_bound(H_d, H_c, U) == rep.bound_time


class TestDriftKeepsSymmetry:
    """S a ±1-valued function of H_d, and U = exp(-i H_d t) reached by the
    drift alone in t: every bound built on S must refuse."""

    @pytest.mark.parametrize("d", [2, 3, 4, 6])
    def test_every_bound_refuses(self, rng, d):
        for _ in range(5):
            H_d = random_hermitian(rng, d)
            w, V = np.linalg.eigh(H_d)
            signs = np.where(w > np.median(w), 1.0, -1.0)
            S = Symmetry("linear", (V * signs) @ V.conj().T)
            U = matrix_exponential(H_d, 1e-3)
            for bound in (
                    lambda: unitary_speed_limit(U, S, drift=H_d),
                    lambda: unitary_speed_limit(U, S,
                                                restore_symmetry(S, H_d)),
                    lambda: single_control_bound(H_d, S.matrix, U)):
                with pytest.raises(ValidationError):
                    bound()


class TestOneHermitianArray:
    """A symmetry holds one Hermitian array: every term of the bound reads
    the operator the restoration residual certifies."""

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    @pytest.mark.parametrize("seed", range(3))
    def test_near_hermitian_symmetry_is_its_hermitian_part(self, kind, seed):
        """S within TAU_H of Hermitian, given with the drift: the unitary
        bound and all three Hamiltonian bounds equal, bit for bit, those of
        hermitize(S), intermediates and warnings included."""
        rng = np.random.default_rng(seed)
        d = 3
        n = d if kind == "linear" else d * d
        M = random_hermitian(rng, n)
        near = M + 1e-13 * (rng.standard_normal((n, n))
                            + 1j * rng.standard_normal((n, n)))
        assert not np.array_equal(near, near.conj().T)
        S, Sh = Symmetry(kind, near), Symmetry(kind, hermitize(near))
        H_d, H_s = random_hermitian(rng, d), random_hermitian(rng, d)
        U = random_unitary(rng, d)
        bounds_of = [lambda T: unitary_speed_limit(U, T, drift=H_d)]
        bounds_of += [lambda T, m=m: hamiltonian_speed_limit(
            H_s, T, method=m, drift=H_d)
            for m in ("exact", "commutator", "chebyshev")]
        for bound in bounds_of:
            got, want = bound(S), bound(Sh)
            assert got.bound_time == want.bound_time
            assert got.intermediates == want.intermediates
            assert got.warnings == want.warnings


# theorem -> (symmetry kind, gate target?, c, k) in
# T >= numerator / (c · k · ||S||_F · ||ΔH||_inf)
THEOREMS = {"T1a": ("quadratic", True, 2.0, 2.0),
            "T1b": ("linear", True, 2.0, 1.0),
            "T2a": ("quadratic", False, math.sqrt(2.0), 2.0),
            "T2b": ("linear", False, math.sqrt(2.0), 1.0)}


def theorem_problem(theorem):
    """(bound, numerator, S, drift) for one theorem on d = 4: ``bound``
    evaluates the theorem's speed limit, ``numerator`` is its numerator
    computed from the plain formula.  Quadratic symmetries are the coupled
    qubit bundle's, which its drift breaks; linear ones are random."""
    kind, gate, _, _ = THEOREMS[theorem]
    rng = np.random.default_rng(11)
    if kind == "quadratic":
        bundle = coupled_qubit_model(1.0)
        S, drift = bundle.symmetry, bundle.drift
    else:
        S = Symmetry("linear", random_hermitian(rng, 4))
        drift = random_hermitian(rng, 4)
    if gate:
        U = random_unitary(rng, 4)
        lifted = kron(U, U) if kind == "quadratic" else U
        return (lambda *a, **kw: unitary_speed_limit(U, S, *a, **kw),
                frobenius_norm(commutator(lifted, S.matrix)), S, drift)
    H = random_hermitian(rng, 4)
    return (lambda *a, **kw: hamiltonian_speed_limit(H, S, *a, **kw),
            kernel_complement_norm_exact(H, S), S, drift)


class TestOneTheoremTail:
    """All four theorems are T >= numerator / (c · k · ||S||_F · ||ΔH||_inf),
    with ||ΔH||_inf from a supplied perturbation or, given a drift, the
    restored one, for either kind of S."""

    @pytest.mark.parametrize("source", ["supplied", "drift"])
    @pytest.mark.parametrize("theorem", sorted(THEOREMS))
    def test_closed_form(self, theorem, source):
        kind, gate, c, k = THEOREMS[theorem]
        bound, num, S, drift = theorem_problem(theorem)
        if source == "supplied":
            pert = Perturbation(
                random_hermitian(np.random.default_rng(3), 4), S)
            rep = bound(pert)
            dh = pert.op_norm
            assert rep.perturbation is pert
        else:  # the restored minimal perturbation
            rep = bound(drift=drift)
            restored = restore_symmetry(S, drift)
            dh = restored.op_norm
            assert np.array_equal(rep.perturbation.matrix, restored.matrix)
        assert rep.theorem == theorem
        assert rep.bound_time == num / (c * k * S.frobenius * dh)
        assert rep.warnings == []
        assert rep.intermediates["delta_h_op_norm"] == dh
        assert rep.intermediates["symmetry_frobenius"] == S.frobenius
        name = "breaking_norm" if gate else "kernel_complement_norm"
        assert rep.intermediates[name] == num
        assert rep.projection_method == ("not_applicable" if gate else "exact")

    @pytest.mark.parametrize("case,message", [
        ("zero perturbation", "symmetry already commutes with the drift; "
                              "no time bound follows"),
        ("neither", "either a perturbation or a drift is required"),
        ("commuting drift", "symmetry already commutes with the drift; "
                            "no time bound follows")])
    @pytest.mark.parametrize("theorem", sorted(THEOREMS))
    def test_error_messages(self, theorem, case, message):
        bound, _, S, _ = theorem_problem(theorem)
        if case == "zero perturbation":
            args, kwargs = (Perturbation(np.zeros((4, 4)), S),), {}
        elif case == "neither":
            args, kwargs = (), {}
        else:  # the identity commutes with S and, lifted, with quadratic S
            args, kwargs = (), {"drift": np.eye(4)}
        with pytest.raises(ValidationError) as err:
            bound(*args, **kwargs)
        assert str(err.value) == message

    def test_zero_symmetry_checked_before_the_numerator(self):
        """A zero S is reported before a target of the wrong dimension."""
        S = Symmetry("linear", np.zeros((2, 2)))
        pert = Perturbation(X, S)
        for bound in (lambda: unitary_speed_limit(np.eye(3), S, pert),
                      lambda: hamiltonian_speed_limit(np.eye(3), S, pert)):
            with pytest.raises(ValidationError, match="must be nonzero"):
                bound()

    @pytest.mark.parametrize("supplied", [False, True])
    def test_one_restoration_per_linear_unitary_bound(self, monkeypatch,
                                                      supplied):
        """A drift-only bound restores S once; a supplied ΔH, restored for
        the same drift, is checked against it and restores nothing.  Both
        report the same bound, a linear S's three intermediates and no
        other."""
        bound, num, S, drift = theorem_problem("T1b")
        pert = restore_symmetry(S, drift) if supplied else None
        calls = []

        def counted(S, H_d):
            calls.append(1)
            return restore_symmetry(S, H_d)

        monkeypatch.setattr(bounds, "restore_symmetry", counted)
        rep = bound(pert, drift=drift)
        assert len(calls) == (0 if supplied else 1)
        dh = restore_symmetry(S, drift).op_norm
        assert rep.intermediates == {"symmetry_frobenius": S.frobenius,
                                     "delta_h_op_norm": dh,
                                     "breaking_norm": num}
        assert rep.bound_time == num / (2.0 * S.frobenius * dh)


def _integer_spectrum(rng, d):
    """A linear S with integer eigenvalues in [-2, 2] in a random unitary
    frame."""
    V = random_unitary(rng, d)
    w = rng.integers(-2, 3, size=d).astype(float)
    return hermitize((V * w) @ V.conj().T)


def _outcome(fn):
    """fn()'s report as (bound, theorem, intermediates, warnings), or the
    error it raises as (type, text)."""
    try:
        rep = fn()
    except QslError as err:
        return type(err).__name__, str(err)
    return rep.bound_time, rep.theorem, rep.intermediates, rep.warnings


class TestOneDeltaHSource:
    """Given only the drift, every bound takes ||ΔH||_inf from
    ``restore_symmetry``, for a linear S as for a quadratic one.  The
    analytic cap ||[S, H_d]||_F / σ_min that linear drift-only bounds once
    divided by is computed here from numpy alone, as an oracle that the
    restored ||ΔH||_inf never exceeds."""

    @given(d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
           target=st.sampled_from(["unitary", "exact", "commutator",
                                   "chebyshev"]))
    @settings(max_examples=80, deadline=None)
    def test_drift_only_bound_is_the_restored_bound(self, d, seed, target):
        rng = np.random.default_rng(seed)
        S = Symmetry("linear", _integer_spectrum(rng, d))
        H_d = random_hermitian(rng, d)
        if target == "unitary":
            U = random_unitary(rng, d)
            c, name = 2.0, "breaking_norm"

            def bound(*args, **kwargs):
                return unitary_speed_limit(U, S, *args, **kwargs)
        else:
            H_s = random_hermitian(rng, d)
            c, name = math.sqrt(2.0), "kernel_complement_norm"

            def bound(*args, **kwargs):
                return hamiltonian_speed_limit(H_s, S, *args, method=target,
                                               **kwargs)
        got = _outcome(lambda: bound(drift=H_d))
        assert got == _outcome(lambda: bound(restore_symmetry(S, H_d),
                                             drift=H_d))
        if isinstance(got[0], str):  # S = 0, or a multiple of 1 H_d keeps
            assert np.unique(np.round(np.linalg.eigvalsh(S.matrix))).size == 1
            return
        inter = got[2]
        cap = analytic_cap(S.matrix, H_d)
        assert inter["delta_h_op_norm"] <= cap * (1 + 1e-12)
        assert got[0] >= (inter[name] / (c * S.frobenius * cap)
                          * (1 - 1e-12))

    @pytest.mark.parametrize("delta,refused", [(0.9e-8, True),
                                                (1.1e-8, False)])
    def test_near_cut_spectrum_is_refused(self, rng, delta, refused):
        """S = diag(0, δ, 1).  Below the cluster cut GAP_RTOL·max|w| = 1e-8,
        restoration joins 0 and δ and keeps H_d's entries between them, so
        the restored drift still breaks S by √2·δ ≈ 1.3e-8, past the limit
        TAU_RANK·||S||_F ||H_d||_F ≈ 2.4e-9: every drift-only bound now
        refuses with a ConditioningError, where the analytic cap, over the
        cluster gap 1 - δ/2, gave a finite bound.  Just above the cut the
        two eigenvalues are apart and the same inputs are bounded."""
        S = Symmetry("linear", np.diag([0.0, delta, 1.0]))
        H_d = np.ones((3, 3)) - np.eye(3)
        assert np.isfinite(analytic_cap(S.matrix, H_d))
        U, H_s = random_unitary(rng, 3), random_hermitian(rng, 3)
        for bound in (lambda: unitary_speed_limit(U, S, drift=H_d),
                      lambda: hamiltonian_speed_limit(H_s, S, drift=H_d)):
            if not refused:
                assert bound().bound_time > 0
                continue
            with pytest.raises(ConditioningError, match="restored drift "
                               "still fails to commute") as err:
                bound()
            diagnostics = err.value.diagnostics
            assert diagnostics["residual"] == pytest.approx(
                math.sqrt(2) * delta, rel=1e-6)
            assert diagnostics["residual"] > diagnostics["limit"]


def optimize_symmetry_reference(basis, objective, iterations=200, seed=0):
    """The optimiser as it stood with separate assemble, score and compare
    steps, kept as an oracle: the library's single ``consider`` must pick
    the same candidate."""
    if not basis:
        raise ValidationError("symmetry basis must be nonempty")
    kind = basis[0].kind
    if any(b.kind != kind for b in basis):
        raise ValidationError("all basis elements must share one kind")
    dim = basis[0].dimension
    if any(b.dimension != dim for b in basis):
        raise DimensionError("all basis elements must share one dimension")
    mats = [b.matrix for b in basis]
    eye = np.eye(dim)
    n = len(mats)

    def assemble(coeffs):
        M = sum(c * B for c, B in zip(coeffs[:n], mats)) + coeffs[n] * eye
        nrm = np.linalg.norm(M)
        if nrm <= 1e-12:
            return None
        return Symmetry(kind, M / nrm, note="optimized")

    def score(sym):
        if sym is None:
            return -np.inf
        try:
            v = float(objective(sym))
        except QslError:
            return -np.inf
        return v if np.isfinite(v) else -np.inf

    best_coeffs = None
    best_value = -np.inf

    def consider(coeffs):
        nonlocal best_coeffs, best_value
        v = score(assemble(coeffs))
        if v > best_value:
            best_value = v
            best_coeffs = np.array(coeffs, dtype=float)

    for k in range(n):
        e = np.zeros(n + 1)
        e[k] = 1.0
        consider(e)

    rng = np.random.default_rng(seed)
    for _ in range(max(0, int(iterations))):
        consider(rng.standard_normal(n + 1))

    if best_coeffs is None:
        best_coeffs = np.zeros(n + 1)
        best_coeffs[0] = 1.0

    step = 0.5
    for _ in range(4):
        improved = True
        while improved:
            improved = False
            for k in range(n + 1):
                for delta in (step, -step):
                    trial = best_coeffs.copy()
                    trial[k] += delta
                    v = score(assemble(trial))
                    if v > best_value:
                        best_value, best_coeffs = v, trial
                        improved = True
        step *= 0.25

    result = assemble(best_coeffs)
    if result is None:
        result = Symmetry(kind, mats[0] / np.linalg.norm(mats[0]),
                          note="optimized")
    return result


class TestOptimizeSymmetry:
    @staticmethod
    def _setup(rng):
        controls = global_controls(3)
        basis = commutant_basis(controls)
        H_s = random_hermitian(rng, 8)
        drift = random_hermitian(rng, 8)

        def objective(sym):
            pert = restore_symmetry(sym, drift)
            return hamiltonian_speed_limit(H_s, sym, pert).bound_time

        return basis, objective

    def test_beats_every_basis_element(self, rng):
        basis, objective = self._setup(rng)

        def safe(sym):
            try:
                return objective(sym)
            except ValidationError:
                return -np.inf

        best = optimize_symmetry(basis, objective, iterations=80, seed=2)
        best_score = objective(best)
        for sym in basis:
            assert best_score >= safe(sym) - 1e-12

    def test_deterministic_in_seed(self, rng):
        basis, objective = self._setup(rng)
        a = optimize_symmetry(basis, objective, iterations=30, seed=7)
        b = optimize_symmetry(basis, objective, iterations=30, seed=7)
        assert np.array_equal(a.matrix, b.matrix)

    def test_returns_unit_frobenius_combination(self, rng):
        basis, objective = self._setup(rng)
        best = optimize_symmetry(basis, objective, iterations=10, seed=0)
        assert best.frobenius == pytest.approx(1.0, rel=1e-9)

    def test_empty_basis_rejected(self):
        with pytest.raises(ValidationError):
            optimize_symmetry([], lambda s: 0.0)

    def test_single_element_basis_not_worse(self, rng):
        """The first element the objective scores: the basis lists the
        identity first, which every drift keeps, so no bound follows
        from it."""
        basis, objective = self._setup(rng)
        with pytest.raises(ValidationError, match="already commutes"):
            objective(basis[0])
        one = basis[1:2]
        best = optimize_symmetry(one, objective, iterations=40, seed=1)
        assert objective(best) >= objective(one[0]) - 1e-12

    def test_entangling_gate_search_beats_reference(self):
        bundle = coupled_qubit_model(1.0)
        basis = quadratic_symmetry_basis(bundle.controls)
        drift = bundle.drift
        U = bundle.target_unitary

        def objective(sym):
            pert = restore_symmetry(sym, drift)
            return unitary_speed_limit(U, sym, pert).bound_time

        best = optimize_symmetry(basis, objective, iterations=60, seed=3)
        assert objective(best) >= math.sqrt(2) / 4 - 1e-9


class TestOptimizerMatchesReference:
    """The optimiser picks bit for bit the candidate of the reference."""

    @staticmethod
    def _bases():
        bundle = coupled_qubit_model(1.0)
        return {"linear": commutant_basis(global_controls(3)),
                "quadratic": quadratic_symmetry_basis(bundle.controls)}

    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    def test_speed_limit_objective(self, kind):
        basis = self._bases()[kind]
        rng = np.random.default_rng(5)
        if kind == "linear":
            H_s, drift = random_hermitian(rng, 8), random_hermitian(rng, 8)

            def objective(sym):
                return hamiltonian_speed_limit(
                    H_s, sym, restore_symmetry(sym, drift)).bound_time
        else:
            bundle = coupled_qubit_model(1.0)

            def objective(sym):
                return unitary_speed_limit(
                    bundle.target_unitary, sym,
                    restore_symmetry(sym, bundle.drift)).bound_time
        got = optimize_symmetry(basis, objective, iterations=12, seed=4)
        want = optimize_symmetry_reference(basis, objective, iterations=12,
                                           seed=4)
        assert np.array_equal(got.matrix, want.matrix)

    @pytest.mark.parametrize("special",
                             ["raise", "nan", "inf", "always", "plateau"])
    @pytest.mark.parametrize("kind", ["linear", "quadratic"])
    def test_objectives_that_fail_or_tie(self, kind, special):
        """A linear objective that raises a QslError, returns NaN or +inf,
        or is flat (every candidate ties) on part of the sphere; "always"
        raises everywhere."""
        basis = self._bases()[kind]
        A = random_hermitian(np.random.default_rng(6), basis[0].dimension)
        replace = {"nan": math.nan, "inf": math.inf, "plateau": 0.5}

        def objective(sym):
            v = float(np.real(np.vdot(A, sym.matrix)))
            if special == "always" or v > 0.5:
                if special in ("raise", "always"):
                    raise ValidationError("rejected candidate")
                return replace[special]
            return v

        got = optimize_symmetry(basis, objective, iterations=40, seed=1)
        want = optimize_symmetry_reference(basis, objective, iterations=40,
                                           seed=1)
        assert np.array_equal(got.matrix, want.matrix)


class TestStateSpaceHelpers:
    def test_kernel_projection_lower_bound(self, rng):
        for _ in range(10):
            A = random_hermitian(rng, 6)
            w, V = np.linalg.eigh(A)
            keep = np.abs(w) > 1e-10
            v = random_state(rng, 6)
            truth = float(np.linalg.norm(V[:, keep].conj().T @ v) ** 2)
            assert kernel_projection_lower_bound(A, v) <= truth + 1e-10

    def test_evolution_peak_dominates_projection(self, rng):
        for k in range(5):
            # build A with a genuine kernel so both sides are nontrivial
            w = np.array([0.0, 0.0, 0.8, 1.7, 3.1, 4.0])
            V = np.linalg.qr(rng.standard_normal((6, 6))
                             + 1j * rng.standard_normal((6, 6)))[0]
            A = hermitize((V * w) @ V.conj().T)
            v = random_state(rng, 6)
            outside = float(np.linalg.norm(V[:, 2:].conj().T @ v) ** 2)
            peak = evolution_from_identity_peak(A, v)
            assert peak >= 2 * (1 - 0.005) * outside * 0.95
