import math

import numpy as np
import pytest

from qsl import models
from qsl.lie import symmetry_breaking_norm
from qsl.matcore import (
    DimensionCapError,
    PAULI,
    ValidationError,
    commutator,
    frobenius_norm,
    iota,
    kron,
    matrix_exponential,
    operator_norm,
)
from qsl.models import (
    Problem,
    PulseSchedule,
    coupled_qubit_model,
    global_controls,
    hopping_chain_closed_form,
    hopping_chain_model,
    hopping_chain_modes,
    local_operator,
    majorana_operators,
    propagate_piecewise,
    rydberg_chain_model,
    site_sum,
    syk_model,
)
from qsl.perturb import restore_symmetry
from conftest import cluster_gap

X, Y, Z, I2 = PAULI["X"], PAULI["Y"], PAULI["Z"], PAULI["I"]


class TestSiteHelpers:
    def test_local_operator_placement(self):
        assert np.array_equal(local_operator(X, 0, 2), kron(X, I2))
        assert np.array_equal(local_operator(X, 1, 2), kron(I2, X))

    def test_site_sum(self):
        got = site_sum(Z, 2)
        assert np.array_equal(got, kron(Z, I2) + kron(I2, Z))

    def test_global_controls(self):
        gx, gz = global_controls(2)
        assert np.array_equal(gx, site_sum(X, 2))
        assert np.array_equal(gz, site_sum(Z, 2))


class TestCoupledQubitModel:
    def test_reference_bound(self):
        refs = coupled_qubit_model(1.0).references
        assert refs["bound_time"] == pytest.approx(math.sqrt(2) / 4)
        assert refs["literature_time"] == pytest.approx(math.pi / 4)

    def test_reference_bound_at_double_coupling(self):
        refs = coupled_qubit_model(2.0).references
        assert refs["bound_time"] == pytest.approx(0.17677670, abs=5e-9)

    def test_target_is_controlled_not(self):
        U = coupled_qubit_model(1.0).target_unitary
        assert np.array_equal(U.real, np.eye(4)[[0, 1, 3, 2]])

    def test_symmetry_commutes_with_control_lifts(self):
        bundle = coupled_qubit_model(1.0)
        for H in bundle.controls:
            defect = frobenius_norm(commutator(bundle.symmetry.matrix, iota(H)))
            assert defect < 1e-10

    def test_perturbation_cancels_drift(self):
        bundle = coupled_qubit_model(0.8)
        assert np.allclose(bundle.perturbation.matrix, -bundle.drift,
                           atol=1e-12)

    def test_breaking_norm_reference(self):
        bundle = coupled_qubit_model(1.0)
        got = symmetry_breaking_norm(bundle.symmetry, bundle.target_unitary)
        assert got == pytest.approx(refs_breaking := 4 * math.sqrt(2), rel=1e-12)
        assert bundle.references["breaking_norm"] == pytest.approx(refs_breaking)


class TestHoppingChain:
    def test_modes_diagonalize_drift(self):
        N, J = 6, 1.3
        bundle = hopping_chain_model(N, J)
        energies, states = hopping_chain_modes(N, J)
        for k in range(N):
            resid = bundle.drift @ states[:, k] - energies[k] * states[:, k]
            assert np.linalg.norm(resid) < 1e-10

    def test_symmetry_state_is_control_blind(self):
        for N in (3, 7, 12):
            bundle = hopping_chain_model(N)
            S = bundle.symmetry.matrix
            # <1|alpha> = 0 means S has no weight on the controlled site
            assert abs(S[0, 0]) < 1e-12
            assert cluster_gap(S) == pytest.approx(1.0)

    def test_perturbation_restores_symmetry(self):
        bundle = hopping_chain_model(5, 2.0)
        restored = bundle.drift + bundle.perturbation.matrix
        defect = frobenius_norm(commutator(bundle.symmetry.matrix, restored))
        assert defect < 1e-10

    def test_perturbation_norm_is_lowest_gap(self):
        N, J = 8, 1.0
        bundle = hopping_chain_model(N, J)
        gap = 2 * J * (math.cos(math.pi / (N + 1)) - math.cos(2 * math.pi / (N + 1)))
        assert bundle.perturbation.op_norm == pytest.approx(gap, rel=1e-12)
        assert gap < bundle.references["gap_over_bound"]

    def test_closed_form_frozen_values(self):
        assert hopping_chain_closed_form(3, 1.0) == pytest.approx(
            0.248185200058557, abs=1e-12)
        assert hopping_chain_closed_form(5, 2.0) == pytest.approx(
            0.211085799254870, abs=1e-12)

    def test_closed_form_rounds_to_quoted_value(self):
        assert abs(hopping_chain_closed_form(3, 1.0) - 0.24816) < 5e-5

    def test_closed_form_scales_as_inverse_coupling(self):
        assert hopping_chain_closed_form(4, 2.0) == pytest.approx(
            hopping_chain_closed_form(4, 1.0) / 2.0)

    @pytest.mark.parametrize("J", [0.0, -1.0, float("nan"), float("inf")])
    def test_coupling_not_finite_and_positive_refused(self, J):
        """The closed form and the model refuse the same J, with one check."""
        for build in (hopping_chain_closed_form, hopping_chain_model):
            with pytest.raises(ValidationError):
                build(4, J)

    def test_pipeline_with_gap_over_bound_matches_closed_form(self):
        for N in (3, 4, 7, 11):
            bundle = hopping_chain_model(N)
            refs = bundle.references
            got = refs["breaking_norm"] / (
                2 * bundle.symmetry.frobenius * refs["gap_over_bound"])
            assert got == pytest.approx(refs["closed_form"], rel=1e-12)

    def test_exact_gap_pipeline_dominates_closed_form(self):
        # the closed form uses the larger gap over-bound, so the same
        # numerator with the true ||ΔH||_inf can only give a larger time
        for N in range(3, 31):
            bundle = hopping_chain_model(N)
            refs = bundle.references
            exact = refs["breaking_norm"] / (
                2 * bundle.symmetry.frobenius * bundle.perturbation.op_norm)
            assert exact >= refs["closed_form"]

    def test_overlap_numerator_vs_exact_commutator(self):
        # the overlap form ignores the non-orthogonality of the endpoint
        # states; the true commutator norm is smaller by sqrt(1 - a²/2)
        bundle = hopping_chain_model(3)
        refs = bundle.references
        exact = symmetry_breaking_norm(bundle.symmetry, bundle.target_unitary)
        assert exact == pytest.approx(refs["breaking_norm_exact"], rel=1e-10)
        assert refs["breaking_norm_exact"] < refs["breaking_norm"]

    def test_too_short_chain_rejected(self):
        with pytest.raises(ValidationError):
            hopping_chain_model(2)


class TestRydbergChain:
    def test_perturbation_norm_closed_form(self):
        bundle = rydberg_chain_model(3)
        assert operator_norm(bundle.perturbation.matrix) == pytest.approx(
            0.4921875, abs=1e-12)
        assert bundle.references["delta_h_closed_form"] == pytest.approx(0.4921875)

    def test_closed_form_tracks_numerics(self):
        for N in (4, 6, 9):
            bundle = rydberg_chain_model(N, C=1.3, a=0.9)
            got = operator_norm(bundle.perturbation.matrix)
            assert got == pytest.approx(bundle.references["delta_h_closed_form"],
                                        abs=1e-10)

    def test_symmetry_is_pair_swap(self):
        bundle = rydberg_chain_model(4)
        S = bundle.symmetry.matrix
        assert np.allclose(S @ S, np.eye(16))
        for H in bundle.controls:
            assert frobenius_norm(commutator(S, H)) < 1e-12

    def test_perturbed_drift_commutes_with_swap(self):
        bundle = rydberg_chain_model(5)
        restored = bundle.drift + bundle.perturbation.matrix
        assert frobenius_norm(commutator(bundle.symmetry.matrix, restored)) < 1e-12

    def test_target_hamiltonian_structure(self):
        N = 3
        bundle = rydberg_chain_model(N, J=1.0, g=0.5, h=0.25)
        want = sum(local_operator(Z, i, N) @ local_operator(Z, i + 1, N)
                   for i in range(N - 1))
        want = want + 0.5 * site_sum(X, N) + 0.25 * site_sum(Z, N)
        assert np.allclose(bundle.target_hamiltonian, want, atol=1e-12)

    def test_trend_limit(self):
        assert rydberg_chain_model(4).references["trend_limit"] == pytest.approx(
            math.sqrt(2))

    def test_negative_coupling_gives_the_estimates_of_its_size(self):
        """||H_s|| <= |J|(N-1) + (|g| + |h|)N whatever the sign of J, so a
        negative J gives the estimates of |J|, and a chebyshev bound taken
        with them stays at most the exact one."""
        from qsl.bounds import hamiltonian_speed_limit
        neg = rydberg_chain_model(3, J=-1.5, g=1.0, h=0.0)
        pos = rydberg_chain_model(3, J=1.5, g=1.0, h=0.0)
        assert neg.spectral_estimates == pos.spectral_estimates
        assert neg.references["hs_norm_bound"] == 1.5 * 2 + 1.0 * 3
        assert operator_norm(neg.target_hamiltonian) <= 6.0
        lo, hi = neg.spectral_estimates
        args = (neg.target_hamiltonian, neg.symmetry, neg.perturbation)
        cheb = hamiltonian_speed_limit(*args, method="chebyshev",
                                       sigma_min_est=lo, sigma_max_est=hi)
        exact = hamiltonian_speed_limit(*args)
        assert 0 < cheb.bound_time <= exact.bound_time

    def test_spectral_estimates_cover_the_gap_spectrum(self):
        bundle = rydberg_chain_model(4)
        w = np.linalg.eigvalsh(bundle.target_hamiltonian)
        max_gap = float(np.max(np.abs(np.subtract.outer(w, w))))
        lo, hi = bundle.spectral_estimates
        assert hi >= max_gap**2
        assert 0 < lo < hi

    def test_size_limits(self):
        with pytest.raises(ValidationError):
            rydberg_chain_model(2)
        with pytest.raises(DimensionCapError):
            rydberg_chain_model(15)

    def test_refused_when_the_dense_bundle_cannot_fit(self, monkeypatch):
        """About nine d x d float64 matrices must fit in physical memory;
        the memory query is patched, so nothing large is allocated."""
        need = 9 * 8 * 4**6  # N = 6
        for have, fits in ((need - 1, False), (need, True), (None, True)):
            monkeypatch.setattr(models, "_physical_memory", lambda: have)
            if fits:
                assert rydberg_chain_model(6).target_hamiltonian.shape \
                    == (64, 64)
            else:
                with pytest.raises(DimensionCapError,
                                   match="physical memory"):
                    rydberg_chain_model(6)

    @pytest.mark.parametrize("N,fits", [(13, True), (14, False)])
    def test_decided_before_any_allocation(self, monkeypatch, N, fits):
        """On 8 GiB N = 14 (about 18 GiB) is refused and N = 13 (about
        4.5 GiB) goes on to the build, which is stopped at its first
        allocation."""
        class Built(Exception):
            pass

        def stop(N):
            raise Built
        monkeypatch.setattr(models, "_physical_memory", lambda: 8 * 2**30)
        monkeypatch.setattr(models, "_occupation_diagonal", stop)
        with pytest.raises(Built if fits else DimensionCapError):
            rydberg_chain_model(N)

    def test_physical_memory_is_known_here(self):
        have = models._physical_memory()
        assert have is None or have > 0


class TestMajoranas:
    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_anticommutation(self, n):
        chis = majorana_operators(n)
        for i, a in enumerate(chis):
            for j, b in enumerate(chis):
                anti = a @ b + b @ a
                want = np.eye(a.shape[0]) if i == j else 0.0
                assert np.allclose(anti, want, atol=1e-12)

    def test_hermitian(self):
        for chi in majorana_operators(6):
            assert np.allclose(chi, chi.conj().T)

    def test_odd_count_rejected(self):
        with pytest.raises(ValidationError):
            majorana_operators(5)


class TestSykModel:
    def test_hermitian_and_deterministic(self):
        a = syk_model(6, seed=3)
        b = syk_model(6, seed=3)
        assert np.array_equal(a, b)
        assert np.allclose(a, a.conj().T)
        assert a.shape == (8, 8)

    def test_seed_matters(self):
        assert not np.allclose(syk_model(6, seed=0), syk_model(6, seed=1))

    def test_charge_term(self):
        base = syk_model(6, seed=0, mu=0.0)
        charged = syk_model(6, seed=0, mu=2.0)
        assert not np.allclose(base, charged)

    def test_linear_in_charge_strength(self):
        # the charge term enters additively, scaled by mu
        base = syk_model(6, seed=2, mu=0.0)
        unit = syk_model(6, seed=2, mu=1.0) - base
        assert np.allclose(syk_model(6, seed=2, mu=2.5), base + 2.5 * unit,
                           atol=1e-12)

    def test_commutant_objective_is_positive(self, rng):
        from qsl.bounds import hamiltonian_speed_limit, optimize_symmetry
        from qsl.lie import commutant_basis

        H = syk_model(6, seed=5)
        basis = commutant_basis(global_controls(3))

        def objective(sym):
            pert = restore_symmetry(sym, H)
            return hamiltonian_speed_limit(H, sym, pert).bound_time

        best = optimize_symmetry(basis, objective, iterations=20, seed=5)
        assert objective(best) > 0

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "1", None])
    def test_seed_not_an_integer_at_least_zero_refused(self, seed):
        with pytest.raises(ValidationError, match="seed must be an integer"):
            syk_model(6, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        assert np.array_equal(syk_model(6, seed=np.int64(3)),
                              syk_model(6, seed=3))

    @pytest.mark.parametrize("mu", [1e308, -1e308])
    def test_mu_whose_hamiltonian_leaves_float64_refused(self, mu):
        """(mu/4) Q² overflows: refused, with no numpy warning."""
        with np.errstate(all="raise"):
            with pytest.raises(ValidationError, match="leave float64"):
                syk_model(6, mu=mu)


class TestPropagation:
    def test_single_segment_matches_exponential(self, rng):
        drift = np.diag([0.3, -0.3]).astype(complex)
        system = Problem(drift, [X.astype(complex)])
        schedule = PulseSchedule(0.4, np.array([[0.7]]))
        got = propagate_piecewise(system, schedule)
        want = matrix_exponential(drift + 0.7 * X, 0.4)
        assert np.allclose(got, want, atol=1e-12)

    def test_unitary_output(self, rng):
        system = Problem(kron(Z, Z).astype(complex),
                               [kron(X, I2).astype(complex),
                                kron(I2, X).astype(complex)])
        schedule = PulseSchedule(0.2, rng.standard_normal((2, 7)))
        U = propagate_piecewise(system, schedule)
        assert np.allclose(U @ U.conj().T, np.eye(4), atol=1e-10)

    def test_zero_pulses_leave_drift_evolution(self):
        system = Problem(Z.astype(complex), [X.astype(complex)])
        schedule = PulseSchedule(math.pi / 4, np.zeros((1, 4)))
        U = propagate_piecewise(system, schedule)
        assert np.allclose(U, -np.eye(2), atol=1e-12)

    def test_segments_compose(self):
        system = Problem(Z.astype(complex), [X.astype(complex)])
        amps = np.array([[0.5, -1.0]])
        both = propagate_piecewise(system, PulseSchedule(0.3, amps))
        first = propagate_piecewise(system, PulseSchedule(0.3, amps[:, :1]))
        second = propagate_piecewise(system, PulseSchedule(0.3, amps[:, 1:]))
        assert np.allclose(both, second @ first, atol=1e-12)

    def test_amplitude_row_count_checked(self):
        system = Problem(Z.astype(complex), [X.astype(complex)])
        with pytest.raises(ValidationError):
            propagate_piecewise(system, PulseSchedule(0.1,
                                                      np.ones((2, 3))))

    def test_total_time(self):
        assert PulseSchedule(0.5, np.ones((1, 4))).total_time == pytest.approx(2.0)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -0.1])
    def test_duration_not_finite_and_positive_refused(self, dt):
        """NaN fails ``dt <= 0`` as well as ``dt > 0``: refused too."""
        with pytest.raises(ValidationError, match="finite and positive"):
            PulseSchedule(dt, np.ones((1, 4)))
