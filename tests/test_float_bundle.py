"""The Rydberg bundle in float64, with one hermiticity pass per operator.

Every array of ``rydberg_chain_model`` is exactly real and is built and kept
as float64.  The complex128 build it replaced survives here as the oracle:
the float64 arrays must equal it entry for entry, and every bound computed
from them must equal, bit for bit, the bound computed from complex128
copies of the same arrays.  The pass count and the tracemalloc budget pin
what the float64 bundle and the fused check-and-hermitise pass save.
"""

import tracemalloc

import numpy as np
import pytest

import qsl.matcore
from qsl.bounds import (
    _filter_interval,
    _sector_norm,
    chebyshev_degree_for,
    chebyshev_filter_bound,
    hamiltonian_speed_limit,
    uniform_speed_limit,
)
from qsl.lie import Symmetry
from qsl.matcore import permutation_operator
from qsl.models import Problem, global_controls, rydberg_chain_model
from qsl.perturb import Perturbation

PARAMS = [dict(C=1.0, a=1.0, J=1.0, g=0.5, h=0.5),
          dict(C=1.7, a=0.9, J=-0.8, g=0.3, h=-0.6)]


def complex_rydberg(N, C=1.0, a=1.0, J=1.0, g=0.5, h=0.5):
    """(drift, controls, H_s, S, ΔH) as the complex128 build made them."""
    idx = np.arange(2**N)
    bits = np.array([(idx >> (N - 1 - i)) & 1 for i in range(N)])
    pair_diag = np.zeros(2**N)
    for i in range(N):
        for j in range(i + 1, N):
            pair_diag += (C / (a * (j - i))**6) * bits[i] * bits[j]
    drift = np.diag(pair_diag.astype(complex))
    controls = global_controls(N)
    zz = np.zeros(2**N)
    z = 1.0 - 2.0 * bits
    for i in range(N - 1):
        zz += z[i] * z[i + 1]
    H_s = g * controls[0]
    H_s[np.diag_indices(2**N)] = J * zz + h * z.sum(axis=0)
    S = permutation_operator([1, 0] + list(range(2, N)), [2] * N)
    dh_diag = np.zeros(2**N)
    for j in range(2, N):
        delta = 0.5 * C / a**6 * (1.0 / (j - 1)**6 - 1.0 / j**6)
        dh_diag += delta * (bits[0] - bits[1]) * bits[j]
    return drift, controls, H_s, S, np.diag(dh_diag.astype(complex))


@pytest.mark.parametrize("N", range(3, 11))
def test_arrays_are_float64_and_equal_the_complex_build(N):
    for p in PARAMS:
        b = rydberg_chain_model(N, **p)
        drift, controls, H_s, S, dH = complex_rydberg(N, **p)
        pairs = [(b.drift, drift), (b.target_hamiltonian, H_s),
                 (b.symmetry.matrix, S), (b.perturbation.matrix, dH),
                 *zip(b.controls, controls)]
        assert len(pairs) == 6
        for got, want in pairs:
            assert got.dtype == np.float64 and want.dtype == np.complex128
            assert np.array_equal(got, want)
        # S is exactly Hermitian: a symmetry keeps the float64 array itself,
        # and holds the complex build's S as the same float64 values
        S_f = b.symmetry.matrix
        assert Symmetry("linear", S_f).matrix is S_f
        from_complex = Symmetry("linear", S).matrix
        assert from_complex.dtype == np.float64
        assert np.array_equal(from_complex, S_f)


def _reports(H_s, sym, pert, lo, hi):
    out = []
    for method in ("exact", "commutator", "chebyshev"):
        rep = hamiltonian_speed_limit(
            H_s, sym, pert, method=method,
            degree=chebyshev_degree_for(1e-2, lo, hi),
            sigma_min_est=lo, sigma_max_est=hi)
        out.append((rep.bound_time, rep.intermediates, rep.warnings))
    return out, uniform_speed_limit(pert)


@pytest.mark.parametrize("N", range(3, 10))
def test_bounds_equal_those_of_complex_copies(N):
    b = rydberg_chain_model(N, **PARAMS[1])
    lo, hi = b.spectral_estimates
    sym = Symmetry("linear", b.symmetry.matrix.astype(complex))
    drift = b.drift.astype(complex)
    pert = Perturbation.from_matrix(
        sym, b.perturbation.matrix.astype(complex), drift=drift)
    assert pert.op_norm == b.perturbation.op_norm
    assert pert.residual == b.perturbation.residual
    want = _reports(b.target_hamiltonian.astype(complex), sym, pert, lo, hi)
    assert _reports(b.target_hamiltonian, b.symmetry, b.perturbation,
                    lo, hi) == want


def _count_passes(monkeypatch):
    seen = []
    fn = qsl.matcore._hermitian_pass

    def counted(A, *args, **kwargs):
        seen.append(A)
        return fn(A, *args, **kwargs)
    monkeypatch.setattr(qsl.matcore, "_hermitian_pass", counted)
    return seen


def test_defaulted_chebyshev_interval_reads_the_kernel_norm(monkeypatch):
    """A chebyshev bound with a defaulted interval reads ||H_s||_inf from
    its numerator's kernel: at N = 8 (d = 256) one pass over H_s, one
    eigvalsh and one eigh per reflection sector (136 and 120), and no
    full-size decomposition.  Its interval is the default for the sector
    norm of H_s, and its value that of the public filter."""
    b = rydberg_chain_model(8)
    seen = _count_passes(monkeypatch)
    calls = []
    for name in ("eigh", "eigvalsh"):
        def counted(A, *args, _name=name, _fn=getattr(np.linalg, name),
                    **kwargs):
            calls.append((_name, A.shape))
            return _fn(A, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    rep = hamiltonian_speed_limit(b.target_hamiltonian, b.symmetry,
                                  b.perturbation, method="chebyshev")
    assert len(seen) == 1 and seen[0] is b.target_hamiltonian
    assert calls == [("eigvalsh", (136, 136)), ("eigvalsh", (120, 120)),
                     ("eigh", (136, 136)), ("eigh", (120, 120))]
    monkeypatch.undo()
    inter = rep.intermediates
    lo, hi = _filter_interval(_sector_norm(b.target_hamiltonian), "linear")
    assert (inter["sigma_min_est"], inter["sigma_max_est"]) == (lo, hi)
    num, _ = chebyshev_filter_bound(b.target_hamiltonian, b.symmetry,
                                    int(inter["degree"]), lo, hi)
    assert inter["kernel_complement_norm"] == num


def test_one_solve_makes_at_most_ten_hermiticity_passes(monkeypatch):
    """Build + exact + commutator at N = 8 (d = 256): 9 passes, one per
    operator and kernel, where the complex128 bundle made 9 checks plus 7
    hermitised copies."""
    seen = _count_passes(monkeypatch)
    b = rydberg_chain_model(8)
    built = len(seen)
    # drift, both controls, S, ΔH and H_d + ΔH, each once
    assert built == 6
    assert sum(A is b.drift for A in seen) == 1
    assert sum(A is b.symmetry.matrix for A in seen) == 1
    for method in ("exact", "commutator"):
        hamiltonian_speed_limit(b.target_hamiltonian, b.symmetry,
                                b.perturbation, method=method)
    assert len(seen) <= 10
    assert all(A.shape == (256, 256) for A in seen)


def test_bound_checks_a_bundle_target_once(monkeypatch):
    """A model bundle gives its S, so ``qsl.bound`` searches nothing and
    the numerator's pass is the one hermiticity pass over H_s."""
    b = rydberg_chain_model(6)
    seen = _count_passes(monkeypatch)
    for method in ("exact", "commutator"):
        seen.clear()
        qsl.bound(b, method=method)
        assert sum(A is b.target_hamiltonian for A in seen) == 1


def test_drift_checked_once_in_from_matrix():
    """from_matrix checks the drift as part of H_d + ΔH, so a drift that is
    not Hermitian is still rejected."""
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    sym = Symmetry("linear", np.diag([1.0, -1.0]))
    with pytest.raises(qsl.matcore.ValidationError):
        Perturbation.from_matrix(sym, -X, drift=np.array([[0.0, 2.0],
                                                          [0.0, 0.0]]))
    with pytest.raises(qsl.matcore.DimensionError):
        Perturbation.from_matrix(sym, -X, drift=np.eye(3))


def test_memory_budget_at_n9():
    """tracemalloc peaks in units of one d x d float64 matrix (d = 512):
    the complex128 bundle peaked at 17.0 / 18.1 / 17.0; the exact solve with
    a d x d pairwise gap matrix at 10.1, without it at 9.0."""
    rydberg_chain_model(4)  # imports and first-call allocations
    unit = 8 * 512**2
    tracemalloc.start()
    try:
        b = rydberg_chain_model(9)
        peaks = [tracemalloc.get_traced_memory()[1] / unit]
        for method in ("exact", "commutator"):
            tracemalloc.reset_peak()
            hamiltonian_speed_limit(b.target_hamiltonian, b.symmetry,
                                    b.perturbation, method=method)
            peaks.append(tracemalloc.get_traced_memory()[1] / unit)
    finally:
        tracemalloc.stop()
    build, exact, commutator = peaks
    assert build <= 10 and exact <= 9.5 and commutator <= 9, peaks


def test_control_system_keeps_float64():
    drift = np.diag([1.0, 2.0])
    system = Problem(drift, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    assert system.drift is drift
    assert system.controls[0].dtype == np.float64
