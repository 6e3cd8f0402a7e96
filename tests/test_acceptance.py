"""End-to-end acceptance gate.

Each test covers one numbered criterion and prints a single PASS/FAIL line on
the real stdout (bypassing capture) so the full list is visible in any run.
"""

import contextlib
import functools
import io
import json
import math
import sys
import time

import numpy as np
import pytest

from qsl.bounds import (
    chebyshev_degree_for,
    chebyshev_filter_bound,
    hamiltonian_speed_limit,
    kernel_complement_norm_commutator,
    kernel_complement_norm_exact,
    optimize_symmetry,
)
from qsl.cli import run_command
from qsl.lie import Symmetry, commutant_basis, quadratic_symmetry_basis
from qsl.matcore import (
    commutator,
    frobenius_norm,
    hermitize,
    kron,
    operator_norm,
)
from qsl.models import (
    Problem,
    PulseSchedule,
    coupled_qubit_model,
    global_controls,
    hopping_chain_closed_form,
    hopping_chain_model,
    majorana_operators,
    propagate_piecewise,
    rydberg_chain_model,
    syk_model,
)
from qsl.perturb import restore_symmetry
from conftest import (adjoint_superoperator, analytic_cap,
                      evolution_from_identity_peak, random_hermitian,
                      random_state, random_unitary, span_residual)


_CAPTURE_MANAGER = [None]


@pytest.fixture(autouse=True, scope="module")
def _grab_capture_manager(request):
    # pytest's fd-level capture would swallow plain writes; going through the
    # capture manager puts the report lines on the real terminal in any mode
    _CAPTURE_MANAGER[0] = request.config.pluginmanager.getplugin("capturemanager")
    yield


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}  {detail}\n"
    manager = _CAPTURE_MANAGER[0]
    if manager is not None:
        with manager.global_and_fixture_disabled():
            sys.stdout.write(line)
            sys.stdout.flush()
    else:
        sys.__stdout__.write(line)
        sys.__stdout__.flush()


def criterion(num):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                ok, detail = fn()
            except Exception as exc:
                _report(num, False, f"unexpected error: {exc!r}")
                raise
            _report(num, ok, detail)
            assert ok, f"criterion {num}: {detail}"
        return wrapper
    return deco


def _run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run_command(argv)
    payload = json.loads(out.getvalue()) if out.getvalue() else None
    return code, payload


@criterion(1)
def test_criterion_01_cnot_bound():
    t0 = time.perf_counter()
    code, rep = _run_cli(["reproduce", "cnot", "--json-only"])
    elapsed = time.perf_counter() - t0
    diff = abs(rep["bound_time"] - 0.3535533906)
    ok = code == 0 and diff <= 1e-9 and elapsed < 1.0
    return ok, (f"bound_time={rep['bound_time']:.10f} |diff|={diff:.1e} "
                f"elapsed={elapsed:.2f}s")


@criterion(2)
def test_criterion_02_swap_closed_form():
    t0 = time.perf_counter()
    worst = 0.0
    for N in range(3, 31):
        bundle = hopping_chain_model(N)
        refs = bundle.references
        pipeline = refs["breaking_norm"] / (
            2.0 * bundle.symmetry.frobenius * refs["gap_over_bound"])
        worst = max(worst, abs(pipeline - refs["closed_form"])
                    / refs["closed_form"])
    growth_ok = all(hopping_chain_closed_form(N, 1.0) >= math.sqrt(N) / 19
                    for N in range(3, 101))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and growth_ok and elapsed < 10.0
    return ok, (f"max_rel_dev={worst:.2e} sqrtN_growth={growth_ok} "
                f"elapsed={elapsed:.2f}s")


@criterion(3)
def test_criterion_03_rydberg_perturbation():
    t0 = time.perf_counter()
    worst = 0.0
    for N in range(3, 11):
        bundle = rydberg_chain_model(N)
        got = operator_norm(bundle.perturbation.matrix)
        want = 0.5 * (1.0 - 1.0 / (N - 1) ** 6)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 30.0
    return ok, f"max_abs_dev={worst:.2e} elapsed={elapsed:.2f}s"


@criterion(4)
def test_criterion_04_rydberg_trend():
    t0 = time.perf_counter()
    bounds = {}
    for N in range(3, 9):
        bundle = rydberg_chain_model(N)
        if N <= 6:
            rep = hamiltonian_speed_limit(bundle.target_hamiltonian,
                                          bundle.symmetry,
                                          bundle.perturbation)
        else:
            lo, hi = bundle.spectral_estimates
            rep = hamiltonian_speed_limit(
                bundle.target_hamiltonian, bundle.symmetry,
                bundle.perturbation, method="chebyshev",
                degree=chebyshev_degree_for(1e-2, lo, hi),
                sigma_min_est=lo, sigma_max_est=hi)
        bounds[N] = rep.bound_time
    elapsed = time.perf_counter() - t0
    root2 = math.sqrt(2.0)
    positive = all(b > 0 for b in bounds.values())
    within = abs(bounds[8] - root2) <= 0.3 * root2
    closer = abs(bounds[8] - root2) < abs(bounds[3] - root2)
    ok = positive and within and closer and elapsed < 600.0
    return ok, (f"bound(3)={bounds[3]:.6f} bound(8)={bounds[8]:.6f} "
                f"target={root2:.6f} closer={closer} elapsed={elapsed:.0f}s")


@criterion(5)
def test_criterion_05_method_ordering():
    rng = np.random.default_rng(20250823)
    max_excess = -np.inf
    max_dev = 0.0
    for trial in range(200):
        d = int(rng.integers(4, 17))
        levels = rng.choice(np.arange(25), size=d, replace=False).astype(float)
        scale = float(rng.uniform(0.2, 2.0))
        Q = random_unitary(rng, d)
        H = hermitize((Q * (scale * levels)) @ Q.conj().T)
        kind = trial % 3
        if kind == 0:
            S = random_hermitian(rng, d)
        elif kind == 1:
            v = random_state(rng, d)
            S = np.outer(v, v.conj())
        else:
            # mostly inside the kernel of ad_H, plus a small breaking part
            S = hermitize(H @ H) / max(1.0, operator_norm(H)) ** 2 \
                + 1e-3 * random_hermitian(rng, d)
        S = S / frobenius_norm(S)
        sym = Symmetry("linear", S)
        exact = kernel_complement_norm_exact(H, sym)
        comm = kernel_complement_norm_commutator(H, sym)
        w = np.linalg.eigvalsh(H)
        gaps = np.abs(np.subtract.outer(w, w)).reshape(-1)
        nz = gaps[gaps > 1e-9 * float(np.max(gaps))]
        cheb, _ = chebyshev_filter_bound(H, sym, 256,
                                         float(nz.min() ** 2),
                                         float(nz.max() ** 2))
        max_excess = max(max_excess, comm - exact, cheb - exact)
        max_dev = max(max_dev, abs(cheb - exact))
    ok = max_excess <= 1e-9 and max_dev <= 1e-6
    return ok, f"max_excess={max_excess:.2e} max_cheb_dev={max_dev:.2e}"


def _duhamel_systems():
    cq = coupled_qubit_model(1.0)
    hop = hopping_chain_model(4)
    Z = np.diag([1.0, -1.0]).astype(complex)
    drift = kron(kron(Z, Z), np.eye(2)) + kron(np.eye(2), kron(Z, Z))
    ising = Problem(drift, list(global_controls(3)))
    return [cq, hop, ising]


@criterion(6)
def test_criterion_06_duhamel_property():
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    systems = _duhamel_systems()
    violations = 0
    worst = -np.inf
    for trial in range(100):
        system = systems[trial % len(systems)]
        d = system.dimension
        dH = random_hermitian(rng, d)
        dH *= float(rng.uniform(0.05, 0.5)) / operator_norm(dH)
        schedule = PulseSchedule(
            float(rng.uniform(0.05, 0.5)),
            rng.standard_normal((len(system.controls), int(rng.integers(1, 9)))))
        perturbed = Problem(system.drift + dH, system.controls)
        lhs = operator_norm(propagate_piecewise(system, schedule)
                            - propagate_piecewise(perturbed, schedule))
        rhs = schedule.total_time * operator_norm(dH) + 1e-6
        worst = max(worst, lhs - rhs)
        violations += lhs > rhs
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    return ok, (f"violations={violations}/100 max_lhs_minus_rhs={worst:.2e} "
                f"elapsed={elapsed:.1f}s")


@criterion(7)
def test_criterion_07_state_space_properties():
    rng = np.random.default_rng(7)
    herm_defect = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 11))
        M = adjoint_superoperator(random_hermitian(rng, d))
        herm_defect = max(herm_defect, operator_norm(M - M.conj().T))

    grid_violations = 0
    for _ in range(50):
        d = int(rng.integers(4, 9))
        w = np.sort(rng.uniform(0.2, 4.0, size=d))
        w[: int(rng.integers(1, d - 1))] = 0.0
        V = random_unitary(rng, d)
        A = hermitize((V * w) @ V.conj().T)
        v = random_state(rng, d)
        outside = float(np.linalg.norm(
            V[:, w > 0].conj().T @ v) ** 2)
        peak = evolution_from_identity_peak(A, v)
        if peak < 2.0 * (1 - 0.005) * outside * 0.95:
            grid_violations += 1

    rot_violations = 0
    for _ in range(50):
        d = int(rng.integers(2, 11))
        U = random_unitary(rng, d)
        S = random_hermitian(rng, d)
        lhs = frobenius_norm(commutator(U, S))
        eps = operator_norm(U - np.eye(d)) * 1.000001
        if lhs > 2.0 * eps * frobenius_norm(S):
            rot_violations += 1

    ok = herm_defect <= 1e-10 and grid_violations == 0 and rot_violations == 0
    return ok, (f"adjoint_herm_defect={herm_defect:.2e} "
                f"grid_violations={grid_violations} "
                f"rotation_violations={rot_violations}")


@criterion(8)
def test_criterion_08_perturbation_contracts():
    rng = np.random.default_rng(8)
    worst_resid = worst_herm = worst_excess = 0.0
    for _ in range(100):
        d = int(rng.integers(3, 13))
        S = Symmetry("linear", random_hermitian(rng, d))
        H = random_hermitian(rng, d)
        pert = restore_symmetry(S, H)
        resid = frobenius_norm(commutator(S.matrix, H + pert.matrix))
        herm = frobenius_norm(pert.matrix - pert.matrix.conj().T)
        cap = analytic_cap(S.matrix, H)
        worst_resid = max(worst_resid, resid)
        worst_herm = max(worst_herm, herm)
        worst_excess = max(worst_excess, pert.frob_norm - cap)
    ok = worst_resid <= 1e-8 and worst_herm <= 1e-9 and worst_excess <= 1e-9
    return ok, (f"max_residual={worst_resid:.2e} max_herm={worst_herm:.2e} "
                f"max_norm_excess={worst_excess:.2e}")


@criterion(9)
def test_criterion_09_syk_properties():
    t0 = time.perf_counter()
    anti_defect = 0.0
    herm_defect = 0.0
    spreads = {}
    all_ok = True
    for n in (6, 8):
        chis = majorana_operators(n)
        eye = np.eye(chis[0].shape[0])
        for i, a in enumerate(chis):
            for j, b in enumerate(chis):
                want = eye if i == j else 0.0
                anti_defect = max(anti_defect,
                                  float(np.max(np.abs(a @ b + b @ a - want))))
        basis = commutant_basis(global_controls(n // 2))
        bounds = []
        for seed in range(20):
            H = syk_model(n, seed=seed)
            herm_defect = max(herm_defect,
                              frobenius_norm(H - H.conj().T))

            def objective(sym):
                pert = restore_symmetry(sym, H)
                return hamiltonian_speed_limit(H, sym, pert).bound_time

            best = optimize_symmetry(basis, objective, iterations=30,
                                     seed=seed)
            bound = objective(best)
            bounds.append(bound)
            all_ok &= math.isfinite(bound) and bound > 0
        spreads[n] = (min(bounds), max(bounds),
                      float(np.mean(bounds)), float(np.std(bounds)))
    elapsed = time.perf_counter() - t0
    ok = (anti_defect <= 1e-10 and herm_defect <= 1e-10 and all_ok
          and elapsed < 300.0)
    detail = " ".join(
        f"n={n}:[min={s[0]:.3f},max={s[1]:.3f},mean={s[2]:.3f},std={s[3]:.3f}]"
        for n, s in spreads.items())
    return ok, (f"anti_defect={anti_defect:.1e} {detail} "
                f"elapsed={elapsed:.0f}s")


@criterion(10)
def test_criterion_10_symmetry_discovery():
    bundle = coupled_qubit_model(1.0)
    controls = bundle.controls
    quad = quadratic_symmetry_basis(controls)
    resid = span_residual(bundle.symmetry.matrix, quad)
    linear = commutant_basis(controls)
    ok = resid <= 1e-8 and len(linear) == 1
    return ok, (f"projection_residual={resid:.2e} "
                f"quadratic_dim={len(quad)} linear_dim={len(linear)}")
