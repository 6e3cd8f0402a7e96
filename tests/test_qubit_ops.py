"""Qubit operators built by index arithmetic, held against kron chains.

``matcore._qubit_product`` replaced the per-qubit ``np.kron`` loops of the
model builders and the Pauli parser.  The loops survive here as oracles, and
every comparison is exact (``np.array_equal``): the builder multiplies the
same factor entries in the same site order, so no rounding may differ.
"""

import itertools
import math

import numpy as np
import pytest

from qsl.cli import parse_pauli_expression
from qsl.matcore import DimensionError, PAULI, _qubit_product, permutation_operator
from qsl.models import (
    coupled_qubit_model,
    local_operator,
    majorana_operators,
    rydberg_chain_model,
    site_sum,
)

I2, X, Y, Z = PAULI["I"], PAULI["X"], PAULI["Y"], PAULI["Z"]


def kron_chain(factors, n_qubits):
    """F_0 ⊗ ... ⊗ F_{n-1} with F_q = factors.get(q, I), one kron per qubit."""
    out = np.eye(1, dtype=complex)
    for q in range(n_qubits):
        out = np.kron(out, factors.get(q, I2))
    return out


def kron_site_sum(op, n_qubits):
    return sum(kron_chain({k: op}, n_qubits) for k in range(n_qubits))


def kron_majoranas(n_majorana):
    q = n_majorana // 2
    ops = []
    prefix = np.eye(1, dtype=complex)
    for i in range(q):
        tail = np.eye(2**(q - i - 1), dtype=complex)
        for last in (Z, Y):
            ops.append(np.kron(np.kron(prefix, last), tail) / math.sqrt(2))
        prefix = np.kron(prefix, X)
    return ops


def kron_rydberg(N, C, a, J, g, h):
    """(drift, controls, H_s, S, ΔH) as the model built them with kron chains."""
    idx = np.arange(2**N)
    bits = np.array([(idx >> (N - 1 - i)) & 1 for i in range(N)])
    pair_diag = np.zeros(2**N)
    for i in range(N):
        for j in range(i + 1, N):
            pair_diag += (C / (a * (j - i))**6) * bits[i] * bits[j]
    drift = np.diag(pair_diag).astype(complex)
    controls = [kron_site_sum(X, N), kron_site_sum(Z, N)]
    zz = np.zeros(2**N)
    z = 1.0 - 2.0 * bits
    for i in range(N - 1):
        zz += z[i] * z[i + 1]
    H_s = J * np.diag(zz).astype(complex) + g * kron_site_sum(X, N) \
        + h * np.diag(z.sum(axis=0)).astype(complex)
    S = permutation_operator([1, 0] + list(range(2, N)), [2] * N)
    dh_diag = np.zeros(2**N)
    for j in range(2, N):
        delta = 0.5 * C / a**6 * (1.0 / (j - 1)**6 - 1.0 / j**6)
        dh_diag += delta * (bits[0] - bits[1]) * bits[j]
    return drift, controls, H_s, S, np.diag(dh_diag).astype(complex)


def random_op(rng):
    return rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))


class TestSiteOperators:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_local_operator_and_site_sum(self, rng, n):
        for op in (I2, X, Y, Z, random_op(rng), random_op(rng)):
            for site in range(n):
                assert np.array_equal(local_operator(op, site, n),
                                      kron_chain({site: op}, n))
            assert np.array_equal(site_sum(op, n), kron_site_sum(op, n))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_products_of_general_factors(self, rng, n):
        for size in range(n + 1):
            for sites in itertools.combinations(range(n), size):
                factors = {q: random_op(rng) for q in sites}
                assert np.array_equal(_qubit_product(factors, n),
                                      kron_chain(factors, n))

    def test_weighted_accumulation(self, rng):
        out = np.zeros((8, 8), dtype=complex)
        want = np.zeros((8, 8), dtype=complex)
        for factors, w in (({0: X, 2: Y}, -0.7), ({1: Z}, 1.3),
                           ({0: random_op(rng), 1: X}, 2.5)):
            _qubit_product(factors, 3, out, w)
            want += w * kron_chain(factors, 3)
        assert np.array_equal(out, want)

    def test_pauli_string_is_a_phased_permutation(self):
        P = _qubit_product({0: Y, 2: X, 3: Z}, 5)
        assert np.count_nonzero(P) == 32
        assert np.array_equal(np.count_nonzero(P, axis=0), np.ones(32))

    @pytest.mark.parametrize("site", [-1, 3])
    def test_site_out_of_range_rejected(self, site):
        with pytest.raises(DimensionError):
            local_operator(X, site, 3)

    def test_non_qubit_factor_rejected(self):
        with pytest.raises(DimensionError):
            local_operator(np.eye(3), 0, 2)


def random_pauli_text(rng, n):
    """A Pauli text and its kron-chain matrix, term by term as parsed."""
    text, want = "", np.zeros((2**n, 2**n), dtype=complex)
    for k in range(int(rng.integers(1, 6))):
        sign = -1.0 if rng.random() < 0.5 else 1.0
        coeff = round(float(rng.uniform(0.0, 3.0)), int(rng.integers(0, 7)))
        sites = rng.permutation(n)[:int(rng.integers(1, n + 1))]
        letters = {int(q): "IXYZ"[int(rng.integers(4))] for q in sites}
        text += ("-" if sign < 0 else ("+" if k else "")) + f" {coeff!r} * " \
            + " ".join(f"{c}{q}" for q, c in letters.items()) + " "
        want += sign * coeff * kron_chain(
            {q: PAULI[c] for q, c in letters.items()}, n)
    return text, want


class TestPauliParser:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_random_texts_match_kron_chain(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(60):
            text, want = random_pauli_text(rng, n)
            assert np.array_equal(parse_pauli_expression(text, n), want), text


class TestModels:
    @pytest.mark.parametrize("n_majorana", [4, 6, 8, 10])
    def test_majorana_operators(self, n_majorana):
        got = majorana_operators(n_majorana)
        want = kron_majoranas(n_majorana)
        assert len(got) == len(want) == n_majorana
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_coupled_qubit_drift(self):
        g = 0.37
        drift = coupled_qubit_model(g).drift
        assert np.array_equal(drift, g * np.kron(Z, Z))

    @pytest.mark.parametrize("N", range(3, 9))
    def test_rydberg_arrays(self, N):
        rng = np.random.default_rng(N)
        params = [dict(C=1.0, a=1.0, J=1.0, g=0.5, h=0.5),
                  dict(C=float(rng.uniform(0.5, 2)), a=float(rng.uniform(0.8, 1.2)),
                       J=float(rng.uniform(-1, 1)), g=float(rng.uniform(-1, 1)),
                       h=float(rng.uniform(-1, 1)))]
        for p in params:
            b = rydberg_chain_model(N, **p)
            drift, controls, H_s, S, dH = kron_rydberg(N, **p)
            assert np.array_equal(b.drift, drift)
            assert len(b.controls) == 2
            for got, want in zip(b.controls, controls):
                assert np.array_equal(got, want)
            assert np.array_equal(b.target_hamiltonian, H_s)
            assert np.array_equal(b.symmetry.matrix, S)
            assert np.array_equal(b.perturbation.matrix, dH)


def test_rydberg_build_needs_no_kron_and_no_eigensolver(monkeypatch):
    """The N=10 bundle (d=1024) is built by index arithmetic, and its
    ||ΔH||_inf comes from the diagonal, not from a decomposition."""
    calls = []
    for module, name in ((np, "kron"), (np.linalg, "eigvalsh"),
                         (np.linalg, "eigh")):
        fn = getattr(module, name)

        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    b = rydberg_chain_model(10)
    assert calls == []
    assert b.perturbation.op_norm == pytest.approx(
        b.references["delta_h_closed_form"], rel=1e-12)
