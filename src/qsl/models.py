"""Control problems (``Problem``) and reference physical systems.

Four builders: a coupled qubit pair targeting CNOT, a particle-hopping chain
targeting the endpoint swap, a Rydberg atom array simulating an Ising chain,
and random SYK Hamiltonians from Jordan-Wigner Majorana operators.  The
first three return a ``ModelBundle``: the ``Problem`` with the recommended
symmetry and its restoring perturbation, plus closed-form reference numbers
so the generic pipeline can be cross-checked end to end.

Conventions: qubits are tensor factors left to right, |0> is the Z eigenvalue
+1 state, chain sites 1..N map to the standard basis vectors of C^N.

Qubit operators (site operators, the collective controls, Majorana strings)
are built by index arithmetic in ``matcore._qubit_product``, never by chains
of np.kron: a Pauli string on n qubits is a phased permutation written with
2^n stores, equal bit for bit to the kron chain.  The Rydberg bundle at N
atoms (d = 2^N) is exactly real and stored as float64: drift, controls, H_s,
the swap S and ΔH.  It is diagonal except for sum X_i and S, so after that
its cost is one hermiticity pass per operator (drift, both controls, S and
ΔH); ||ΔH||_inf is read off the diagonal.  H_s is checked by the bound that
reads it, and the restored drift H_d + ΔH by the bound that pairs ΔH with
the drift.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .bounds import _filter_interval
from .lie import Symmetry
from .matcore import (
    DimensionCapError,
    DimensionError,
    PAULI,
    ValidationError,
    _permutation_indices,
    _qubit_product,
    frobenius_norm,
    matrix_exponential,
    permutation_operator,
    require_hermitian,
    require_square,
    require_unitary,
)
from .perturb import Perturbation, _commuting_limit


def _part(what: str, check, M, d=None):
    """check(M), and M d x d if d is given, an error naming the part."""
    try:
        A = check(M)
    except (DimensionError, ValidationError) as exc:
        raise type(exc)(f"{what}: {exc}") from None
    if d is not None and A.shape[0] != d:
        raise DimensionError(f"{what}: dimension {A.shape[0]} does not match "
                             f"the drift's {d}")
    return A


@dataclass(frozen=True, eq=False)
class Problem:
    """H(t) = H_d + sum_j f_j(t) H_j, at most one target (a unitary to
    implement or a Hamiltonian to simulate) and optionally the symmetry to
    bound with and its ΔH: what ``bounds.bound`` takes.  Validated once,
    each error naming its part: the drift and ``controls[k]`` Hermitian (an
    exactly Hermitian array kept as it is), the target unitary unitary, all
    of the drift's dimension.  A target Hamiltonian's hermiticity is left to
    ``bounds.bound``, which checks it before a symmetry search, and to the
    numerator that reads it, so a model's H_s is checked once."""

    drift: np.ndarray
    controls: tuple[np.ndarray, ...]
    target_unitary: np.ndarray | None = None
    target_hamiltonian: np.ndarray | None = None
    symmetry: Symmetry | None = None
    perturbation: Perturbation | None = None

    def __post_init__(self):
        if not (self.target_unitary is None or self.target_hamiltonian is None):
            raise ValidationError("a problem has at most one target")
        drift = _part("drift", require_hermitian, self.drift)
        d = drift.shape[0]
        checked = {"drift": drift, "controls": tuple(
            _part(f"controls[{k}]", require_hermitian, H, d)
            for k, H in enumerate(self.controls))}
        for name, check in (("target_unitary", require_unitary),
                            ("target_hamiltonian", require_square)):
            if getattr(self, name) is not None:
                checked[name] = _part(name.replace("_", " "), check,
                                      getattr(self, name), d)
        for name, value in checked.items():
            object.__setattr__(self, name, value)

    @property
    def dimension(self) -> int:
        return self.drift.shape[0]


@dataclass(frozen=True, eq=False)
class ModelBundle(Problem):
    """A model's ``Problem`` with its reference numbers (and filter interval)."""

    references: dict | None = None
    spectral_estimates: tuple[float, float] | None = None


@dataclass
class PulseSchedule:
    """Piecewise-constant control amplitudes: row j is f_j over the segments."""

    dt: float
    amplitudes: np.ndarray

    def __post_init__(self):
        self.amplitudes = np.atleast_2d(np.asarray(self.amplitudes, dtype=float))
        if not 0 < self.dt < math.inf:  # NaN fails too
            raise ValidationError("segment duration must be finite and "
                                  f"positive, got {self.dt!r}")
        if not np.all(np.isfinite(self.amplitudes)):
            raise ValidationError("amplitudes must be finite")

    @property
    def segments(self) -> int:
        return self.amplitudes.shape[1]

    @property
    def total_time(self) -> float:
        return self.dt * self.segments


def local_operator(op, site: int, n_qubits: int) -> np.ndarray:
    """op acting on one qubit, identity elsewhere."""
    return _qubit_product({site: op}, n_qubits)


def site_sum(op, n_qubits: int) -> np.ndarray:
    """sum_k op_k, accumulated in site order with O(d) stores per site."""
    out = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for k in range(n_qubits):
        _qubit_product({k: op}, n_qubits, out)
    return out


def _require_finite(what: str = "parameters", **values) -> None:
    """Reject NaN and infinite model parameters, or numbers derived from
    them (``what`` names which)."""
    bad = [f"{k}={v}" for k, v in values.items() if not math.isfinite(v)]
    if bad:
        raise ValidationError(f"{what} must be finite, got {', '.join(bad)}")


def _require_coupling(**couplings) -> None:
    """Reject couplings that are not finite and positive."""
    _require_finite(**couplings)
    if min(couplings.values()) <= 0:
        raise ValidationError("coupling must be positive")


def global_controls(n_qubits: int) -> list[np.ndarray]:
    """Collective controls [sum X_i, sum Z_i]."""
    return [site_sum(PAULI["X"], n_qubits), site_sum(PAULI["Z"], n_qubits)]


def coupled_qubit_model(g: float) -> ModelBundle:
    """Two qubits with ZZ coupling and full local control, targeting CNOT.

    The quadratic symmetry 1 - M(1,3) - M(2,4) + M(1,3)(2,4), built from
    tensor-factor transpositions on the doubled two-qubit space, commutes with
    every local control lift but not with CNOT⊗CNOT; -g Z1 Z2 restores it, so
    the speed limit is sqrt(2)/(4g).  Full excitation transfer needs pi/(4g),
    a factor pi/sqrt(2) above the bound.
    """
    _require_coupling(g=g)
    refs = {
        "bound_time": math.sqrt(2) / (4 * g),
        "literature_time": math.pi / (4 * g),
        "breaking_norm": 4 * math.sqrt(2),
        "symmetry_frobenius": 4.0,
    }
    _require_finite("derived numbers", **refs)
    if refs["bound_time"] == 0:  # the literature ratio divides by it
        raise ValidationError("the bound underflows to 0")
    Z, X = PAULI["Z"], PAULI["X"]
    drift = g * _qubit_product({0: Z, 1: Z}, 2)
    controls = [local_operator(X, 0, 2), local_operator(Z, 0, 2),
                local_operator(X, 1, 2), local_operator(Z, 1, 2)]
    cnot = np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    m13 = permutation_operator([2, 1, 0, 3], [2] * 4)
    m24 = permutation_operator([0, 3, 2, 1], [2] * 4)
    m13_24 = permutation_operator([2, 3, 0, 1], [2] * 4)
    S = np.eye(16, dtype=complex) - m13 - m24 + m13_24
    sym = Symmetry("quadratic", S, note="doubled-space transposition combination")
    pert = Perturbation(-drift, sym)
    return ModelBundle(drift, controls, target_unitary=cnot, symmetry=sym,
                       perturbation=pert, references=refs)


def hopping_chain_modes(N: int, J: float):
    """Spectrum of the open hopping chain: energies and eigenvectors.

    E_k = 2J cos(pi k/(N+1)); mode k has components
    sqrt(2/(N+1)) sin(pi k m/(N+1)) at site m.
    """
    k = np.arange(1, N + 1)
    energies = 2 * J * np.cos(np.pi * k / (N + 1))
    m = np.arange(1, N + 1)
    states = np.sqrt(2.0 / (N + 1)) * np.sin(np.pi * np.outer(m, k) / (N + 1))
    return energies, states.astype(complex)


def hopping_chain_model(N: int, J: float = 1.0) -> ModelBundle:
    """Single particle hopping on an open chain, site-1 energy control,
    endpoint-swap target.

    The symmetry is the rank-one projection onto |alpha>, a combination of
    the two lowest modes chosen so that <1|alpha> = 0 (invisible to the
    control); shifting the second mode's energy onto the first restores it,
    with ||ΔH||_inf = E_1 - E_2 < 3 pi² J / N².
    """
    if N < 3:
        raise ValidationError("chain needs at least 3 sites")
    _require_coupling(J=J)
    # the mode energies 2J cos(pi k/(N+1)) and their differences need 2J
    _require_finite("derived numbers", bandwidth=2 * J)
    drift = J * (np.diag(np.ones(N - 1), 1) + np.diag(np.ones(N - 1), -1))
    drift = drift.astype(complex)
    control = np.zeros((N, N), dtype=complex)
    control[0, 0] = 1.0
    target = np.eye(N, dtype=complex)
    target[0, 0] = target[-1, -1] = 0.0
    target[0, -1] = target[-1, 0] = 1.0

    energies, states = hopping_chain_modes(N, J)
    a1, a2 = states[:, 0], states[:, 1]
    ratio = math.sin(2 * math.pi / (N + 1)) / math.sin(math.pi / (N + 1))
    alpha = a2 - ratio * a1
    alpha = alpha / np.linalg.norm(alpha)
    S = np.outer(alpha, alpha.conj())
    sym = Symmetry("linear", S, note="projection onto the control-blind state")
    # Two numerators for ||[U, S]||_F: the overlap form 2|<N|alpha>| treats
    # {|1>, |alpha>, |N>} as orthogonal and feeds the closed form; the exact
    # value is smaller by sqrt(1 - |<N|alpha>|^2 / 2).
    overlap = abs(alpha[-1])
    refs = {
        "breaking_norm": 2 * overlap,
        "breaking_norm_exact": 2 * overlap * math.sqrt(1 - overlap**2 / 2),
        "delta_h_op_norm": float(energies[0] - energies[1]),
        "gap_over_bound": 3 * math.pi**2 * J / N**2,
        "closed_form": hopping_chain_closed_form(N, J),
        "symmetry_frobenius": 1.0,
    }
    # a finite closed_form, ~ sqrt(N)/J, keeps the gaps that divide the
    # bounds, ~ J/N², above 0
    _require_finite("derived numbers", **refs)
    dH = refs["delta_h_op_norm"] * np.outer(a2, a2.conj())
    pert = Perturbation(dH, sym)
    return ModelBundle(drift, [control], target_unitary=target, symmetry=sym,
                       perturbation=pert, references=refs)


def hopping_chain_closed_form(N: int, J: float = 1.0) -> float:
    """Closed-form endpoint-swap speed limit for the hopping chain.

    T >= (2 N²) / (3 pi² J sqrt(3 + 2 cos(2 pi/(N+1)))) * sqrt(2/(N+1))
         * |sin(2 pi N/(N+1))|,
    using the 3 pi² J/N² over-bound on the restored gap and the overlap form
    2|<N|alpha>| of the symmetry-breaking numerator.  Grows like sqrt(N)/J
    for long chains.
    """
    if N < 3:
        raise ValidationError("chain needs at least 3 sites")
    _require_coupling(J=J)
    x = 2 * math.pi / (N + 1)
    return (2 * N**2) / (3 * math.pi**2 * J * math.sqrt(3 + 2 * math.cos(x))) \
        * math.sqrt(2.0 / (N + 1)) * abs(math.sin(math.pi * N * 2 / (N + 1)))


def _occupation_diagonal(N: int) -> np.ndarray:
    """bits[i, s] = occupation (0/1) of qubit i in basis state s."""
    idx = np.arange(2**N)
    return np.array([(idx >> (N - 1 - i)) & 1 for i in range(N)])


# The traced peak of a dense Rydberg build or exact solve, in d x d float64
# matrices: 9.1 (build) and 9.0 (exact) at N = 9.
_DENSE_PEAK_MATRICES = 9


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def rydberg_chain_model(N: int, C: float = 1.0, a: float = 1.0,
                        J: float = 1.0, g: float = 0.5,
                        h: float = 0.5) -> ModelBundle:
    """Linear Rydberg array with global controls, simulating an Ising chain.

    Drift: van der Waals interactions C/(a|i-j|)^6 between excited states.
    Controls: collective sum X, sum Z (permutation invariant, so the swap of
    the first two atoms is a symmetry of everything but the drift).  Averaging
    the couplings of atoms 1 and 2 to each other atom restores the swap; the
    resulting ΔH is diagonal with ||ΔH||_inf = C/(2 a^6) (1 - 1/(N-1)^6).

    Raises DimensionCapError above 14 atoms, or before anything is allocated
    when about nine dense d x d float64 matrices (the traced peak of a build
    or an exact solve) would not fit in physical memory.
    """
    if N < 3:
        raise ValidationError("array needs at least 3 atoms")
    if N > 14:
        raise DimensionCapError("dense construction is limited to 14 atoms")
    _require_finite(C=C, a=a, J=J, g=g, h=h)
    if C <= 0 or a <= 0:
        raise ValidationError("interaction strength and spacing must be positive")
    if J == g == h == 0:
        raise ValidationError("the target Hamiltonian is zero: J, g and h "
                              "are all 0")
    try:  # Python's float ** and / raise where float64 ends
        # C/(a r)^6, the coupling of two atoms r = 1 .. N-1 sites apart
        coupling = [C / (a * r)**6 for r in range(1, N)]
        half_strength = 0.5 * C / a**6
        hs_norm_bound = abs(J) * (N - 1) + (abs(g) + abs(h)) * N
        spectral_estimates = _filter_interval(hs_norm_bound, "linear")
        refs = {
            "delta_h_closed_form": C / (2 * a**6) * (1 - 1.0 / (N - 1)**6),
            "trend_limit": math.sqrt(2) * a**6 / C,
            "hs_norm_bound": hs_norm_bound,
        }
    except (OverflowError, ZeroDivisionError):
        raise ValidationError("derived numbers leave float64") from None
    # coupling[0] is the largest; a finite trend_limit keeps ||ΔH||_inf's
    # closed form, which divides the bound, above 0
    _require_finite("derived numbers", coupling=coupling[0],
                    sigma_max=spectral_estimates[1], **refs)
    d = 2**N
    need, have = _DENSE_PEAK_MATRICES * 8 * d * d, _physical_memory()
    if have is not None and need > have:
        raise DimensionCapError(
            f"the dense model at {N} atoms needs about {need / 2**30:.1f} GiB, "
            f"more than the {have / 2**30:.1f} GiB of physical memory")
    bits = _occupation_diagonal(N)
    pair_diag = np.zeros(d)
    with np.errstate(over="ignore"):  # an infinite sum is refused below
        for i in range(N):
            for j in range(i + 1, N):
                pair_diag += coupling[j - i - 1] * bits[i] * bits[j]
    # restoration's acceptance limit needs ||S||_F ||H_d||_F finite: √d for
    # the swap, and the diagonal drift's norm read from its d entries
    _commuting_limit(math.sqrt(d), frobenius_norm(pair_diag[None]))
    drift = np.diag(pair_diag)
    # the collective controls of global_controls(N), built in float64
    z = 1.0 - 2.0 * bits
    sum_z = z.sum(axis=0)
    sum_x = np.zeros((d, d))
    for k in range(N):
        _qubit_product({k: PAULI["X"].real}, N, sum_x)
    controls = [sum_x, np.diag(sum_z)]

    zz = np.zeros(d)
    for i in range(N - 1):
        zz += z[i] * z[i + 1]
    H_s = g * sum_x  # g sum X_i, plus the diagonal below
    H_s[np.diag_indices(d)] = J * zz + h * sum_z

    S = np.zeros((d, d))
    S[_permutation_indices([1, 0] + list(range(2, N)), [2] * N)] = 1.0
    sym = Symmetry("linear", S, note="swap of the first two atoms")

    # delta_j = half the difference of the couplings of atoms 1, 2 to atom j;
    # summing (n_1 - n_2) n_j delta_j symmetrizes the drift.
    dh_diag = np.zeros(d)
    for j in range(2, N):
        delta = half_strength * (1.0 / (j - 1)**6 - 1.0 / j**6)
        dh_diag += delta * (bits[0] - bits[1]) * bits[j]
    pert = Perturbation(np.diag(dh_diag), sym)

    return ModelBundle(drift, controls, target_hamiltonian=H_s, symmetry=sym,
                       perturbation=pert, references=refs,
                       spectral_estimates=spectral_estimates)


def majorana_operators(n_majorana: int) -> list[np.ndarray]:
    """Majorana operators on n/2 qubits, normalized so {chi_i, chi_j} = delta_ij.

    chi_{2i-1} = X_1 ... X_{i-1} Z_i / sqrt(2),
    chi_{2i}   = X_1 ... X_{i-1} Y_i / sqrt(2).
    """
    if n_majorana % 2 != 0 or n_majorana < 2:
        raise ValidationError("need a positive even number of Majorana modes")
    q = n_majorana // 2
    X, Y, Z = PAULI["X"], PAULI["Y"], PAULI["Z"]
    return [_qubit_product({**dict.fromkeys(range(i), X), i: last}, q)
            / math.sqrt(2) for i in range(q) for last in (Z, Y)]


def syk_model(n_majorana: int, seed: int = 0, mu: float = 0.0) -> np.ndarray:
    """Random four-Majorana Hamiltonian, optionally with a charge-like term.

    H = sum_{i<j<k<l} J_ijkl chi_i chi_j chi_k chi_l + (mu/4) Q² with
    Q = sum_{ij} C_ij chi_i chi_j; the independent entries of the
    antisymmetric tensors J and C are standard normal.  Deterministic per
    seed; J is always drawn before C so the quartic couplings do not depend
    on mu.  A mu that takes an entry of H out of float64 is refused.
    """
    if n_majorana % 2 != 0 or n_majorana < 4:
        raise ValidationError("need an even number of Majorana modes, at least 4")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) \
            or seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
    _require_finite(mu=mu)
    chi = majorana_operators(n_majorana)
    d = chi[0].shape[0]
    rng = np.random.default_rng(seed)
    quads = list(itertools.combinations(range(n_majorana), 4))
    couplings = rng.standard_normal(len(quads))
    pairs = list(itertools.combinations(range(n_majorana), 2))
    charges = rng.standard_normal(len(pairs))

    H = np.zeros((d, d), dtype=complex)
    for Jv, (i, j, k, l) in zip(couplings, quads):
        H += Jv * (chi[i] @ chi[j] @ chi[k] @ chi[l])
    # a mu so large that H leaves float64 is refused below, with no warning
    with np.errstate(over="ignore", invalid="ignore"):
        if mu != 0.0:
            Q = np.zeros((d, d), dtype=complex)
            for Cv, (i, j) in zip(charges, pairs):
                Q += 2.0 * Cv * (chi[i] @ chi[j])
            H += (mu / 4.0) * (Q @ Q)
        H = 0.5 * (H + H.conj().T)
    if not np.isfinite(H).all():
        raise ValidationError("derived numbers leave float64")
    return H


def propagate_piecewise(problem: Problem, pulses: PulseSchedule) -> np.ndarray:
    """Time-ordered product of segment exponentials, later segments on the left."""
    if pulses.amplitudes.shape[0] != len(problem.controls):
        raise ValidationError("amplitude row count must equal the control count")
    if pulses.segments == 0:
        raise ValidationError("schedule must contain at least one segment")
    U = np.eye(problem.dimension, dtype=complex)
    for k in range(pulses.segments):
        H = problem.drift.copy()
        for f, Hc in zip(pulses.amplitudes[:, k], problem.controls):
            H = H + f * Hc
        U = matrix_exponential(H, pulses.dt) @ U
    return U
