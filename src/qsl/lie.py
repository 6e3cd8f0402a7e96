"""Symmetry discovery: the linear and quadratic commutants of the controls.

Symmetries live in commutants: linear symmetries commute with every control
on the base space, quadratic symmetries commute with the doubled-space lifts
H⊗1 + 1⊗H, so quadratic discovery is the linear commutant of the lifted
controls.  Both kinds come from one solver: the SVD nullspace of the stacked
adjoint superoperators.  Only the right singular vectors are computed: the
stack of k controls has k·n² rows for n² unknowns, never fewer rows than
columns, so its left basis is never built.  Every discovered element is
re-checked against every control before it is returned.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    ConditioningError,
    DimensionError,
    TAU_RANK,
    ValidationError,
    _check_tolerance,
    _frobenius,
    _permutation_of,
    _spectral_gap,
    adjoint_superoperator,
    commutator,
    devectorize,
    frobenius_norm,
    hermitian_part,
    hermitize,
    iota,
    kron,
    require_hermitian,
    require_unitary,
    row_vectorize,
)


@dataclass
class Symmetry:
    """Hermitian operator commuting with every control.

    kind "linear" acts on the base space; kind "quadratic" acts on the doubled
    space and commutes with the H⊗1 + 1⊗H lifts instead.  ``matrix`` is the
    one Hermitian array every bound, restoration and residual reads: the
    input, checked and hermitised in one pass (``hermitian_part``), so it
    is the input itself when that is exactly Hermitian, and float64 when it
    is exactly real.  ``sigma_min`` is the smallest gap between distinct
    eigenvalues (clustered at a tolerance relative to the operator norm),
    always measured from the matrix, on first use, and cached; no caller
    can set it.  ``_permutation`` is σ with S[i, σ(i)] = 1 when a linear S
    is a float64 permutation matrix (the Rydberg swap), else None, found on
    first use and cached: every product with such an S is a gather
    (``matcore._times_symmetry``).
    """

    kind: str
    matrix: np.ndarray
    note: str = ""
    _sigma_min: float | None = field(init=False, default=None, repr=False,
                                     compare=False)

    def __post_init__(self):
        if self.kind not in ("linear", "quadratic"):
            raise ValidationError(f"unknown symmetry kind {self.kind!r}")
        self.matrix = hermitian_part(self.matrix)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    @property
    def base_dimension(self) -> int:
        """Dimension of the base space (sqrt of matrix size for quadratic)."""
        if self.kind == "linear":
            return self.dimension
        d = int(round(np.sqrt(self.dimension)))
        if d * d != self.dimension:
            raise DimensionError("quadratic symmetry dimension is not a square")
        return d

    @property
    def frobenius(self) -> float:
        return frobenius_norm(self.matrix)

    @property
    def sigma_min(self) -> float:
        if self._sigma_min is None:
            self._sigma_min = _spectral_gap(self.matrix)
        return self._sigma_min

    @functools.cached_property
    def _permutation(self) -> np.ndarray | None:
        return (_permutation_of(self.matrix) if self.kind == "linear"
                else None)

    def scaled(self, factor: float) -> "Symmetry":
        return Symmetry(self.kind, factor * self.matrix, note=self.note)


def _validated_generators(generators) -> list[np.ndarray]:
    # complex128 whatever the input dtype: a real stack would send the
    # nullspace SVD down another LAPACK path and rotate the discovered basis
    gens = [np.asarray(require_hermitian(G), dtype=complex) for G in generators]
    if not gens:
        raise DimensionError("at least one generator is required")
    d = gens[0].shape[0]
    for G in gens:
        if G.shape[0] != d:
            raise DimensionError("generators must share one dimension")
    return gens


def _rank(s: np.ndarray, tol: float) -> int:
    """Number of singular values s (descending) above tol · max(s)."""
    smax = s[0] if s.size else 0.0
    return int(np.sum(s > tol * smax)) if smax > 0 else 0


def _real_coordinates(M) -> np.ndarray:
    """Row-vectorized M as one real vector, real parts then imaginary."""
    v = row_vectorize(M)
    return np.concatenate([v.real, v.imag])


def _nullspace(K: np.ndarray, tol: float) -> list[np.ndarray]:
    """Right nullspace vectors of K at a relative singular-value threshold.

    Only the right singular vectors are read.  For a tall or square K the
    reduced factorisation already returns all of them, so the m×m left basis
    is built only for a wide K, whose null rows the reduced Vh would lack.
    """
    if K.size == 0:
        return []
    _, s, Vh = np.linalg.svd(K, full_matrices=K.shape[0] < K.shape[1])
    return [Vh[i].conj() for i in range(_rank(s, tol), Vh.shape[0])]


def _hermitian_basis_from_nullspace(vectors, tol: float) -> list[np.ndarray]:
    """Split nullspace matrices into Hermitian parts and orthonormalize.

    A matrix commutes with Hermitian H iff its Hermitian and antihermitian
    parts both do, so the split stays inside the nullspace; the real span is
    orthonormalized through an SVD over real-embedded coordinates.
    """
    herms: list[np.ndarray] = []
    for v in vectors:
        M = devectorize(v)
        herms.append(hermitize(M))
        herms.append((M - M.conj().T) / 2j)
    if not herms:
        return []
    rows = np.array([_real_coordinates(H) for H in herms])
    _, s, Vh = np.linalg.svd(rows, full_matrices=False)
    half = rows.shape[1] // 2
    return [hermitize(devectorize(r[:half] + 1j * r[half:]))
            for r in Vh[:_rank(s, tol)]]


def _verify_commutation(mats, ops, tol: float) -> None:
    """Re-check [L, M] = 0 for every basis element M and (lifted) control L."""
    op_norms = [frobenius_norm(L) for L in ops]
    for M in mats:
        m_norm = frobenius_norm(M)
        for L, l_norm in zip(ops, op_norms):
            defect = frobenius_norm(commutator(L, M))
            scale = max(1.0, m_norm * l_norm)
            if defect > 100 * tol * scale:
                raise ConditioningError(
                    "nullspace element fails the commutation re-check",
                    {"defect": defect, "scale": scale},
                )


def _commutant(ops: list[np.ndarray], kind: str, note: str,
               tol: float) -> list[Symmetry]:
    """Orthonormal Hermitian basis of {S : [S, L] = 0 for every L in ops}.

    Solved as the SVD nullspace of the stacked adjoint superoperators, then
    hermitized, re-orthonormalized, and re-verified.  A tol of 1 or more
    is refused: no singular value exceeds tol · s_max, so it would decide
    every rank question one way.
    """
    _check_tolerance(tol, "rank")
    if tol >= 1:
        raise ValidationError(f"rank tolerance must be below 1, got {tol!r}")
    K = np.vstack([adjoint_superoperator(L) for L in ops])
    basis = _hermitian_basis_from_nullspace(_nullspace(K, tol), tol)
    _verify_commutation(basis, ops, tol)
    return [Symmetry(kind, M, note=note) for M in basis]


def commutant_basis(ops, tol: float = TAU_RANK) -> list[Symmetry]:
    """Orthonormal Hermitian basis of {S : [S, H_j] = 0 for all j}.

    Always contains the identity direction.
    """
    return _commutant(_validated_generators(ops), "linear", "commutant", tol)


def quadratic_symmetry_basis(ops, tol: float = TAU_RANK) -> list[Symmetry]:
    """Orthonormal Hermitian basis of {S on H⊗H : [S, H_j⊗1 + 1⊗H_j] = 0},
    the linear commutant of the lifted controls."""
    lifts = [iota(op) for op in _validated_generators(ops)]
    return _commutant(lifts, "quadratic", "quadratic commutant", tol)


def _breaking_norm(W: np.ndarray, M: np.ndarray):
    """||[W, M]||_F for a matrix M or each matrix of a stack."""
    return _frobenius(W @ M - M @ W)


def symmetry_breaking_norm(S: Symmetry, target) -> float:
    """||[U, S]||_F for linear S, ||[U⊗U, S]||_F for quadratic S."""
    U = require_unitary(target)
    if U.shape[0] != S.base_dimension:
        raise DimensionError(f"target dimension does not match {S.kind} "
                             "symmetry")
    if S.kind == "quadratic":
        U = kron(U, U)
    return float(_breaking_norm(U, S.matrix))

