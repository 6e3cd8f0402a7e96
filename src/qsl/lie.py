"""Dynamical Lie algebra closure and symmetry discovery.

A bilinear control system H(t) = H_d + sum_j f_j(t) H_j generates the real
Lie algebra spanned by iterated commutators of {iH_d, iH_j}.  Symmetries live
in commutants: linear symmetries commute with every control on the base space,
quadratic symmetries commute with the doubled-space lifts H⊗1 + 1⊗H, so
quadratic discovery is the linear commutant of the lifted controls.  Both
kinds come from one solver: the SVD nullspace of the stacked adjoint
superoperators.  Only the right singular vectors are computed: the stack of
k controls has k·n² rows for n² unknowns, never fewer rows than columns, so
its left basis is never built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .matcore import (
    ConditioningError,
    ClosureTruncatedError,
    DimensionError,
    TAU_RANK,
    ValidationError,
    _check_tolerance,
    _frobenius,
    _spectral_gap,
    adjoint_superoperator,
    as_operator,
    commutator,
    devectorize,
    frobenius_norm,
    hermitian_part,
    hermitize,
    iota,
    kron,
    require_hermitian,
    require_square,
    require_unitary,
    row_vectorize,
)


@dataclass
class OperatorBasis:
    """Hilbert-Schmidt orthonormal basis of antihermitian matrices."""

    dimension: int
    elements: list[np.ndarray]
    closed: bool = True
    tol: float = TAU_RANK

    @property
    def size(self) -> int:
        return len(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)


@dataclass
class Symmetry:
    """Hermitian operator commuting with every control.

    kind "linear" acts on the base space; kind "quadratic" acts on the doubled
    space and commutes with the H⊗1 + 1⊗H lifts instead.  ``sigma_min`` is the
    smallest gap between distinct eigenvalues (clustered at a tolerance
    relative to the operator norm), always measured from the matrix, on first
    use, and cached; no caller can set it.  ``hermitian`` is S_h = (S + S†)/2,
    checked and formed once, in the one hermiticity pass of construction:
    ``matrix`` itself when it is exactly Hermitian (float64 when exactly
    real).  ``sigma_min`` decomposes ``hermitian`` with no second check.
    """

    kind: str
    matrix: np.ndarray
    note: str = ""
    _sigma_min: float | None = field(init=False, default=None, repr=False,
                                     compare=False)
    hermitian: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ("linear", "quadratic"):
            raise ValidationError(f"unknown symmetry kind {self.kind!r}")
        self.matrix = require_square(self.matrix)
        self.hermitian = hermitian_part(self.matrix)

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
            self._sigma_min = _spectral_gap(self.hermitian)
        return self._sigma_min

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


def lie_closure(generators, max_dim: int | None = None,
                tol: float = TAU_RANK) -> OperatorBasis:
    """Orthonormal basis of the real Lie algebra generated by {iH}.

    Breadth-first over (new element) x (all earlier elements) commutator
    pairs, Gram-Schmidt against the current basis (twice, for numerical
    orthogonality), accepting residual directions with norm above ``tol``.
    Deterministic given the generator order.  Raises ClosureTruncatedError,
    carrying the partial basis, if ``max_dim`` is hit while new directions
    keep appearing.
    """
    gens = _validated_generators(generators)
    _check_tolerance(tol, "rank")
    d = gens[0].shape[0]
    limit = d * d if max_dim is None else min(int(max_dim), d * d)
    if limit < 1:
        raise DimensionError("max_dim must be at least 1")

    basis: list[np.ndarray] = []

    def try_accept(C: np.ndarray) -> None:
        n0 = np.linalg.norm(C)
        if n0 <= tol:
            return
        C = C / n0
        for _ in range(2):
            for b in basis:
                C = C - np.trace(b.conj().T @ C) * b
        r = np.linalg.norm(C)
        if r <= tol:
            return
        if len(basis) >= limit:
            raise ClosureTruncatedError(
                f"Lie closure exceeded max_dim={limit} before closing",
                partial_basis=OperatorBasis(d, list(basis), closed=False, tol=tol),
            )
        C = C / r
        basis.append(0.5 * (C - C.conj().T))  # keep exactly antihermitian

    for G in gens:
        try_accept(1j * G)

    done = 0  # elements [0, done) have been paired with each other already
    while done < len(basis):
        hi = len(basis)
        for i in range(done, hi):
            for j in range(i):
                try_accept(commutator(basis[i], basis[j]))
        done = hi

    return OperatorBasis(d, basis, closed=True, tol=tol)


def project_onto_span(X, basis: OperatorBasis) -> tuple[np.ndarray, float]:
    """Hilbert-Schmidt projection of iX onto the basis span.

    Returns (coefficients, residual norm); membership of H in the algebra
    means the residual is below tol * max(1, ||X||_F).
    """
    A = require_hermitian(X)
    if A.shape[0] != basis.dimension:
        raise DimensionError("dimension mismatch with basis")
    V = 1j * A
    coeffs = np.array([np.real(np.trace(b.conj().T @ V)) for b in basis.elements])
    R = V.copy()
    for c, b in zip(coeffs, basis.elements):
        R = R - c * b
    return coeffs, float(np.linalg.norm(R))


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
    hermitized, re-orthonormalized, and re-verified.
    """
    _check_tolerance(tol, "rank")
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


def span_residual(X, symmetries) -> float:
    """Distance from X to the real span of the given symmetry matrices."""
    A = require_hermitian(X)
    mats = [s.matrix if isinstance(s, Symmetry) else as_operator(s)
            for s in symmetries]
    if not mats:
        return frobenius_norm(A)
    cols = np.array([_real_coordinates(M) for M in mats]).T
    rhs = _real_coordinates(A)
    coeffs, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
    return float(np.linalg.norm(rhs - cols @ coeffs))


def center_dimension(basis: OperatorBasis, tol: float = TAU_RANK) -> int:
    """Dimension of the center of the algebra spanned by the basis."""
    _check_tolerance(tol, "rank")
    n = basis.size
    if n == 0:
        return 0
    cols = [np.concatenate([_real_coordinates(commutator(a, b))
                            for b in basis.elements])
            for a in basis.elements]
    return n - _rank(np.linalg.svd(np.array(cols).T, compute_uv=False), tol)
