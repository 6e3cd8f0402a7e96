"""Symmetry discovery: the linear and quadratic commutants of the controls.

Symmetries live in commutants: linear symmetries commute with every control
on the base space, quadratic symmetries commute with the doubled-space lifts
H⊗1 + 1⊗H, so quadratic discovery is the linear commutant of the lifts of
the controls.  Both kinds come from one solver, ``_commutant``.  The common
commutant lies inside the commutant of one generic real combination R of the
controls, which is block diagonal in R's eigenbasis (Murota, Kanno, Kojima &
Kojima 2010, Japan J. Indust. Appl. Math. 27; Zeier & Schulte-Herbrüggen
2011, J. Math. Phys. 52, 113510).  So one ``eigh`` of R (of a d × d R₀ for
the lift R₀⊗1 + 1⊗R₀) fixes a frame, and the commutation equations are
solved only over the entries that join eigenvalues of one cluster of R: 36
unknowns instead of 256 for two qubits under local control.  No stack of
adjoint superoperators is formed.

The result is the span's canonical basis, which depends on the span alone,
not on the LAPACK path or the BLAS thread count: the normalised identity
first, then the projections of the Hermitian matrix units, orthonormalised
greedily in a fixed order.  A real span's basis is stored as float64, so
the restorations and bounds that read it run in real arithmetic.  Every
element is re-checked against every control at a rounding-level defect
that no tolerance widens; an element that fails (a rank tolerance so large
that non-null directions pass its cut) is refused with a
ConditioningError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .matcore import (
    ConditioningError,
    DimensionError,
    TAU_RANK,
    ValidationError,
    _check_tolerance,
    _frobenius,
    _hermitised,
    _kernel_mask,
    _lift,
    check_entry_cap,
    frobenius_norm,
    hermitian_part,
    kron,
    require_hermitian,
    require_unitary,
)

# The generic element R: _DRAWS fixed candidate coefficient rows, of which
# the row with the fewest unknowns, then the widest smallest gap between R's
# eigenvalue clusters, is kept, the clusters split at gaps above
# _FRAME_RTOL·‖R‖ (``_generic_frame``).
_DRAWS = 4
_FRAME_RTOL = 0.02

# The commutation re-check's cut on the relative defect, in units of n·eps
# for n × n operators (``_verify_commutation``).
_DEFECT_RTOL = 64


@dataclass
class Symmetry:
    """Hermitian operator commuting with every control.

    kind "linear" acts on the base space; kind "quadratic" acts on the doubled
    space and commutes with the H⊗1 + 1⊗H lifts instead.  ``matrix`` is the
    one Hermitian array every bound, restoration and residual reads: the
    input, checked and hermitised in one pass (``hermitian_part``), so it
    is the input itself when that is exactly Hermitian, and float64 when it
    is exactly real.  S carries no spectral data of its own: a bound's
    ||ΔH||_inf comes from the perturbation restoring S
    (``perturb.restore_symmetry``), never from S's eigenvalue gaps.
    Every product with a linear S that is a float64 permutation matrix
    (the Rydberg swap) is a gather, whose index map the product finds from
    S itself (``matcore._times_symmetry``).
    """

    kind: str
    matrix: np.ndarray
    note: str = ""

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


def _validated_generators(generators) -> np.ndarray:
    # complex128 whatever the input dtype: a real stack would send the
    # generic element's eigh down another LAPACK path and rotate its frame
    gens = [np.asarray(require_hermitian(G), dtype=complex) for G in generators]
    if not gens:
        raise DimensionError("at least one generator is required")
    d = gens[0].shape[0]
    for G in gens:
        if G.shape[0] != d:
            raise DimensionError("generators must share one dimension")
    return np.array(gens)


def _coefficient_rows(k: int) -> np.ndarray:
    """The candidate coefficients of the generic element: ``_DRAWS`` rows
    of k numbers in (-1, 1), the fractional parts of the multiples of the
    golden ratio (a Weyl sequence, which no rational relation ties), so
    no random generator is loaded."""
    golden = (1 + np.sqrt(5)) / 2
    steps = np.arange(1, _DRAWS * k + 1) * golden
    return (2 * (steps % 1) - 1).reshape(_DRAWS, k)


def _generic_frame(bases: np.ndarray, quadratic: bool):
    """Block pattern and eigenvectors of a generic real combination
    R = Σ r_j L_j of the controls: (mask, V), mask[i, j] True where R's
    eigenvalues i and j lie in one cluster.

    For a quadratic lift, R = R₀⊗1 + 1⊗R₀ with R₀ = Σ r_j H_j: V is R₀'s
    eigenbasis (R's is V⊗V) and the spectrum is the sums w_a + w_b.  A new
    cluster starts at each gap above ``_FRAME_RTOL``·‖R‖: eigenvectors
    across a gap g are accurate to about eps·‖R‖/g, so the pattern holds
    the commutant to rounding.  Of the rows of ``_coefficient_rows``, the
    one with the fewest unknowns Σ m_c² (m_c the cluster sizes) is kept,
    and among those the first with the widest smallest gap between
    clusters.
    """
    best = None
    for r in _coefficient_rows(len(bases)):
        w, V = np.linalg.eigh((r[:, None, None] * bases).sum(axis=0))
        if quadratic:
            w = np.add.outer(w, w).reshape(-1)
        norm = np.max(np.abs(w))
        mask, ws, labels = _kernel_mask(w, _FRAME_RTOL * norm)
        gaps = np.diff(ws)[np.diff(labels) > 0]
        key = np.count_nonzero(mask), -(gaps.min() / norm if gaps.size else 1)
        if best is None or key < best[0]:
            best = key, mask, V
    return best[1:]


def _reduced_system(A: np.ndarray, rows: np.ndarray,
                    cols: np.ndarray) -> np.ndarray:
    """Matrix of B ↦ ([A_j, B])_j over the unknowns B[rows[u], cols[u]]:
    column u holds [A_j, E_u] for the matrix unit E_u, stacked over j."""
    k, n = A.shape[:2]
    u = np.arange(rows.size)
    K = np.zeros((k, n, n, rows.size), dtype=complex)
    K[:, :, cols, u] = A[:, :, rows]            # A_j E_u: column rows[u] of A_j
    K[:, rows, :, u] -= A[:, cols, :].swapaxes(0, 1)  # E_u A_j: row cols[u]
    return K.reshape(k * n * n, rows.size)


def _null_vectors(K: np.ndarray, cut: float) -> np.ndarray:
    """Rows spanning the right nullspace of the tall K: its right singular
    vectors with singular value at most ``cut``, read from the square R
    factor of a QR of K, which has K's singular values and right vectors,
    and refined by one least-squares step on R's range."""
    R = np.linalg.qr(K, mode="r")
    U, s, Vh = np.linalg.svd(R)
    rank = int(np.sum(s > cut))
    N = Vh[rank:].conj().T
    N -= Vh[:rank].conj().T @ ((U[:, :rank].conj().T @ (R @ N))
                               / s[:rank, None])
    return N.T


def _canonical_basis(M: np.ndarray) -> np.ndarray:
    """The span's canonical Hermitian basis, from any Frobenius-orthonormal
    basis M (a stack) of a span closed under †.

    The identity and then the Hermitian matrix units — E_aa at the
    diagonal, (E_ab + E_ba)/√2 and i(E_ba − E_ab)/√2 off it, in row-major
    order of the upper triangle — are projected onto the span and
    orthonormalised greedily in that order: a projection joins the basis
    when its part outside the elements kept so far exceeds ``1/(2n)``.
    Since the units' projections sum to the span's dimension in squared
    norm, some unit still clears that cut while the basis is short of
    the span, so the scan always completes it.  Every kept element
    depends on the span alone, not on the basis M given.
    """
    p, n = M.shape[0], M.shape[-1]
    # coordinates <M_i, X> of each candidate X in the basis M
    Mc = M.conj()
    a, b = np.triu_indices(n)
    upper, lower = Mc[:, a, b], Mc[:, b, a]
    diagonal = a == b
    real = np.where(diagonal, upper, (upper + lower) / np.sqrt(2))
    imag = 1j * (lower - upper) / np.sqrt(2)
    units = np.stack([real, imag], axis=-1).reshape(p, -1)
    units = units[:, np.stack([np.ones_like(diagonal), ~diagonal],
                              axis=-1).reshape(-1)]
    identity = np.trace(Mc, axis1=1, axis2=2) / np.sqrt(n)
    Z = np.column_stack([identity, units])
    Q = np.zeros((p, 0), dtype=complex)
    start = 0
    while Q.shape[1] < p:
        R = Z[:, start:]
        for _ in range(2):  # Gram-Schmidt twice: orthogonal to rounding
            R = R - Q @ (Q.conj().T @ R)
        norms = np.linalg.norm(R, axis=0)
        clear = np.flatnonzero(norms > 0.5 / n)
        if not clear.size:
            raise ConditioningError("canonical basis stops short of the span",
                                    {"kept": Q.shape[1], "dimension": p})
        Q = np.column_stack([Q, R[:, clear[0]] / norms[clear[0]]])
        start += clear[0] + 1
    return _hermitised(np.tensordot(Q.T, M, axes=1))


def _defect_limit(n: int) -> float:
    """The largest relative commutation defect ‖[L, M]‖_F / (‖L‖_F ‖M‖_F)
    that rounding explains for n × n operators: ``_DEFECT_RTOL`` · n · eps."""
    return _DEFECT_RTOL * n * np.finfo(float).eps


def _verify_commutation(mats, ops) -> None:
    """Re-check [L, M] = 0 for every basis element M and every control L
    (or its lift) at ``_defect_limit``, a rounding-level cut that no
    tolerance widens."""
    ops, mats = np.asarray(ops), np.asarray(mats)
    if not mats.size:
        return
    defects = _frobenius(ops[None] @ mats[:, None] - mats[:, None] @ ops[None])
    scales = np.multiply.outer(_frobenius(mats), _frobenius(ops))
    excess = defects - _defect_limit(ops.shape[-1]) * scales
    worst = np.unravel_index(np.argmax(excess), excess.shape)
    if excess[worst] > 0:
        raise ConditioningError(
            "discovered element fails the commutation re-check; a smaller "
            "rank tolerance may separate the nullspace",
            {"defect": float(defects[worst]), "scale": float(scales[worst])},
        )


def _commutant(bases: np.ndarray, quadratic: bool, tol: float) -> np.ndarray:
    """Orthonormal Hermitian basis (a stack, the span's canonical basis) of
    {S : [S, L_j] = 0 for every control L_j}, or of its lifts L_j⊗1 + 1⊗L_j
    when ``quadratic``.

    The controls are scaled to unit Frobenius norm (zero ones constrain
    nothing).  [W†L_jW, B] = 0 is solved over the entries of B that
    ``_generic_frame``'s pattern keeps, W its eigenbasis, and W B W† maps
    each null vector back.  The rank cut is ``tol`` relative to
    √(Σ_j spread_j²), where spread_j, the width of L_j's spectrum, is
    ‖ad_{L_j}‖₂: it bounds the system's norm, but unlike its largest
    singular value it does not shrink to rounding when the frame already
    diagonalises every control (one control X).  The cut never falls below
    ``_defect_limit``, since the re-check passes whatever rounding that
    small leaves: a multiple of the identity plus rounding constrains
    nothing.  A tol of 1 or more is refused.  The basis is float64 when
    every element's imaginary part is at most ``_defect_limit`` (a real
    span, such as the copy swaps of full local control), else complex128;
    the re-check reads the matrices as stored.  The dense entry cap is that
    of the stacked adjoint superoperators the SVD route built: d⁴ for
    linear and d⁸ for quadratic symmetries of d × d controls.
    """
    _check_tolerance(tol, "rank")
    if tol >= 1:
        raise ValidationError(f"rank tolerance must be below 1, got {tol!r}")
    d = bases.shape[-1]
    check_entry_cap(d**4)
    if quadratic:
        check_entry_cap(d**8)
    norms = _frobenius(bases)
    bases = bases[norms > 0] / norms[norms > 0, None, None]
    if not len(bases):  # zero controls: every matrix commutes
        n = d * d if quadratic else d
        return _canonical_basis(np.eye(n * n).reshape(n * n, n, n))
    mask, V = _generic_frame(bases, quadratic)
    rows, cols = np.nonzero(mask)
    A = V.conj().T @ bases @ V
    spreads = np.ptp(np.linalg.eigvalsh(bases), axis=-1)
    if quadratic:
        A, V, spreads = _lift(A), kron(V, V), 2 * spreads
    n = V.shape[0]
    cut = max(tol * np.sqrt(np.sum(spreads**2)), _defect_limit(n))
    null = _null_vectors(_reduced_system(A, rows, cols), cut)
    B = np.zeros((len(null), n, n), dtype=complex)
    B[:, rows, cols] = null
    basis = _canonical_basis(V @ B @ V.conj().T)
    # a real span's canonical elements are real up to rounding
    if np.all(_frobenius(basis.imag) <= _defect_limit(n)):
        basis = np.ascontiguousarray(basis.real)
    _verify_commutation(basis, _lift(bases) if quadratic else bases)
    return basis


def commutant_basis(ops, tol: float = TAU_RANK) -> list[Symmetry]:
    """Orthonormal Hermitian basis of {S : [S, H_j] = 0 for all j}, the
    span's canonical one: the normalised identity comes first.  Every
    matrix is float64 when the span is real (``_commutant``), and an
    element that is exactly real is float64 in any span (``Symmetry``)."""
    basis = _commutant(_validated_generators(ops), False, tol)
    return [Symmetry("linear", M, note="commutant") for M in basis]


def quadratic_symmetry_basis(ops, tol: float = TAU_RANK) -> list[Symmetry]:
    """Orthonormal Hermitian basis of {S on H⊗H : [S, H_j⊗1 + 1⊗H_j] = 0},
    the linear commutant of the controls' lifts, in the span's canonical
    order (the normalised identity first), float64 as ``commutant_basis``
    is: under full local control, Y controls or not, the span is that of
    the real copy swaps."""
    basis = _commutant(_validated_generators(ops), True, tol)
    return [Symmetry("quadratic", M, note="quadratic commutant") for M in basis]


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

