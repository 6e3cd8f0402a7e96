"""Dense complex matrix kernel.

Everything downstream (symmetry discovery, perturbation construction, the
speed-limit formulas) is built on the handful of primitives in this module:
Hermitian/unitary validation, norms, eigendecomposition-based exponentials,
Kronecker products, qubit tensor products built by index arithmetic,
and tensor-factor permutation operators.

Matrices are plain ``numpy.ndarray`` values with float64 or complex128
entries: a float64 input stays float64 (an exactly real operator such as the
Rydberg bundle's drift, controls and swap needs half the memory and real
BLAS/LAPACK calls), every other input becomes complex128.  Builders that
produce qubit or permutation operators return complex128.  The validator
helpers (``require_square``, ``require_hermitian``, ``hermitian_part``, ...)
are the boundary where array-shaped garbage is rejected, at fixed tolerances,
and a NaN or infinite entry with a ValidationError and no numpy warning;
internal code may assume validated input.  Each hermiticity check is one pass
over the matrix that compares each 64 x 64 tile A_IJ with its mirror A_JI, so
both are read in cache; ``hermitian_part`` checks and hermitises in that same
pass, and returns its input unchanged when it is already exactly Hermitian.
The one commutator norm, ||[L, S]||_F = ||P - P†||_F with P = L S for L = H
or its lift H⊗1 + 1⊗H (``_commutator_norm``), is read from the same tile
pairs (``_antihermitian_norm``), with no d x d temporary.  A matrix of one
tile (d <= 64) is its own single pair, so it meets the whole-matrix
operations A - A† and (A + A†)/2 and their values.  Each product with a
linear S (``_times_symmetry``) finds whether a single float64 S is a
permutation matrix (``_permutation_of``) and then gathers, with a matmul's
values; the lift's product (``_times_lift``) is two d x d contractions,
the lift never formed.  The private
kernels the symmetry search shares with the public functions
(``_square_sum``, ``_frobenius``, ``_antihermitian_norm``, ``_hermitised``,
``_cluster_labels``, ``_kernel_mask``, ``_max_abs_eigenvalue``) also take
stacks of matrices, and each matrix of a stack gets the value it gets alone.
"""

from __future__ import annotations

import math

import numpy as np

# Tolerances (TAU_H and TAU_U fixed, the others also defaults), relative to
# max(1, norm) of the operand unless noted otherwise, so tests are scale-free.
TAU_H = 1e-10          # hermiticity, Frobenius scale
TAU_U = 1e-10          # unitarity, Frobenius scale per sqrt(dim)
TAU_RANK = 1e-9        # rank / nullspace decisions, relative to s_max
GAP_RTOL = 1e-8        # eigenvalue clustering, relative to operator norm:
                       # restoration and the exact numerator
# Chebyshev filter interval when the caller supplies no spectral estimates:
# ad_H eigenvalue gaps below this fraction of the spectral span count as
# degenerate.  S components at smaller gaps are then not counted by the
# filtered numerator, which keeps it a valid lower bound but costs
# tightness; callers with sharper knowledge should pass estimates.
DEFAULT_FILTER_CUT_REL = 2.5e-4

# Guard for dense intermediates (symmetry discovery, counted as the stacked
# adjoint superoperators, and the quadratic restoration map).  Counts dense
# entries; the dense method does not support larger problems, and no other
# method exists for them.
DIMENSION_CAP = 2**20


class QslError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(QslError):
    """Operands have incompatible or non-square shapes."""


class DimensionCapError(QslError):
    """A dense intermediate would exceed the configured entry cap."""


class ValidationError(QslError):
    """A value violates its numerical contract (hermiticity, unitarity, ...)."""


class ConditioningError(QslError):
    """A linear solve failed its residual check.

    ``diagnostics`` holds named floats describing the failure.
    """

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = dict(diagnostics or {})


PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def as_operator(M) -> np.ndarray:
    """Coerce to a 2-d array without copying when possible: float64 input
    stays float64, any other dtype becomes complex128."""
    A = np.asarray(M)
    if A.dtype != np.float64:
        A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise DimensionError(f"expected a matrix, got array of rank {A.ndim}")
    return A


def require_square(M) -> np.ndarray:
    A = as_operator(M)
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    return A


def require_same_dimension(A, B) -> tuple[np.ndarray, np.ndarray]:
    A, B = require_square(A), require_square(B)
    if A.shape != B.shape:
        raise DimensionError(f"dimension mismatch: {A.shape} vs {B.shape}")
    return A, B


# Side of the square tiles an A - A† pass walks in pairs (A_IJ, A_JI): a
# tile and its mirror are both read in cache, where a row block read against
# a transposed column slab strides across the whole matrix.
_TILE = 64


def _tile_pairs(A: np.ndarray):
    """(I, J, w, D) for each pair of tiles A_IJ, A_JI with J >= I of a
    square A, or of each matrix of a stack, tile row by tile row: the slices
    I and J, D = A_IJ - (A_JI)†, and w = 2 for J > I, since
    A_JI - (A_IJ)† = -D†, else 1; the w·||D||²_F sum to ||A - A†||²_F.
    Every temporary is one tile, so a matrix of one tile (d <= 64) meets
    the whole-matrix operations A - A†."""
    d = A.shape[-1]
    for i in range(0, d, _TILE):
        I = slice(i, i + _TILE)
        for j in range(i, d, _TILE):
            J = slice(j, j + _TILE)
            yield (I, J, 1 if i == j else 2,
                   A[..., I, J] - _adjoint(A[..., J, I]))


def _hermitian_pass(A: np.ndarray, hermitise: bool = False):
    """(H, ||A - A†||_F) for a square A, from one pass over the
    ``_tile_pairs`` of A, which forms no d x d conjugate transpose.

    With ``hermitise``, H = (A + A†)/2 in the dtype ``hermitian_part``
    promises; otherwise H is None.  H is A itself while every tile pair is
    exactly Hermitian, since then 0.5·(a + a) = a; a copy is started at the
    first pair that is not, holding A's values in the pairs before it, and
    from there on H_IJ = 0.5·(A_IJ + A_JI†) and H_JI = H_IJ†: the values
    ``hermitize`` computes, as addition commutes and conjugation is exact.
    A non-finite entry makes the defect non-finite, which the callers
    report, so numpy's warning about it is silenced here.
    """
    total = 0.0
    H = None
    with np.errstate(invalid="ignore", over="ignore"):
        for I, J, w, D in _tile_pairs(A):
            s = np.vdot(D, D).real
            del D  # before the next tile is formed
            total += w * s
            if not hermitise or not (s or H is not None):
                continue
            if H is None:  # the pairs before this one: A's values
                i, j = I.start, J.start
                H = np.empty(A.shape, dtype=A.dtype)
                H[:i], H[i:, :i] = A[:i], A[i:, :i]
                H[I, i:j], H[i:j, I] = A[I, i:j], A[i:j, I]
            h = H[I, J]
            np.add(A[I, J], A[J, I].conj().T, out=h)
            h *= 0.5
            if J.start != I.start:
                np.conjugate(h.T, out=H[J, I])
    if hermitise:
        H = A if H is None else H
        if H.dtype == complex and not H.imag.any():
            H = np.ascontiguousarray(H.real)
    return H, math.sqrt(total)


def _hermitian_defect(A: np.ndarray) -> float:
    """||A - A†||_F of a square A, from ``_hermitian_pass``."""
    return _hermitian_pass(A)[1]


def _pair_square_sum(P: np.ndarray):
    """||P - P†||²_F, summed over the ``_tile_pairs`` of P with
    ``_square_sum``'s dot products; a sum past float64 is inf, with no
    warning."""
    total = 0.0
    with np.errstate(over="ignore"):
        for _, _, w, D in _tile_pairs(P):
            total = total + w * _square_sum(D)
            del D  # before the next tile is formed
    return total


def _antihermitian_norm(P: np.ndarray):
    """||P - P†||_F of a matrix, or of each matrix of a stack, from the
    tile pairs of P, rescaled by ``_scaled_root`` where the plain sum
    leaves float64.  A finite plain sum needs no temporary the size of P
    and, for d <= 64, is the value of ``_frobenius(P - P†)``; a matrix gets
    the same value alone as in any stack."""
    return _scaled_root(P, _pair_square_sum)


def _too_far_from_hermitian(A: np.ndarray, defect: float, tol: float) -> bool:
    """The rule of every hermiticity check: defect > tol·max(1, ||A||_F), or
    a non-finite defect, which any non-finite entry of A gives.  An exactly
    Hermitian A (defect 0) never needs the norm."""
    return not math.isfinite(defect) or (
        defect > 0.0 and defect > tol * max(1.0, np.linalg.norm(A)))


def _invalid(defect: float, what: str) -> ValidationError:
    """The error of a failed hermiticity or unitarity check."""
    if not math.isfinite(defect):
        return ValidationError(f"matrix has non-finite entries (defect {defect})")
    return ValidationError(f"matrix is not {what} (defect {defect:.3e})")


def require_hermitian(M) -> np.ndarray:
    """M as a square float64 or complex128 array (no copy when it already is
    one), after checking ||M - M†||_F <= TAU_H·max(1, ||M||_F); the Frobenius
    norm is computed only when the defect is nonzero.  Non-finite entries
    fail the check."""
    A = require_square(M)
    defect = _hermitian_defect(A)
    if _too_far_from_hermitian(A, defect, TAU_H):
        raise _invalid(defect, "Hermitian")
    return A


def require_unitary(M) -> np.ndarray:
    """M as a square array after checking ||M†M - 1||_F <= TAU_U·sqrt(d);
    non-finite entries make the defect non-finite and fail the check, with
    no numpy warning."""
    A = require_square(M)
    d = A.shape[0]
    with np.errstate(invalid="ignore", over="ignore"):
        defect = float(np.linalg.norm(A.conj().T @ A - np.eye(d)))
    if not defect <= TAU_U * np.sqrt(d):
        raise _invalid(defect, "unitary")
    return A


def _check_tolerance(tol: float, what: str, zero_ok: bool = False) -> None:
    """Reject a tolerance that is not finite and positive (or zero, when
    zero_ok): such a cut decides every rank or degeneracy question one way,
    whatever the input."""
    if not (math.isfinite(tol) and (tol >= 0 if zero_ok else tol > 0)):
        sign = "non-negative" if zero_ok else "positive"
        raise ValidationError(f"{what} tolerance must be finite and {sign}, "
                              f"got {tol!r}")


def check_entry_cap(entries: int) -> None:
    if entries > DIMENSION_CAP:
        raise DimensionCapError(
            f"dense intermediate needs {entries} entries, cap is {DIMENSION_CAP}; "
            "the dense method does not support problems this large"
        )


def _adjoint(A: np.ndarray) -> np.ndarray:
    """A† of a matrix, or of each matrix of a stack."""
    return A.conj().swapaxes(-1, -2)


def _hermitised(A: np.ndarray) -> np.ndarray:
    """(A + A†)/2 of a matrix or of each matrix of a stack, unchecked."""
    return 0.5 * (A + _adjoint(A))


def hermitize(M) -> np.ndarray:
    """(M + M†)/2.  Idempotent on Hermitian input."""
    return _hermitised(require_square(M))


def hermitian_part(M) -> np.ndarray:
    """(M + M†)/2 of a Hermitian M, checked and hermitised in one pass.

    Raises ValidationError exactly where ``require_hermitian`` does.  The
    result is M itself (no copy) when M is exactly Hermitian and is float64,
    or complex with a nonzero imaginary part; otherwise a new array with the
    values of ``hermitize(M)``.  A complex result whose imaginary part is
    exactly zero is returned as contiguous float64: real BLAS/LAPACK calls
    need about a quarter of the work.
    """
    A = require_square(M)
    H, defect = _hermitian_pass(A, hermitise=True)
    if _too_far_from_hermitian(A, defect, TAU_H):
        raise _invalid(defect, "Hermitian")
    return H


def commutator(A, B) -> np.ndarray:
    """[A, B] = AB - BA."""
    A, B = require_same_dimension(A, B)
    return A @ B - B @ A


def frobenius_norm(M) -> float:
    """||M||_F from ``np.linalg.norm``; a sum of squares that leaves
    float64 is formed again with M scaled by its largest |entry|
    (``_frobenius``), so every finite value is ``np.linalg.norm``'s."""
    A = as_operator(M)
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(A))
    return norm if math.isfinite(norm) else float(_frobenius(A))


def _square_sum(X: np.ndarray):
    """||X||²_F of a matrix, or of each matrix of a stack, with no temporary
    the size of X.  Each value is the dot product ``np.linalg.norm`` takes
    (real and imaginary parts apart), so a matrix gives the same float
    alone as in any stack.  A sum past float64 is inf, with no warning."""
    f = X.reshape(X.shape[:-2] + (-1,))
    parts = (f.real, f.imag) if np.iscomplexobj(f) else (f,)
    with np.errstate(over="ignore"):
        return sum((p[..., None, :] @ p[..., :, None])[..., 0, 0]
                   for p in parts)


def _scaled_root(X: np.ndarray, square_sum):
    """sqrt(square_sum(X)) for a matrix or each matrix of a stack, where
    square_sum is homogeneous of degree 2.  Only where that sum leaves
    float64 is it formed again from X scaled by its largest finite |entry|,
    as LAPACK's nrm2 scales, so every other value stays the plain one bit
    for bit."""
    norm = np.sqrt(square_sum(X))
    if np.isfinite(norm).all():
        return norm
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.max(np.abs(X), axis=(-2, -1), initial=0.0)
        scale = np.where(np.isfinite(scale) & (scale > 0), scale, 1.0)
        scaled = scale * np.sqrt(square_sum(X / scale[..., None, None]))
    return np.where(np.isfinite(norm), norm, scaled)


def _frobenius(X: np.ndarray):
    """||X||_F of a matrix, or of each matrix of a stack, from
    ``_square_sum``, rescaled by ``_scaled_root`` where the plain sum
    leaves float64."""
    return _scaled_root(X, _square_sum)


def _max_abs_eigenvalue(H: np.ndarray):
    """max |eigenvalue| of an exactly Hermitian matrix, or of each matrix of
    a stack, from ``eigvalsh``."""
    if H.shape[-1] == 0:
        return np.zeros(H.shape[:-2])
    return np.max(np.abs(np.linalg.eigvalsh(H)), axis=-1)


def _diagonal_norm(A: np.ndarray) -> float | None:
    """max |diagonal| of a square A that is diagonal with an exactly real
    diagonal, its own spectrum, so its operator norm with no decomposition;
    None for any other A."""
    diag = A.diagonal()
    if (diag.size and not diag.imag.any()
            and np.count_nonzero(A) == np.count_nonzero(diag)):
        return float(np.max(np.abs(diag.real)))
    return None


def operator_norm(M) -> float:
    """Largest singular value; max |eigenvalue| on the Hermitian path, in
    real arithmetic when the hermitised input is exactly real.  A diagonal
    matrix with an exactly real diagonal is its own spectrum: max |diagonal|,
    with no decomposition.  A Hermitian input costs one hermiticity pass and,
    when it is exactly Hermitian, no copy."""
    A = as_operator(M)
    if A.shape[0] == A.shape[1]:
        norm = _diagonal_norm(A)
        if norm is not None:
            return norm
        H, defect = _hermitian_pass(A, hermitise=True)
        if not _too_far_from_hermitian(A, defect, TAU_H):
            return float(_max_abs_eigenvalue(H))
    return float(np.linalg.norm(A, ord=2))


def matrix_exponential(H, t: float) -> np.ndarray:
    """exp(-iHt) for Hermitian H, via eigendecomposition."""
    w, V = np.linalg.eigh(hermitian_part(H))
    return (V * np.exp(-1j * w * t)) @ V.conj().T


def kron(A, B) -> np.ndarray:
    """Kronecker product, (A⊗B)[i·dB+k, j·dB+l] = A[i,j]·B[k,l]."""
    return np.kron(as_operator(A), as_operator(B))


def _qubit_product(factors: dict, n_qubits: int, out=None, weight=None):
    """Add weight·(F_0 ⊗ ... ⊗ F_{n-1}) to ``out`` and return it, where F_q
    is the 2x2 matrix ``factors[q]`` or the identity; ``out`` defaults to a
    fresh complex128 zero matrix and ``weight`` to 1.  The entries are
    computed in the dtype of ``out``, so a float64 ``out`` takes real factors.

    Index arithmetic in place of a chain of np.kron calls: column c maps to
    the rows that differ from c only on the factor sites (qubit 0 is the most
    significant bit), and each entry is the product of the factor entries
    taken in site order, as the kron chain takes it, so the result equals the
    chain bit for bit.  Zero factor entries are skipped: a Pauli string is a
    phased permutation written with O(d) stores.
    """
    d = 2**n_qubits
    cols = np.arange(d)
    rows = cols
    vals = np.ones(d, dtype=complex if out is None else out.dtype)
    for q in sorted(factors):
        F = as_operator(factors[q])
        if F.shape != (2, 2):
            raise DimensionError(f"qubit factors must be 2x2, got {F.shape}")
        if not 0 <= q < n_qubits:
            raise DimensionError(f"site {q} out of range for {n_qubits} qubits")
        shift = n_qubits - 1 - q
        c_bit = (cols >> shift) & 1
        parts = []
        for r_bit in (0, 1):
            w = F[r_bit, c_bit]
            keep = np.flatnonzero(w)
            parts.append((rows[keep] ^ ((c_bit[keep] ^ r_bit) << shift),
                          cols[keep], vals[keep] * w[keep]))
        rows, cols, vals = (np.concatenate(p) for p in zip(*parts))
    if weight is not None:
        vals = weight * vals
    if out is None:
        out = np.zeros((d, d), dtype=complex)
        out[rows, cols] = vals
    else:
        out[rows, cols] += vals
    return out


def _lift(Y: np.ndarray) -> np.ndarray:
    """Y⊗1 + 1⊗Y for a d×d array or a stack of them, of any dtype and
    unchecked.  Each entry is 0, one entry of Y or the sum of two, as in the
    sum of np.kron products, so it equals that sum bit for bit."""
    d = Y.shape[-1]
    eye = np.eye(d)
    # [..., a, b, c, f] -> Y[a, c]·1[b, f] + 1[a, c]·Y[b, f], the entry in
    # row (a, b) and column (c, f)
    L = (Y[..., :, None, :, None] * eye[None, :, None, :]
         + eye[:, None, :, None] * Y[..., None, :, None, :])
    return L.reshape(Y.shape[:-2] + (d * d, d * d))


def _times_lift(H: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """(H⊗1 + 1⊗H) Y for a d×d H and a d²×d² Y, or for stacks of either,
    as two d x d contractions, (H⊗1) Y and (1⊗H) Y: the lift is never
    formed."""
    d = H.shape[-1]
    lead = Y.shape[:-2]
    Y3 = Y.reshape(lead + (d, d, -1))  # Y[(a, b), x] -> Y3[a, b, x]
    first = (H @ Y.reshape(lead + (d, -1))).reshape(Y3.shape)  # (H⊗1) Y
    return (first + H[..., None, :, :] @ Y3).reshape(Y.shape)  # + (1⊗H) Y


def _commutator_norm(H: np.ndarray, S: np.ndarray, quadratic: bool):
    """||[L, S]||_F for exactly Hermitian H and S, with L = H or, for
    ``quadratic``, the lift H⊗1 + 1⊗H: ||P - P†||_F with P = L S, one
    product (``_times_symmetry`` or ``_times_lift``) in real arithmetic
    when both are exactly real, summed over the tile pairs of P
    (``_antihermitian_norm``).  S may be a stack, one value per matrix.
    A product past float64 gives inf, with no numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        P = (_times_lift(H, S) if quadratic
             else _times_symmetry(S, H, right=True))
        return _antihermitian_norm(P)


def iota(H) -> np.ndarray:
    """H⊗1 + 1⊗H on the doubled space; spectrum is pairwise eigenvalue sums."""
    A = require_hermitian(H)
    check_entry_cap(A.shape[0]**4)
    return _lift(A)


def _permutation_indices(perm, local_dims) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols): the nonzero entries of ``permutation_operator``."""
    perm = list(perm)
    dims = [int(d) for d in local_dims]
    k = len(dims)
    if sorted(perm) != list(range(k)):
        raise DimensionError(f"not a permutation of {k} slots: {perm}")
    if any(d < 1 for d in dims):
        raise DimensionError(f"local dimensions must be positive: {dims}")
    D = 1
    for d in dims:
        D *= d
    check_entry_cap(D)
    idx = np.arange(D)
    digits = np.array(np.unravel_index(idx, dims))
    new_digits = np.empty_like(digits)
    new_dims = [0] * k
    for a, target in enumerate(perm):
        new_digits[target] = digits[a]
        new_dims[target] = dims[a]
    return np.ravel_multi_index(list(new_digits), new_dims), idx


def permutation_operator(perm, local_dims) -> np.ndarray:
    """Unitary permuting tensor factors: factor a of the input moves to slot
    perm[a] of the output.

    For a product state v_0 ⊗ ... ⊗ v_{k-1} the result places v_a at position
    perm[a].  Transpositions are self-inverse; compositions satisfy
    P_sigma @ P_tau = P_{sigma after tau}.
    """
    rows, cols = _permutation_indices(perm, local_dims)
    P = np.zeros((cols.size, cols.size), dtype=complex)
    P[rows, cols] = 1.0
    return P


def _permutation_of(A: np.ndarray) -> np.ndarray | None:
    """σ with A[i, σ(i)] = 1 when the float64 matrix A is a permutation
    matrix (one nonzero per row, every one exactly 1.0, the columns a
    bijection), else None.  Any A with other than d nonzeros, a dense A
    among them, is refused by one count before anything the size of its
    nonzeros is allocated; then each row's argmax must hold a 1."""
    if A.dtype != np.float64 or A.ndim != 2 or A.shape[0] != A.shape[1]:
        return None
    d = A.shape[0]
    if np.count_nonzero(A) != d:
        return None
    sigma = np.argmax(A, axis=1)
    if (not (A[np.arange(d), sigma] == 1.0).all()
            or np.count_nonzero(np.bincount(sigma, minlength=d)) != d):
        return None
    return sigma


def _times_symmetry(S: np.ndarray, X: np.ndarray, right: bool = False):
    """S X, or X S with ``right``, for a Hermitian S and a matrix or a
    stack X, or a stack S.

    A single S that is a float64 permutation matrix (``_permutation_of``,
    which refuses a stack or a complex S at once) is
    an involution (σ⁻¹ = σ): then S X = X[σ] and X S = X[..., σ], gathers
    with the matmul's values, since 1.0·x plus exact zeros is x for finite
    x.  A gather is C-contiguous, as the matmul's result is."""
    sigma = _permutation_of(S)
    if sigma is None:
        return X @ S if right else S @ X
    return X.take(sigma, axis=-1 if right else -2)


def _cluster_labels(w: np.ndarray, tol) -> np.ndarray:
    """Cluster index of each value of the ascending array w, or of each row
    of a stack of them with one tol per row: a new cluster starts at every
    adjacent gap above tol."""
    split = w[..., 1:] - w[..., :-1] > np.asarray(tol)[..., None]
    labels = np.zeros(w.shape, dtype=np.intp)
    np.cumsum(split, axis=-1, out=labels[..., 1:])
    return labels


def _kernel_mask(w: np.ndarray, tol):
    """The kernel of ad_A in the eigenframe of A, for eigenvalues w of A in
    any order: True at (i, j) when w_i and w_j lie in one
    ``_cluster_labels`` cluster of the sorted w (a new cluster at each
    adjacent gap above tol).  Setting those entries of X to +0.0 gives
    (1 - P_ker ad_A) X.  Every pair within tol of each other lies in one
    cluster, so the kernel is never smaller than the pairwise cut
    |w_i - w_j| <= tol gives, and equal to it while no cluster is wider than
    tol.  Also for a stack of spectra, with one tol per row.  Returns
    (mask, sorted w, its labels); ascending w (an ``eigh`` spectrum) needs
    no sort."""
    order = None if (w[..., :-1] <= w[..., 1:]).all() else np.argsort(
        w, axis=-1, kind="stable")
    ws = w if order is None else np.take_along_axis(w, order, -1)
    ranked = _cluster_labels(ws, tol)
    labels = ranked
    if order is not None:  # back to the order of w
        labels = np.empty_like(ranked)
        np.put_along_axis(labels, order, ranked, -1)
    return labels[..., :, None] == labels[..., None, :], ws, ranked


def _near_cut(ws: np.ndarray, ranked: np.ndarray, tol) -> bool:
    """Whether the cut tol sits near the sorted spectrum ws with cluster
    labels ``ranked``: an adjacent gap between clusters in (tol, 10·tol],
    or a cluster wider than tol, which covers every pair with a gap in
    (tol, 10·tol]."""
    tol = np.asarray(tol)[..., None]
    new = np.diff(ranked, axis=-1, prepend=-1) > 0
    gaps = ws[..., 1:] - ws[..., :-1]
    # each value less the first of its cluster: the cluster's width so far
    first = np.maximum.accumulate(np.where(new, np.arange(ws.shape[-1]), 0),
                                  axis=-1)
    return bool((new[..., 1:] & (gaps <= 10 * tol)).any()
                or (ws - np.take_along_axis(ws, first, -1) > tol).any())

