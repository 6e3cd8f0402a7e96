import numpy as np
import pytest

from qsl import hermitize, operator_norm
from qsl.matcore import (GAP_RTOL, TAU_RANK, frobenius_norm, hermitian_part,
                         iota, kron, require_hermitian)
from qsl.perturb import _keeps_symmetry


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_hermitian(rng, d, scale=1.0):
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return scale * hermitize(raw)


def random_unitary(rng, d):
    raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bound_residual(sym, dH, drift) -> float:
    """||[S, H_d + ΔH]||_F as a bound given ΔH and the drift forms it: one
    hermiticity pass over the sum and ``_keeps_symmetry``, a gather when S
    is a float64 permutation matrix."""
    return float(_keeps_symmetry(sym.kind, sym.matrix, sym.frobenius,
                                 hermitian_part(drift + dH),
                                 frobenius_norm(drift))[1])


def random_state(rng, d):
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


def kernel_projection_lower_bound(A, v) -> float:
    """Oracle: lower bound on ||(1 - P_ker A) v||² without the kernel.

    For Hermitian A: max{ <v, A v> / ||A||_inf, ||A v||² / ||A||_inf² }.
    The first branch vanishes identically for v = vec(S) with Hermitian S and
    A the adjoint map of a Hamiltonian (trace cyclicity), which is why the
    commutator-method numerator uses only the second.
    """
    A = require_hermitian(A)
    v = np.asarray(v, dtype=complex).reshape(-1)
    anorm = operator_norm(A)
    if anorm <= 0:
        return 0.0
    Av = A @ v
    quad = float(np.real(np.vdot(v, Av))) / anorm
    grad = float(np.real(np.vdot(Av, Av))) / anorm**2
    return max(quad, grad)


def evolution_from_identity_peak(A, v, n_grid: int = 2000,
                                 horizon_factor: float = 200.0) -> float:
    """Oracle: max_t ||(e^{-itA} - 1) v||² over a dense grid.

    The grid spans [0, horizon_factor / λ] with λ the smallest nonzero
    |eigenvalue| of A; over that horizon the time average already comes
    within a few percent of 2 ||(1 - P_ker A) v||², so the grid maximum does
    too.
    """
    A = require_hermitian(A)
    v = np.asarray(v, dtype=complex).reshape(-1)
    w, V = np.linalg.eigh(A)
    c = V.conj().T @ v
    wmax = float(np.max(np.abs(w))) if w.size else 0.0
    if wmax == 0.0:
        return 0.0
    nonzero = np.abs(w) > GAP_RTOL * wmax
    if not np.any(nonzero):
        return 0.0
    lam = float(np.min(np.abs(w[nonzero])))
    ts = np.linspace(0.0, horizon_factor / lam, n_grid)
    weights = np.abs(c)**2
    vals = 2.0 * (1.0 - np.cos(np.outer(ts, w))) @ weights
    return float(np.max(vals))


def clusters_by_loop(w, tol) -> list[list[float]]:
    """Oracle: ascending values grouped one at a time, a new cluster at each
    adjacent gap above tol."""
    clusters = [[w[0]]]
    for x in w[1:]:
        if x - clusters[-1][-1] <= tol:
            clusters[-1].append(x)
        else:
            clusters.append([x])
    return clusters


def loop_labels(w, tol) -> np.ndarray:
    """Cluster index of each value, from ``clusters_by_loop``."""
    sizes = [len(c) for c in clusters_by_loop(w, tol)]
    return np.repeat(np.arange(len(sizes)), sizes)


def cluster_gap(S) -> float:
    """Oracle: σ_min(S), the smallest gap between the means of adjacent
    ``clusters_by_loop`` clusters of S's ``eigvalsh`` spectrum at
    GAP_RTOL·max|eigenvalue|; inf when the spectrum is one cluster."""
    w = np.linalg.eigvalsh(S)
    means = [np.mean(c) for c in clusters_by_loop(
        w, GAP_RTOL * float(np.max(np.abs(w))))]
    return float(np.min(np.diff(means))) if len(means) > 1 else np.inf


def analytic_cap(S, H_d) -> float:
    """Oracle: the analytic cap ||[S, H_d]||_F / σ_min(S) for a linear S,
    from numpy alone.  The minimal ΔH restoring S drops the entries of H_d
    that join distinct clusters in S's eigenframe, and those are the entries
    of [S, H_d] divided by gaps of at least about σ_min, so
    ||ΔH||_inf <= ||ΔH||_F <= the cap (to the clusters' widths)."""
    return float(np.linalg.norm(S @ H_d - H_d @ S)) / cluster_gap(S)


def pairwise_kernel_complement(H_s, S, tol=None):
    """Oracle: the exact numerator with the pairwise degeneracy cut.

    Returns (norm, near, lam, tol): the Frobenius norm of the eigenframe of
    S without every entry whose eigenvalue pair of ad_L lies within tol of
    each other (default GAP_RTOL·||H_s||_inf), whether some pairwise gap
    lies in (tol, 10·tol], the spectrum of L (pairwise sums for quadratic
    S) and the cut.  H = 0 gives (0, False, lam, 0).  The
    eigendecomposition is the library's own call on the same array, so both
    see the same eigenvalues.
    """
    w, V = np.linalg.eigh(hermitian_part(H_s))
    if S.kind == "quadratic":
        lam, W = np.add.outer(w, w).reshape(-1), kron(V, V)
    else:
        lam, W = w, V
    hnorm = float(np.max(np.abs(w)))
    if hnorm == 0.0:
        return 0.0, False, lam, 0.0
    tol = GAP_RTOL * hnorm if tol is None else tol
    frame = W.conj().T @ S.matrix @ W
    gaps = np.abs(np.subtract.outer(lam, lam))
    near = bool(np.any((gaps > tol) & (gaps <= 10 * tol)))
    return float(np.linalg.norm(frame[gaps > tol])), near, lam, tol


def span_residual(X, symmetries) -> float:
    """Oracle: distance from the Hermitian X to the real span of the
    symmetries' matrices, a least-squares fit on real coordinates (real
    parts, then imaginary parts)."""
    def coordinates(M):
        v = np.asarray(M).reshape(-1)
        return np.concatenate([v.real, v.imag])

    rhs = coordinates(require_hermitian(X))
    if not symmetries:
        return float(np.linalg.norm(rhs))
    cols = np.array([coordinates(s.matrix) for s in symmetries]).T
    coeffs, *_ = np.linalg.lstsq(cols, rhs, rcond=None)
    return float(np.linalg.norm(rhs - cols @ coeffs))


def adjoint_superoperator(H) -> np.ndarray:
    """Matrix of Y ↦ [H, Y] on row-vectorized Y: H⊗1 - 1⊗Hᵀ.

    Hermitian whenever H is, since the Hilbert-Schmidt inner product makes
    the commutator map self-adjoint.
    """
    A = require_hermitian(H)
    eye = np.eye(A.shape[0])
    return np.kron(A, eye) - np.kron(eye, A.T)


def svd_nullspace(K, tol=TAU_RANK) -> list[np.ndarray]:
    """Oracle: right nullspace vectors of K at a singular-value cut relative
    to its largest singular value.  For a tall or square K the reduced
    factorisation returns all of them; only a wide K needs the full one."""
    if K.size == 0:
        return []
    _, s, Vh = np.linalg.svd(K, full_matrices=K.shape[0] < K.shape[1])
    rank = int(np.sum(s > tol * s[0])) if s[0] > 0 else 0
    return [Vh[i].conj() for i in range(rank, Vh.shape[0])]


def svd_commutant(ops, quadratic=False, tol=TAU_RANK) -> np.ndarray:
    """Oracle: an orthonormal Hermitian basis (a stack) of the commutant of
    the controls, or of their lifts H⊗1 + 1⊗H, by the route that shares no
    step with the library's: the SVD nullspace of the stacked adjoint
    superoperators (k·n² × n²), split into Hermitian and antihermitian
    parts and orthonormalised by an SVD of their real coordinates."""
    ops = [np.asarray(require_hermitian(op), dtype=complex) for op in ops]
    if quadratic:
        ops = [iota(op) for op in ops]
    n = ops[0].shape[0]
    K = np.vstack([adjoint_superoperator(L) for L in ops])
    herms = []
    for v in svd_nullspace(K, tol):
        M = v.reshape(n, n)
        herms += [hermitize(M), (M - M.conj().T) / 2j]
    if not herms:
        return np.zeros((0, n, n), dtype=complex)
    rows = np.array([np.concatenate([H.reshape(-1).real, H.reshape(-1).imag])
                     for H in herms])
    _, s, Vh = np.linalg.svd(rows, full_matrices=False)
    rank = int(np.sum(s > tol * s[0]))
    return np.array([hermitize((r[:n * n] + 1j * r[n * n:]).reshape(n, n))
                     for r in Vh[:rank]])


def hermitian_units(n):
    """The identity over √n, then the Hermitian matrix units in row-major
    order of the upper triangle: E_aa, or (E_ab + E_ba)/√2 and then
    i(E_ba - E_ab)/√2."""
    yield np.eye(n) / np.sqrt(n)
    for a in range(n):
        for b in range(a, n):
            E = np.zeros((n, n), dtype=complex)
            if a == b:
                E[a, a] = 1
                yield E
                continue
            E[a, b] = E[b, a] = 1 / np.sqrt(2)
            yield E.copy()
            E[a, b], E[b, a] = -1j / np.sqrt(2), 1j / np.sqrt(2)
            yield E


def refined_commutant_projector(ops, tol=TAU_RANK) -> np.ndarray:
    """Oracle: the projector Π = N N† onto the linear ``svd_commutant``'s
    span, in extended precision (clongdouble).  The SVD route's null
    vectors N are refined twice by a least-squares step N -= K⁺ K N, with
    K N formed in extended precision, each step followed by a
    Newton-Schulz re-orthonormalisation N <- N (3/2 - N†N/2).  The
    canonical basis of a span can move a thousandfold more than the span
    under rounding, so only a span this accurate pins it to 1e-12."""
    ops = [np.asarray(require_hermitian(op), dtype=complex) for op in ops]
    K = np.vstack([adjoint_superoperator(L) for L in ops])
    U, s, Vh = np.linalg.svd(K, full_matrices=False)
    rank = int(np.sum(s > tol * s[0]))
    N = Vh[rank:].conj().T.astype(np.clongdouble)
    K = K.astype(np.clongdouble)
    pinv = Vh[:rank].conj().T, U[:, :rank].conj().T / s[:rank, None]
    eye = np.eye(N.shape[1])
    for _ in range(2):
        N = N - pinv[0] @ (pinv[1] @ (K @ N))
        N = N @ (1.5 * eye - 0.5 * (N.conj().T @ N))
    return N @ N.conj().T


def canonical_by_projector(basis=None, projector=None) -> np.ndarray:
    """Oracle: the span's canonical basis from its projector
    Π = Σ vec(G)vec(G)† over an orthonormal basis G, or from a given Π
    (such as ``refined_commutant_projector``'s, whose precision it keeps
    until the elements are returned as complex128): each of
    ``hermitian_units`` in turn is projected by Π and orthogonalised
    (twice) against the elements kept, one at a time, and kept when more
    than 1/(2n) of it remains."""
    if projector is None:
        G = np.asarray(basis, dtype=complex)
        p, n = G.shape[0], G.shape[-1]
        vecs = G.reshape(p, -1)
        P = vecs.T @ vecs.conj()
    else:
        P = projector
        p = int(round(float(np.trace(P).real)))
        n = int(round(np.sqrt(P.shape[0])))
    kept = []
    for X in hermitian_units(n):
        if len(kept) == p:
            break
        v = P @ X.reshape(-1)
        for _ in range(2):
            for q in kept:
                v = v - q * np.vdot(q, v)
        norm = np.linalg.norm(v)
        if norm > 0.5 / n:
            kept.append(v / norm)
    return np.array([hermitize(v.astype(complex).reshape(n, n))
                     for v in kept])


def relative_defects(mats, ops) -> np.ndarray:
    """‖[L, M]‖_F / (‖L‖_F ‖M‖_F) for every matrix M and operator L; 0
    for a zero L."""
    return np.array([[np.linalg.norm(L @ M - M @ L)
                      / (np.linalg.norm(L) * np.linalg.norm(M) or 1.0)
                      for L in ops] for M in mats])


def projector_distance(A, B) -> float:
    """Largest entry of Π_A - Π_B for orthonormal bases A and B (stacks) of
    two spans."""
    def projector(G):
        vecs = np.asarray(G, dtype=complex).reshape(len(G), -1)
        return vecs.T @ vecs.conj()
    return float(np.max(np.abs(projector(A) - projector(B))))
