import numpy as np
import pytest

from qsl import hermitize, operator_norm
from qsl.matcore import GAP_RTOL, hermitian_part, kron, require_hermitian


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
