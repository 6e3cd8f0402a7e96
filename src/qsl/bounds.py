"""Speed-limit evaluation.

All four theorems are one inequality on the control time,

    T >= numerator / (c · k · ||S||_F · ||ΔH||_inf),

evaluated in one place.  c = 2 for implementing a unitary U (theorems T1),
whose numerator is the breaking norm ||[U, S]||_F (||[U⊗U, S]||_F for
quadratic S), and c = √2 for simulating a Hamiltonian H_s (theorems T2), whose
numerator is the part of S outside the commutant of H_s,
||(1 - P_ker ad_{H_s}) S||_F.  k = 2 for a quadratic symmetry (suffix a),
which acts on two copies of the system, and k = 1 for a linear one (suffix b).
Both denominators are measurements: ||S||_F of S's matrix, and ||ΔH||_inf
of one perturbation's own matrix: the supplied one or, given only the
drift, the minimal one ``restore_symmetry`` finds (either kind of S).  A
drift that keeps S by restoration's acceptance test gets ΔH = 0, and
||ΔH||_inf <= 0 is the one ΔH test here: it refuses the bound with one
text, "symmetry already commutes with the drift; no time bound follows".
A supplied perturbation counts only for its own symmetry (the same object,
or the same kind and an equal matrix; ValidationError otherwise), and when
the drift is supplied too, H_d + ΔH must pass restoration's acceptance test,
formed by the bound that pairs them, whatever built the ΔH
(ConditioningError otherwise).  A ΔH supplied with no drift is trusted.
``single_control_bound`` is T1b on the restored route, with S = H_c.

What T2 bounds is a reconstruction, consistent with c = √2; the source
paper's statement is not at hand.  The T2 value is invariant under
H_s -> λ H_s, so it bounds no fixed simulation time such as unit time.  In
the eigenframe of H_s, ||[e^{-i H_s t}, S]||_F² is
Σ 2 (1 - cos g_ij t) |S'_ij|² with no cross terms, whose time average is
2 ||(1 - P_ker) S||_F² (U⊗U and the lift's gaps for quadratic S).  The
supremum over t of T1 at U_t = e^{-i H_s t} is therefore at least T2: T2
is a lower bound on the time to reach the hardest point of the orbit
{e^{-i H_s t} : t >= 0}, that is, to simulate H_s for every time.

The kernel-complement numerator has three implementations with a strict
ordering (commutator <= exact, chebyshev <= exact): an exact eigenbasis
projection, a cheap commutator bound needing only ||H_s||_inf, and a
Chebyshev spectral filter, which weighs each entry of the exact projection's
eigenframe by 1 - p(g²)² in [0, 1].  Both exact and chebyshev values rest on
that computed eigenframe, with no rounding enclosure yet.  The exact
projection is the one restoration applies to the drift,
``matcore._kernel_mask``, with one cluster rule: the sorted eigenvalues of
ad_H start a new cluster at each adjacent gap above the cut (default
GAP_RTOL·||H_s||_inf), and the kernel joins the eigenvectors of one cluster.

All three work on the hermitised H = (H_s + H_s†)/2, through one prepared
ad_H kernel, and on S, the one Hermitian array of a ``Symmetry``, and run
in real arithmetic when both have an exactly zero imaginary part.  Costs:
exact is a single eigendecomposition of H_s (it also yields ||H_s||_inf
and the near-degeneracy check) and the frame (V† S) V; commutator is one
product P = H S plus ||H_s||_inf, and ||[H, S]||_F = ||P - P†||_F is
summed over P's 64 x 64 tile pairs with no second d x d array; chebyshev
costs what exact costs, whatever the filter degree, plus p on one
triangle of the squared gaps; its default interval reads ||H_s||_inf from
the same kernel.  For quadratic S each product with the lift H⊗1 + 1⊗H,
or with the eigenbasis V⊗V, is a pair of d x d contractions.  A single S
that is a float64 permutation matrix (the Rydberg swap) is found by each
product with it, which is then a gather with the product's values: V† S
and H S.  A target that
the reversal of the qubit order R leaves exactly unchanged (H = R H R, an
open chain such as the Rydberg H_s) is decomposed, and its norm read, sector
by sector: two half-size eigendecompositions in place of one, about a
quarter of the work.

``bound`` runs discover → choose → restore → bound on a ``models.Problem``
for the command line and the library alike; ``optimize_symmetry`` chooses,
scoring stacks of candidates with a ``_StackScorer``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .lie import (
    Symmetry,
    _breaking_norm,
    _verify_commutation,
    commutant_basis,
    quadratic_symmetry_basis,
    symmetry_breaking_norm,
)
from .matcore import (
    ConditioningError,
    DEFAULT_FILTER_CUT_REL,
    DimensionError,
    GAP_RTOL,
    QslError,
    ValidationError,
    _TILE,
    _adjoint,
    _check_tolerance,
    _commutator_norm,
    _diagonal_norm,
    _frobenius,
    _kernel_mask,
    _lift,
    _max_abs_eigenvalue,
    _near_cut,
    _times_symmetry,
    frobenius_norm,
    hermitian_part,
    kron,
    require_hermitian,
    require_same_dimension,
    require_square,
    require_unitary,
)
from .perturb import (
    Perturbation,
    _keeps_symmetry,
    _restore_rows,
    _unit_lifts,
    restore_symmetry,
)

DEFAULT_FILTER_EPS = 1e-2
DEFAULT_MAX_DEGREE = 20000
# the one refusal of ||ΔH||_inf = 0, raised by every bound
_DRIFT_KEEPS_SYMMETRY = ("symmetry already commutes with the drift; no time "
                         "bound follows")


@dataclass
class BoundReport:
    """A speed-limit value together with everything used to compute it."""

    bound_time: float
    theorem: str
    projection_method: str
    intermediates: dict[str, float]
    symmetry: Symmetry | None = None
    perturbation: Perturbation | None = None
    warnings: list[str] = field(default_factory=list)
    basis_size: int | None = None  # ``bound``'s basis; None if S was given


@dataclass(frozen=True)
class ChebyshevFilter:
    """Degree-m polynomial with p(0) = 1, uniformly small on [σ_min, σ_max].

    Shifted Chebyshev construction: p(x) = T_m(ℓ(x)) / T_m(x0) with the affine
    map ℓ sending [σ_min, σ_max] onto [-1, 1] and ℓ(0) = x0 > 1.  On the
    suppression interval |p| <= ε = sech(m · arccosh(x0)), and no polynomial
    of the same degree with p(0) = 1 does better.
    """

    degree: int
    sigma_min: float
    sigma_max: float

    def __post_init__(self):
        if self.degree < 1:
            raise ValidationError("filter degree must be at least 1")
        if not (0 < self.sigma_min <= self.sigma_max):
            raise ValidationError(
                "need 0 < sigma_min <= sigma_max, got "
                f"[{self.sigma_min}, {self.sigma_max}]"
            )

    @property
    def _interval(self) -> tuple[float, float]:
        # A zero-width interval makes the affine map singular; shrinking the
        # lower edge only widens the suppression band, so validity is kept.
        lo = min(self.sigma_min, self.sigma_max * (1 - 1e-6))
        return lo, self.sigma_max

    @property
    def _x0(self) -> float:
        lo, hi = self._interval
        return (hi + lo) / (hi - lo)

    @property
    def epsilon(self) -> float:
        z = self.degree * math.acosh(self._x0)
        if z > 745.0:  # sech underflows
            return 0.0
        e = math.exp(-z)
        return 2 * e / (1 + e * e)

    def evaluate(self, x):
        """p(x), stable for arguments far outside the suppression interval.

        Where |p(x)| exceeds the float range the value is ±inf, returned
        without an overflow warning.
        """
        lo, hi = self._interval
        m = self.degree
        y = (hi + lo - 2 * np.asarray(x, dtype=float)) / (hi - lo)
        th0 = math.acosh(self._x0)
        log_tm_x0 = m * th0 + math.log1p(math.exp(-2 * m * th0)) - math.log(2)
        out = np.empty_like(y)
        inside = np.abs(y) <= 1
        out[inside] = np.cos(m * np.arccos(y[inside])) * math.exp(-log_tm_x0)
        yo = y[~inside]
        th = np.arccosh(np.abs(yo))
        with np.errstate(over="ignore"):  # far outside the band p is ±inf
            mag = np.exp(m * th + np.log1p(np.exp(-2 * m * th)) - math.log(2)
                         - log_tm_x0)
        out[~inside] = np.where(yo > 0, mag, mag * (-1) ** m)
        return out if np.ndim(x) else float(out)


def chebyshev_degree_for(eps_target: float, sigma_min: float,
                         sigma_max: float) -> int:
    """Smallest degree whose filter error is below eps_target, capped at
    DEFAULT_MAX_DEGREE."""
    if not (0 < eps_target < 1):
        raise ValidationError("eps_target must lie in (0, 1)")
    probe = ChebyshevFilter(1, sigma_min, sigma_max)
    theta = math.acosh(probe._x0)
    m = int(math.ceil(math.acosh(1.0 / eps_target) / theta))
    return max(1, min(m, DEFAULT_MAX_DEGREE))


def uniform_speed_limit(perturbation) -> float:
    """T* >= 1/(4 ||ΔH||_inf): no symmetry information, just the drift change."""
    dh = perturbation.op_norm if isinstance(perturbation, Perturbation) \
        else float(perturbation)
    if not math.isfinite(dh):
        raise ValidationError(f"perturbation operator norm must be finite, "
                              f"got {dh!r}")
    if dh <= 0:
        raise ValidationError("perturbation operator norm must be positive")
    return 1.0 / (4.0 * dh)


def _require_restores(pert: Perturbation, S: Symmetry, drift) -> None:
    """A supplied ΔH must be built for S itself (the same object, or a
    symmetry of the same kind and an equal matrix) and, when the drift is
    known, H_d + ΔH must pass restoration's acceptance test,
    ``_keeps_symmetry`` on the sum's one hermiticity pass, which also
    refuses a non-Hermitian drift.  With no drift the ΔH is trusted."""
    T = pert.symmetry
    if T is not S and not (T.kind == S.kind
                           and np.array_equal(T.matrix, S.matrix)):
        raise ValidationError("perturbation was built for another symmetry")
    if drift is None:
        return
    H_d, dH = require_same_dimension(drift, pert.matrix)
    keeps, residual, limit = _keeps_symmetry(
        S.kind, S.matrix, S.frobenius, hermitian_part(H_d + dH),
        frobenius_norm(H_d))
    if not keeps:
        raise ConditioningError(
            "perturbed drift does not commute with the symmetry",
            {"residual": float(residual), "limit": float(limit)})


def _speed_limit(numerator, S: Symmetry, perturbation, drift, method: str,
                 inter: dict, warnings: list) -> BoundReport:
    """The report of T >= numerator / (c · k · ||S||_F · ||ΔH||_inf).

    A gate (``method`` "not_applicable") is T1, with c = 2 and the breaking
    norm as numerator; a simulated Hamiltonian is T2, with c = √2 and the
    kernel-complement norm.  ``numerator`` is called after the ||S||_F check,
    so the checks keep their order.  A numerator or a time that is not
    finite is refused.
    """
    sfrob = S.frobenius
    if sfrob <= 0:
        raise ValidationError("symmetry matrix must be nonzero")
    num = numerator()
    if perturbation is not None:
        _require_restores(perturbation, S, drift)
    elif drift is None:
        raise ValidationError("either a perturbation or a drift is required")
    else:
        perturbation = restore_symmetry(S, drift)
    dh = perturbation.op_norm
    if dh <= 0:
        raise ValidationError(_DRIFT_KEEPS_SYMMETRY)
    gate = method == "not_applicable"
    # a denominator that underflows to 0 gives inf here, refused below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        bound_time = float(_time_bound(np.float64(num), sfrob, dh, gate,
                                       S.kind))
    if not (math.isfinite(num) and math.isfinite(bound_time)):
        raise ValidationError(f"the bound is not finite (numerator "
                              f"{float(num)}, time {bound_time})")
    inter.update({"symmetry_frobenius": sfrob, "delta_h_op_norm": dh,
                  "breaking_norm" if gate else "kernel_complement_norm": num})
    theorem = ("T1" if gate else "T2") + ("a" if S.kind == "quadratic"
                                          else "b")
    return BoundReport(bound_time, theorem, method, inter, symmetry=S,
                       perturbation=perturbation, warnings=warnings)


def _time_bound(num, sfrob, dh, gate: bool, kind: str):
    """numerator / (c · k · ||S||_F · ||ΔH||_inf): c = 2 for a gate (T1),
    √2 for a Hamiltonian (T2); k = 2 for a quadratic S, 1 for a linear one.
    Elementwise on arrays."""
    c = 2.0 if gate else math.sqrt(2.0)
    k = 2.0 if kind == "quadratic" else 1.0
    return num / (c * k * sfrob * dh)


def unitary_speed_limit(U, S: Symmetry, perturbation: Perturbation | None = None,
                        *, drift=None) -> BoundReport:
    """Speed limit for implementing the unitary U.

    Quadratic S:  T >= ||[U⊗U, S]||_F / (4 ||S||_F ||ΔH||_inf)  (T1a).
    Linear S:     T >= ||[U, S]||_F / (2 ||S||_F ||ΔH||_inf)    (T1b).

    When no perturbation is supplied, S is restored for the drift.
    """
    U = require_unitary(U)
    return _speed_limit(lambda: symmetry_breaking_norm(S, U), S, perturbation,
                        drift, "not_applicable", {}, [])


@functools.lru_cache(maxsize=32)
def _reflection(d: int):
    """The index arrays of the chain reflection R for d = 2^n, n >= 2, made
    once per dimension and read-only: (p, r, f, q, rq).

    rev[i] is i with its n bits reversed (R reverses the qubit order); p are
    the indices below their reversal, r = rev[p], f the fixed points, and
    the columns q = (p, r, f) and rq = rev[q] = (r, p, f).
    """
    idx = np.arange(d)
    # index i in n binary axes; reversing the axes reverses its bits
    rev = idx.reshape((2,) * (d.bit_length() - 1)).T.ravel()
    p = np.flatnonzero(idx < rev)
    r, f = rev[p], np.flatnonzero(idx == rev)
    out = p, r, f, np.concatenate((p, r, f)), np.concatenate((r, p, f))
    for a in out:
        a.flags.writeable = False
    return out


def _sectors(H: np.ndarray):
    """Hermitian blocks whose spectra together are that of the exactly
    Hermitian H, each built only when it is reached, with the rows of H's
    eigenvectors it fills: (block, place).

    H itself, place None, unless d = 2^n (n >= 2) and H = R H R exactly,
    R the reversal of the qubit order (an open chain with reflection-
    invariant couplings).  Then the R-even and R-odd sectors, on the bases
    (e_p + e_r)/√2, e_f and (e_p - e_r)/√2: with A = H[p, p] and
    B = H[p, r], A + B bordered by √2·H[p, f] and H[f, f], place (p, r, f,
    +1), and A - B, place (p, r, [], -1).  Each is about half of d, so the
    two decompositions take about a quarter of the work of one.  The test
    compares rows r with rows p reversed, in O(d²) and with no d x d copy;
    H's hermiticity covers the rows f.  The formulas hold for complex H too.
    """
    d = H.shape[0]
    split = _reflection(d) if d >= 4 and d & (d - 1) == 0 else None
    if split is not None:
        p, r, f, q, rq = split
        Hq = H.take(p, 0).take(q, 1)  # rows p; columns p, r, f
        if not np.array_equal(H.take(r, 0).take(rq, 1), Hq):
            split = None
    if split is None:
        yield H, None
        return
    k = p.size
    even = np.empty((k + f.size,) * 2, dtype=H.dtype)
    np.add(Hq[:, :k], Hq[:, k:2 * k], out=even[:k, :k])
    np.multiply(Hq[:, 2 * k:], math.sqrt(2.0), out=even[:k, k:])
    even[k:, :k] = _adjoint(even[:k, k:])
    even[k:, k:] = H.take(f, 0).take(f, 1)
    yield even, (p, r, f, 1.0)
    del even
    odd = np.subtract(Hq[:, :k], Hq[:, k:2 * k])
    del Hq
    yield odd, (p, r, f[:0], -1.0)


def _sector_norm(H: np.ndarray) -> float:
    """||H||_inf of an exactly Hermitian H: ``operator_norm``'s max
    |diagonal| for a diagonal H, else the largest max |eigenvalue| of the
    blocks of ``_sectors``.  The one norm of ``_AdKernel.norm`` and of the
    default Chebyshev interval."""
    norm = _diagonal_norm(H)
    if norm is None:
        norm = max(float(_max_abs_eigenvalue(block))
                   for block, _ in _sectors(H))
    return norm


class _AdKernel:
    """ad_L on Hermitian arguments, prepared once per numerator evaluation,
    or once per request for the symmetry search's ``_StackScorer``.

    L is H (linear S) or the lift H⊗1 + 1⊗H (quadratic S), where H is the
    hermitised H_s, checked and formed in one pass: H_s itself when it is
    exactly Hermitian, float64 when its imaginary part is exactly zero
    (Rydberg, hopping, Pauli texts without Y), so the products and the
    eigendecomposition of H run in real arithmetic.  It reads S only for
    its kind and dimension: each numerator takes S, or a stack of them.
    The decomposition, ``eigen``, is made once per kernel, one ``eigh`` per
    block of ``_sectors``: H itself, or the R-even and R-odd sectors of an
    H that the reversal R of the qubit order leaves exactly unchanged.
    ``norm`` reads ||H||_inf from the same blocks, with no second
    hermiticity pass.  Every product with L is ``matcore._commutator_norm``'s
    P = L S, the lift contracted and never formed.
    """

    def __init__(self, H_s, S: Symmetry):
        self.H = hermitian_part(H_s)
        if self.H.shape[0] != S.base_dimension:
            raise DimensionError("Hamiltonian dimension does not match symmetry")
        self.kind = S.kind
        self._kernels = {}

    @functools.cached_property
    def eigen(self):
        """(w, V, lam): H = V diag(w) V† and lam the spectrum of L (w, or the
        pairwise sums w_a + w_b in the column order of V⊗V for the lift).

        One ``eigh`` per block of ``_sectors``: V is that of H itself, or
        the sectors' eigenvectors placed in their rows, w then ascending
        within each sector but not overall."""
        ws, V = [], None
        for block, place in _sectors(self.H):
            w, U = np.linalg.eigh(block)
            if place is None:  # the block is H itself
                V = U
            else:  # U's rows: the pairs (e_p ± e_r)/√2, then e_f
                if V is None:
                    V = np.zeros(self.H.shape, U.dtype)
                p, r, f, sign = place
                start = sum(map(len, ws))
                cols = slice(start, start + w.size)
                pairs = U[:p.size]
                pairs *= math.sqrt(0.5)
                V[p, cols] = pairs
                V[r, cols] = pairs if sign > 0 else -pairs
                V[f, cols] = U[p.size:]
            ws.append(w)
        w = ws[0] if len(ws) == 1 else np.concatenate(ws)
        return w, V, (w if self.kind == "linear"
                      else np.add.outer(w, w).reshape(-1))

    @functools.cached_property
    def norm(self) -> float:
        """||H||_inf, from ``_sector_norm``."""
        return _sector_norm(self.H)

    def kernel(self, tol: float):
        """(mask, near): ``matcore._kernel_mask`` of the spectrum of L at the
        cut tol, and ``matcore._near_cut``, made once per cut."""
        if tol not in self._kernels:
            mask, ws, ranked = _kernel_mask(self.eigen[2], tol)
            self._kernels[tol] = mask, _near_cut(ws, ranked, tol)
        return self._kernels[tol]


def _similarity(A: np.ndarray, M: np.ndarray, kind: str) -> np.ndarray:
    """T M T† with T = A (linear) or T = A⊗A (quadratic), for a matrix M or
    each matrix of a stack, formed as (T M) T†.

    A⊗A is never formed: like the lift (``matcore._times_lift``) it is
    applied as d x d contractions, one per tensor factor on each side.  For
    a linear M that is a permutation matrix A M is the column gather
    A[:, σ] (``matcore._times_symmetry``), with the product's values, and
    one d³ product remains.
    """
    if kind == "linear":
        return _times_symmetry(M, A, right=True) @ A.conj().T
    d = A.shape[0]
    lead = M.shape[:-2]
    # A on the first row factor
    M = (A @ M.reshape(lead + (d, -1))).reshape(lead + (d, d, -1))
    # A on the second; columns split as (a, b)
    M = (A @ M).reshape(lead + (-1, d, d))
    # right product with (A⊗A)† = A†⊗A†: conj(A) on a, A† on b
    return (A.conj() @ M @ A.conj().T).reshape(lead + (d * d, d * d))


def _eigenframe(kernel: _AdKernel, S: np.ndarray):
    """S, or each of a stack, in the eigenbasis of L, from ``kernel.eigen``.

    Returns (w, V, lam, frame) with (w, V, lam) = ``kernel.eigen`` and
    frame = (W† S) W with W = V or V⊗V.  ad_L acts on the frame as the
    entrywise product with the signed gaps lam_i - lam_j.  For a single
    linear S that is a permutation matrix (the Rydberg swap) W† S is a
    gather, and the one d³ product is that with W.
    """
    w, V, lam = kernel.eigen
    return w, V, lam, _similarity(V.conj().T, S, kernel.kind)


def _exact_projection(kernel: _AdKernel, S: np.ndarray,
                      tol_degeneracy: float | None):
    """Kernel-complement norm of S from the kernel's eigendecomposition.

    Returns (norm, near): the eigenframe of S with the kernel entries of
    ``kernel.kernel`` zeroed, for the spectrum of L and the cut
    tol_degeneracy, by default GAP_RTOL·||H||_inf; for a stack of S, one
    norm per matrix.  A negative or non-finite cut is rejected: it would
    drop no kernel entry, or every one.
    """
    if tol_degeneracy is not None:
        _check_tolerance(tol_degeneracy, "degeneracy", zero_ok=True)
    w, _, _, frame = _eigenframe(kernel, S)
    tol = (GAP_RTOL * float(np.max(np.abs(w))) if tol_degeneracy is None
           else tol_degeneracy)
    mask, near = kernel.kernel(tol)
    frame[..., mask] = 0.0
    return _frobenius(frame), near


def kernel_complement_norm_exact(H_s, S: Symmetry,
                                 tol_degeneracy: float | None = None) -> float:
    """||(1 - P_ker ad_{H_s}) S||_F by explicit diagonalization.

    The sorted eigenvalues of ad_{H_s} start a new cluster at each adjacent
    gap above tol_degeneracy (default GAP_RTOL·||H_s||_inf), the rule
    restoration uses; matrix elements of S joining one cluster form the
    kernel and are dropped, and the Frobenius norm of the rest is returned.
    Every pair within the tolerance lies in one cluster, so the value never
    exceeds that of the pairwise cut |λ_i - λ_j| <= tol and stays a lower
    bound; the two agree unless a chain of gaps within the tolerance spans
    more than it.  Quadratic S pairs with the doubled-space lift, whose
    spectrum is the pairwise eigenvalue sums.  Works on the hermitised H_s
    with a single eigendecomposition of H_s, in real arithmetic when H_s
    and S are real.
    """
    return float(_exact_projection(_AdKernel(H_s, S), S.matrix,
                                   tol_degeneracy)[0])


def _commutator_projection(kernel: _AdKernel, S: np.ndarray):
    """||[L, S]||_F / (2 ||H||_inf), or / (4 ||H||_inf) for the lift: the
    numerator of ``kernel_complement_norm_commutator``, one per matrix of a
    stack S, from ``matcore._commutator_norm``.  The value is homogeneous
    of degree 0 in H, so where the plain product leaves float64 it is
    formed again from H/||H||_inf; every other value stays the plain one."""
    hnorm = kernel.norm
    if hnorm <= 0:
        raise ValidationError("Hamiltonian must be nonzero")
    quadratic = kernel.kind == "quadratic"
    lift = 4.0 if quadratic else 2.0
    num = _commutator_norm(kernel.H, S, quadratic) / (lift * hnorm)
    if np.isfinite(num).all():
        return num
    scaled = _commutator_norm(kernel.H / hnorm, S, quadratic) / lift
    return np.where(np.isfinite(num), num, scaled)


def kernel_complement_norm_commutator(H_s, S: Symmetry) -> float:
    """Commutator lower bound on the kernel-complement norm.

    ||[H_s, S]||_F / (2 ||H_s||_inf) for linear S; the quadratic version uses
    the doubled-space commutator and ||H⊗1 + 1⊗H||_inf <= 2 ||H_s||_inf.
    Never exceeds the exact projection, needs no diagonalization beyond
    ||H_s||_inf; the commutator with the hermitised H_s is one product.
    """
    return float(_commutator_projection(_AdKernel(H_s, S), S.matrix))


def chebyshev_filter_bound(H_s, S: Symmetry, degree: int,
                           sigma_min_est: float, sigma_max_est: float
                           ) -> tuple[float, float]:
    """Lower bound on the kernel-complement norm from a spectral filter.

    The filter p (p(0) = 1, at most ε in size on [σ_min_est, σ_max_est]) is
    applied to A = (ad_{H_s})² acting on the symmetry S.  The estimates
    should bracket the nonzero spectrum of A.  In the eigenframe of L,
    where ad_L multiplies entry (i, j) by the gap g = lam_i - lam_j,
    p(A) S is the entrywise product p(g²) ∘ S', and the value is
    sqrt(Σ (1 - p(g²)²) |S'_ij|²) over the filtered entries: the exact
    numerator's sum with a weight in [0, 1] on each entry.  Entries with
    g = 0, or where |p(g²)| > 1 or overflows (an interval that misses part
    of the spectrum), stay unfiltered and weigh 0.  Term by term the value
    is thus at most the norm of the frame off the kernel: a lower bound on
    ||(1 - P_ker) S||_F for any degree and estimates, which converges to
    it at rate ε² once the nonzero spectrum lies in [σ_min_est, σ_max_est].
    Like the exact numerator's, the value rests on the computed
    eigenframe; no rounding enclosure covers either yet.

    Returns (value, ε).  Cost: that of the exact numerator, one
    eigendecomposition of H_s and one similarity transform of S,
    independent of the degree; p is evaluated in closed form on the
    squared gaps.
    """
    kernel = _AdKernel(H_s, S)
    filt = ChebyshevFilter(degree, sigma_min_est, sigma_max_est)
    return float(_chebyshev_projection(kernel, S.matrix, filt)), filt.epsilon


def _chebyshev_projection(kernel: _AdKernel, S: np.ndarray,
                          filt: ChebyshevFilter):
    """The value of ``chebyshev_filter_bound`` of S on a prepared kernel,
    one per matrix of a stack: the eigenframe with entry (i, j) scaled by
    sqrt(1 - p(g²)²) where it is filtered and zeroed elsewhere, then its
    Frobenius norm.

    The weight is evaluated on the upper triangle j >= i only, in row blocks
    of ``_TILE`` rows, and mirrored: g_ji = -g_ij exactly, so g², p and the
    weight of (j, i) are those of (i, j), at half the evaluations and with
    every temporary one block."""
    _, _, lam, frame = _eigenframe(kernel, S)
    n = lam.size
    weight = np.empty((n, n))
    for i in range(0, n, _TILE):
        g = np.subtract.outer(lam[i:i + _TILE], lam[i:])
        p = filt.evaluate(g * g)
        # an unfiltered entry takes p = 1, weight 0, so a p that is ±inf or
        # large is never squared
        p[~((np.abs(p) <= 1.0) & (g != 0))] = 1.0
        block = np.sqrt(1.0 - p * p)
        weight[i:, i:i + _TILE] = block.T
        weight[i:i + _TILE, i:] = block
    frame *= weight
    return _frobenius(frame)


def _filter_interval(hnorm: float, kind: str) -> tuple[float, float]:
    """The default Chebyshev interval for ||H_s||_inf = hnorm."""
    lift = 2.0 if kind == "linear" else 4.0
    span = lift * hnorm  # every eigenvalue gap of ad is below this
    sigma_max = span**2
    return (DEFAULT_FILTER_CUT_REL * span) ** 2, sigma_max


def _chebyshev_filter(kernel: _AdKernel, degree: int | None,
                      sigma_min_est: float | None,
                      sigma_max_est: float | None) -> ChebyshevFilter:
    """The filter of ``hamiltonian_speed_limit``'s chebyshev numerator on
    the kernel: an interval end not given is the default for
    ``kernel.norm``, and a degree not given is the one that reaches
    DEFAULT_FILTER_EPS on the interval."""
    lo, hi = sigma_min_est, sigma_max_est
    if lo is None or hi is None:
        d_lo, d_hi = _filter_interval(kernel.norm, kernel.kind)
        lo = d_lo if lo is None else lo
        hi = d_hi if hi is None else hi
    m = (chebyshev_degree_for(DEFAULT_FILTER_EPS, lo, hi) if degree is None
         else degree)
    return ChebyshevFilter(m, lo, hi)


def hamiltonian_speed_limit(H_s, S: Symmetry,
                            perturbation: Perturbation | None = None, *,
                            method: str = "exact", drift=None,
                            degree: int | None = None,
                            sigma_min_est: float | None = None,
                            sigma_max_est: float | None = None,
                            tol_degeneracy: float | None = None) -> BoundReport:
    """Speed limit for simulating the Hamiltonian H_s: a lower bound on the
    time to reach the hardest point of the orbit {e^{-i H_s t} : t >= 0}
    (a reconstructed reading, see the module docstring), not on the time
    to simulate H_s for unit time; the value is invariant under H_s -> λ H_s.

    T >= numerator / (2√2 ||S||_F ||ΔH||_inf) for quadratic S (T2a), or
    numerator / (√2 ||S||_F ||ΔH||_inf) for linear S (T2b), with the numerator
    produced by the selected kernel-projection method (exact, commutator, or
    chebyshev).  When no perturbation is supplied, S is restored for the
    drift.
    """
    if method not in ("exact", "commutator", "chebyshev"):
        raise ValidationError(f"unknown projection method {method!r}")
    warnings: list[str] = []
    inter: dict[str, float] = {}

    # H_s is validated and hermitised once, by the numerator's _AdKernel; a
    # defaulted Chebyshev interval reads ||H_s||_inf from that kernel too
    def numerator() -> float:
        if method == "exact":
            num, near = _exact_projection(_AdKernel(H_s, S), S.matrix,
                                          tol_degeneracy)
            if near:
                warnings.append("spectral gaps within 10x of the degeneracy "
                                "tolerance, or a cluster wider than it; the "
                                "exact projection is sensitive here")
            return num
        if method == "commutator":
            return kernel_complement_norm_commutator(H_s, S)
        kernel = _AdKernel(H_s, S)
        filt = _chebyshev_filter(kernel, degree, sigma_min_est, sigma_max_est)
        inter.update({"epsilon": filt.epsilon, "degree": float(filt.degree),
                      "sigma_min_est": filt.sigma_min,
                      "sigma_max_est": filt.sigma_max})
        return float(_chebyshev_projection(kernel, S.matrix, filt))

    return _speed_limit(numerator, S, perturbation, drift, method, inter,
                        warnings)


def single_control_bound(H_d, H_c, U) -> float:
    """Speed limit when a single control is available: T1b with S = H_c,
    for the control is then a symmetry of the reachable set, and ΔH the
    minimal perturbation restoring it:
    T >= ||[U, H_c]||_F / (2 ||H_c||_F ||ΔH||_inf).
    """
    return unitary_speed_limit(U, Symmetry("linear", H_c), drift=H_d).bound_time


# Refinement trials scored per stack by a ``_StackScorer``: trials after
# the first gain in a stack are wasted, and a larger stack wastes more than
# it saves in per-stack overhead.  Measured on the problem-mix searches of
# seeds 1 and 2 (2-core host): 1 trial 5.5 s, 2 4.2 s, 4 3.5 s, 6 3.3 s,
# 8 3.6 s, 24 4.4 s.
_REFINE_CHUNK = 6
# Entries of the products that assemble one stack of candidates (rows x
# basis size x dimension²), about 1 MB of complex128, so a long random
# phase or a large basis never holds more.
_STACK_ENTRIES = 2**16


def _real_groups(A: np.ndarray):
    """(rows, A[rows]) for the rows of the stack A whose imaginary part is
    exactly zero, as contiguous float64 (``hermitian_part`` hands such a
    matrix on that way), then for the other rows."""
    if not np.iscomplexobj(A):
        yield np.arange(len(A)), A
        return
    real = ~A.imag.any(axis=(-2, -1))
    for rows, part in ((np.flatnonzero(real), np.real),
                       (np.flatnonzero(~real), np.asarray)):
        if rows.size:
            yield rows, np.ascontiguousarray(part(A[rows]))


class _StackScorer:
    """The symmetry search's objective for one request, prepared once.

    Called with a stack of exactly Hermitian, unit-Frobenius candidate
    matrices of ``like``'s kind and dimension (``optimize_symmetry``'s rows
    are: real combinations of Hermitian matrices), it returns for each the
    bound that ``restore_symmetry`` and then ``unitary_speed_limit`` (a
    target U) or ``hamiltonian_speed_limit`` (the exact or commutator
    numerator, with the keywords given here) give it, and -inf where that
    path raises.  It holds the drift with its Hermitian part and norm, the
    quadratic unit lifts, and U (U⊗U for quadratic S) or the ad_{H_s}
    kernel with its one eigendecomposition.  A stack takes one
    ``perturb._restore_rows``, one stacked ``eigvalsh`` for ||ΔH||_inf and
    one stacked numerator, each row
    in the dtype a ``Symmetry`` of it has (float64 when exactly real), so
    that every value equals the public one.
    """

    def __init__(self, like: Symmetry, drift, *, target_unitary=None,
                 target_hamiltonian=None, method: str = "exact",
                 tol_degeneracy: float | None = None):
        self.kind = like.kind
        self.gate = target_unitary is not None
        self._numerator = None
        try:  # a QslError here is raised by the public path on every row
            H = require_square(drift)
            if H.shape[0] != like.base_dimension:
                raise DimensionError("drift dimension does not match symmetry")
            self._drift = H, hermitian_part(H), frobenius_norm(H)
            self._lifts = (_unit_lifts(H.shape[0])
                           if self.kind == "quadratic" else None)
            if self.gate:
                U = require_unitary(target_unitary)
                if U.shape[0] != like.base_dimension:
                    raise DimensionError("target dimension does not match "
                                         "symmetry")
                W = kron(U, U) if self.kind == "quadratic" else U
                self._numerator = lambda S: _breaking_norm(W, S)
            elif method == "exact":
                kernel = _AdKernel(target_hamiltonian, like)
                self._numerator = lambda S: _exact_projection(
                    kernel, S, tol_degeneracy)[0]
            elif method == "commutator":
                kernel = _AdKernel(target_hamiltonian, like)
                self._numerator = lambda S: _commutator_projection(kernel, S)
            else:
                raise ValueError(f"no stacked numerator for {method!r}")
        except QslError:
            pass

    def __call__(self, S: np.ndarray) -> np.ndarray:
        values = np.full(len(S), -np.inf)
        if self._numerator is None:
            return values
        try:
            for rows, S_rows in _real_groups(S):
                values[rows] = self._score(S_rows)
        except QslError:  # raised for one row, raised for every row
            values[:] = -np.inf
        return values

    def _score(self, S: np.ndarray) -> np.ndarray:
        sfrob = _frobenius(S)
        broken, dH, residual, limit = _restore_rows(
            self.kind, S, sfrob, *self._drift, self._lifts)
        values = np.full(len(S), -np.inf)
        restored = residual[broken] <= limit[broken]
        rows = broken[restored]
        if rows.size:
            dh = np.empty(rows.size)
            for part, dH_part in _real_groups(dH[restored]):
                dh[part] = _max_abs_eigenvalue(dH_part)
            num = self._numerator(S[rows])
            values[rows] = np.where(dh > 0, _time_bound(
                num, sfrob[rows], dh, self.gate, self.kind), -np.inf)
        return values


def optimize_symmetry(basis: list[Symmetry], objective, iterations: int = 200,
                      seed: int = 0) -> Symmetry:
    """Search real combinations of the basis (plus an identity shift) for the
    symmetry maximizing the objective.

    Rescaling a symmetry never changes the theorem bounds but adding identity
    does, so the search space is the unit Frobenius sphere in
    span(basis) ∪ {1}.  Every basis element is evaluated first (the result is
    never worse than the best individual element), then ``iterations`` random
    directions, then rounds of coordinate refinement around the best point.
    Deterministic given the seed; on ties the earliest candidate wins.
    Candidates on which the objective raises a QslError score -inf.

    Candidates are scored in stacks of coefficient rows: the basis rows, the
    random rows (drawn at once, the same stream as one draw per row), and
    the refinement trials, each taken from the best point so far in the
    order (k, +step), (k, -step), k = 0..n.  Only a stack's first trial
    that improves is taken, and the trials after it are formed again from
    the new best point, so the candidates and their order are those of
    scoring one at a time, and the same values choose the same symmetry.
    Each candidate's matrix is summed as a lone candidate's would be, bit
    for bit.  A plain callable is scored one row at a time and is called
    exactly once per candidate.  ``bound`` passes a private ``_StackScorer``
    instead, which takes refinement trials ``_REFINE_CHUNK`` at a time (a
    few trials after the first gain are scored in vain).
    """
    if not basis:
        raise ValidationError("symmetry basis must be nonempty")
    kind = basis[0].kind
    if any(b.kind != kind for b in basis):
        raise ValidationError("all basis elements must share one kind")
    dim = basis[0].dimension
    if any(b.dimension != dim for b in basis):
        raise DimensionError("all basis elements must share one dimension")
    mats = np.array([b.matrix for b in basis])
    eye = np.eye(dim)
    n = len(mats)
    stacked = isinstance(objective, _StackScorer)
    cap = max(1, _STACK_ENTRIES // (n * dim**2))

    best_value, best_coeffs, best = -np.inf, None, None

    def scores(rows: np.ndarray):
        """The unit-Frobenius candidates of the coefficient rows and their
        values: -inf for a degenerate candidate, a non-finite value or a
        QslError from the objective."""
        # a lone candidate was sum(c_k B_k) + c_n 1, summed from 0 in the
        # order of k: the same sums in the same order give it bit for bit
        M = np.add.reduce(rows[:, :n, None, None] * mats, axis=1,
                          initial=0.0)
        M += rows[:, n, None, None] * eye
        nrm = _frobenius(M)
        live = np.flatnonzero(nrm > 1e-12)
        M[live] /= nrm[live, None, None]
        values = np.full(len(rows), -np.inf)
        if stacked:
            values[live] = objective(M[live])
        else:
            for i in live:
                sym = Symmetry(kind, M[i], note="optimized")
                try:
                    values[i] = float(objective(sym))
                except QslError:
                    pass
        values[~np.isfinite(values)] = -np.inf
        return values, M

    def consider(rows: np.ndarray, first: bool = False) -> int:
        """Score the rows in stacks of at most ``cap`` and keep the best of
        them, or with ``first`` the first, that beats the best so far (ties
        keep the earlier candidate); its index, or -1."""
        nonlocal best_value, best_coeffs, best
        for start in range(0, len(rows), cap):
            values, M = scores(rows[start:start + cap])
            wins = np.flatnonzero(values > best_value)
            if wins.size:
                i = wins[0] if first else int(np.argmax(values))
                best_value = values[i]
                best_coeffs = rows[start + i].copy()
                best = M[i].copy()
                if first:
                    return start + i
        return -1

    consider(np.eye(n, n + 1))
    rng = np.random.default_rng(seed)
    iterations = max(0, int(iterations))
    for start in range(0, iterations, cap):
        consider(rng.standard_normal((min(cap, iterations - start), n + 1)))

    if best_coeffs is None:
        best_coeffs = np.zeros(n + 1)
        best_coeffs[0] = 1.0

    trials = [(k, sign) for k in range(n + 1) for sign in (1.0, -1.0)]
    chunk = min(_REFINE_CHUNK, cap) if stacked else 1
    step = 0.5
    for _ in range(4):
        improved = True
        while improved:
            improved = False
            t = 0
            while t < len(trials):
                batch = trials[t:t + chunk]
                rows = np.repeat(best_coeffs[None], len(batch), axis=0)
                for r, (k, sign) in enumerate(batch):
                    rows[r, k] += sign * step
                hit = consider(rows, first=True)
                improved |= hit >= 0
                t += len(batch) if hit < 0 else hit + 1
        step *= 0.25

    if best is None:  # no candidate scored: the first row's candidate,
        # formed in the stack's dtype as every candidate is
        best = mats[0] / np.linalg.norm(mats[0])
    return Symmetry(kind, best, note="optimized")


_KINDS = ("linear", "quadratic")
_METHODS = ("exact", "commutator")


def _symmetry_basis(controls, kind: str, tol) -> list[Symmetry]:
    """The basis of ``kind``, at the default cut for tol None."""
    discover = (quadratic_symmetry_basis if kind == "quadratic"
                else commutant_basis)
    return discover(controls) if tol is None else discover(controls, tol)


def _searched_symmetry(problem, basis, numerator, iterations, seed):
    """``optimize_symmetry``'s choice, scored by a ``_StackScorer``, and
    re-checked against the controls (their lifts), as a combination of the
    basis.
    A drift that keeps the whole basis is refused once, before the search."""
    H_d = problem.drift
    S = np.array([s.matrix for s in basis])
    if _keeps_symmetry(basis[0].kind, S, _frobenius(S), hermitian_part(H_d),
                       frobenius_norm(H_d))[0].all():
        raise ValidationError(_DRIFT_KEEPS_SYMMETRY)
    chosen = optimize_symmetry(basis, _StackScorer(
        basis[0], H_d, target_unitary=problem.target_unitary,
        target_hamiltonian=problem.target_hamiltonian, **numerator),
        iterations=iterations, seed=seed)
    L = np.array(problem.controls)
    _verify_commutation([chosen.matrix],
                        _lift(L) if chosen.kind == "quadratic" else L)
    return chosen


def bound(problem, *, kind: str | None = None, method: str | None = "exact",
          tol: float | None = None, optimize_symmetry: int = 0,
          seed: int = 0) -> BoundReport:
    """The speed limit of a ``models.Problem``'s one target by the command
    line's pipeline and defaults: discover → choose → restore → bound.

    Without the problem's S, the basis of ``kind`` (default quadratic for a
    unitary target, else linear) is searched with ``optimize_symmetry``
    random directions from ``seed``, and the choice re-checked against the
    controls; without its ΔH, S is restored.  ``method`` (exact or
    commutator) is a Hamiltonian target's numerator; ``tol`` discovery's
    rank cut and the exact numerator's cluster cut.  None keeps a default.
    A target Hamiltonian that is not Hermitian is refused, with an error
    naming it, before discovery; with the problem's own S (every model
    bundle) nothing is searched, and the numerator's check is the one pass
    over H_s.
    """
    method = method or "exact"
    if kind not in (None, *_KINDS) or method not in _METHODS:
        raise ValidationError(f"bound takes kind {_KINDS} and method "
                              f"{_METHODS}, got {kind!r}, {method!r}")
    U, H_s = problem.target_unitary, problem.target_hamiltonian
    if U is None and H_s is None:
        raise ValidationError("the problem has no target to bound")
    numerator = {} if U is not None else {"method": method,
                                          "tol_degeneracy": tol}
    symmetry, basis = problem.symmetry, None
    if symmetry is None:
        if H_s is not None:  # the search's scorer would refuse it unnamed
            try:
                require_hermitian(H_s)
            except ValidationError as exc:
                raise ValidationError(f"target hamiltonian: {exc}") from None
        basis = _symmetry_basis(problem.controls, kind or (
            "quadratic" if U is not None else "linear"), tol)
        symmetry = _searched_symmetry(problem, basis, numerator,
                                      optimize_symmetry, seed)
    H_d, perturbation = problem.drift, problem.perturbation
    rep = (unitary_speed_limit(U, symmetry, perturbation, drift=H_d)
           if U is not None else hamiltonian_speed_limit(
               H_s, symmetry, perturbation, drift=H_d, **numerator))
    rep.basis_size = None if basis is None else len(basis)
    return rep
