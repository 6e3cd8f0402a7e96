"""Speed-limit evaluation.

All four theorems are one inequality on the control time,

    T >= numerator / (c · k · ||S||_F · ||ΔH||_inf),

evaluated in one place.  c = 2 for implementing a unitary U (theorems T1),
whose numerator is the breaking norm ||[U, S]||_F (||[U⊗U, S]||_F for
quadratic S), and c = √2 for simulating a Hamiltonian H_s (theorems T2), whose
numerator is the part of S outside the commutant of H_s,
||(1 - P_ker ad_{H_s}) S||_F.  k = 2 for a quadratic symmetry (suffix a),
which acts on two copies of the system, and k = 1 for a linear one (suffix b).
Both denominators are measurements: ||S||_F of S's matrix, and ||ΔH||_inf,
from its one source, a supplied perturbation (measured from its own matrix),
or, given only the drift, the analytic cap ||[S, H_d]||_F / σ_min with σ_min
measured from S (linear S) or the restored minimal perturbation (quadratic
S).  Both routes give 0 for a drift that keeps S by restoration's acceptance
test, and ||ΔH||_inf <= 0 is the one ΔH test here: it refuses the bound with
one text, "symmetry already commutes with the drift; no time bound follows".
A supplied perturbation counts only for its own symmetry (the same object,
or the same kind and an equal matrix; ValidationError otherwise), and when
the drift is supplied too, H_d + ΔH must pass restoration's acceptance test,
read from the recorded residual when there is one (ConditioningError
otherwise).  A ΔH supplied with no drift is trusted.
``single_control_bound`` is T1b on this route, with S = H_c.

The kernel-complement numerator has three implementations with a strict
ordering (commutator <= exact, chebyshev <= exact): an exact eigenbasis
projection, a cheap commutator bound needing only ||H_s||_inf, and a
Chebyshev spectral filter whose value is certified by an explicit residual.
The exact projection is the one restoration applies to the drift,
``matcore._kernel_mask``, with one cluster rule: the sorted eigenvalues of
ad_H start a new cluster at each adjacent gap above the cut (default
GAP_RTOL·||H_s||_inf), and the kernel joins the eigenvectors of one cluster.

All three work on the hermitised inputs H = (H_s + H_s†)/2 and
S_h = (S + S†)/2 through one prepared ad_H kernel, and run in real
arithmetic when both have an exactly zero imaginary part.  Costs: exact is a
single eigendecomposition of H_s (it also yields ||H_s||_inf and the
near-degeneracy check); commutator is one product P = H S_h plus
||H_s||_inf, and ||[H, S_h]||_F = ||P - P†||_F is summed over P's 64 x 64
tile pairs with no second d x d array; chebyshev is the same
eigendecomposition plus about five products, whatever the filter degree, and
never a d² x d² superoperator; its default interval reads ||H_s||_inf from
the same kernel.  For quadratic S each product with the lift H⊗1 + 1⊗H, or
with the eigenbasis V⊗V, is a pair of d x d contractions.  A target that
the reversal of the qubit order R leaves exactly unchanged (H = R H R, an
open chain such as the Rydberg H_s) is decomposed, and its norm read, sector
by sector: two half-size eigendecompositions in place of one, about a
quarter of the work.

``optimize_symmetry`` searches the span of a symmetry basis.  The CLI scores
its candidates with ``_StackScorer``: the problem is prepared once per
request and each stack of candidates takes one stacked restoration
(``perturb._restore_rows``), one stacked ``eigvalsh`` for ||ΔH||_inf and one
stacked numerator, through the same helpers as the public functions, so that
each candidate's value equals theirs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .lie import Symmetry, _breaking_norm, symmetry_breaking_norm
from .matcore import (
    ConditioningError,
    DEFAULT_FILTER_CUT_REL,
    DimensionError,
    GAP_RTOL,
    QslError,
    ValidationError,
    _adjoint,
    _antihermitian_norm,
    _check_tolerance,
    _diagonal_norm,
    _frobenius,
    _hermitised,
    _kernel_mask,
    _max_abs_eigenvalue,
    _near_cut,
    frobenius_norm,
    hermitian_part,
    kron,
    require_square,
    require_unitary,
)
from .perturb import (
    Perturbation,
    _commuting_limit,
    _quadratic_setup,
    _restore_rows,
    perturbation_norm_bound,
    restore_symmetry,
)

DEFAULT_FILTER_EPS = 1e-2
DEFAULT_MAX_DEGREE = 20000
# the one refusal of ||ΔH||_inf = 0, raised by every bound and the CLI
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
    known, H_d + ΔH must pass restoration's acceptance test: the recorded
    residual when it was measured for this drift (the same array, or an
    equal one), else one formed here.  With no drift the ΔH is trusted, as
    ``Perturbation.from_matrix`` documents."""
    T = pert.symmetry
    if T is not S and not (T.kind == S.kind
                           and np.array_equal(T.matrix, S.matrix)):
        raise ValidationError("perturbation was built for another symmetry")
    if drift is None:
        return
    residual = (pert.residual if pert._measured_for(drift)
                else Perturbation.from_matrix(S, pert.matrix, drift).residual)
    limit = float(_commuting_limit(S.frobenius, frobenius_norm(drift)))
    if residual > limit:
        raise ConditioningError(
            "perturbed drift does not commute with the symmetry",
            {"residual": residual, "limit": limit})


def _speed_limit(numerator, S: Symmetry, perturbation, drift, method: str,
                 inter: dict, warnings: list) -> BoundReport:
    """The report of T >= numerator / (c · k · ||S||_F · ||ΔH||_inf).

    A gate (``method`` "not_applicable") is T1, with c = 2 and the breaking
    norm as numerator; a simulated Hamiltonian is T2, with c = √2 and the
    kernel-complement norm.  ``numerator`` is called after the ||S||_F check,
    so the checks keep their order.
    """
    sfrob = S.frobenius
    if sfrob <= 0:
        raise ValidationError("symmetry matrix must be nonzero")
    num = numerator()
    if perturbation is not None:
        _require_restores(perturbation, S, drift)
        dh = perturbation.op_norm
    elif drift is None:
        raise ValidationError("either a perturbation or a drift is required")
    elif S.kind == "linear":
        dh = perturbation_norm_bound(S, drift)
    else:
        perturbation = restore_symmetry(S, drift)
        dh = perturbation.op_norm
    if dh <= 0:
        raise ValidationError(_DRIFT_KEEPS_SYMMETRY)
    if perturbation is None:
        inter["sigma_min"] = S.sigma_min
        warnings.append("perturbation norm taken from the analytic "
                        "||[S, H_d]||_F / sigma_min bound")
    gate = method == "not_applicable"
    inter.update({"symmetry_frobenius": sfrob, "delta_h_op_norm": dh,
                  "breaking_norm" if gate else "kernel_complement_norm": num})
    theorem = ("T1" if gate else "T2") + ("a" if S.kind == "quadratic"
                                          else "b")
    return BoundReport(_time_bound(num, sfrob, dh, gate, S.kind), theorem,
                       method, inter, symmetry=S, perturbation=perturbation,
                       warnings=warnings)


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

    With a linear S and a drift supplied, the fully analytic variant replacing
    ||ΔH||_inf by ||[S, H_d]||_F / σ_min is also evaluated and reported; it is
    the bound when no explicit perturbation is given.
    """
    U = require_unitary(U)
    rep = _speed_limit(lambda: symmetry_breaking_norm(S, U), S, perturbation,
                       drift, "not_applicable", {}, [])
    if S.kind == "linear" and drift is not None:
        inter = rep.intermediates
        # without a perturbation the bound already used the analytic cap
        dh_analytic = (inter["delta_h_op_norm"] if rep.perturbation is None
                       else perturbation_norm_bound(S, drift))
        if dh_analytic > 0:
            inter["analytic_bound"] = inter["breaking_norm"] / (
                2.0 * inter["symmetry_frobenius"] * dh_analytic)
            inter["sigma_min"] = S.sigma_min
    return rep


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
    hermitised H_s, checked and formed in one pass (H_s itself when it is
    exactly Hermitian); ``S`` holds the symmetry's ``hermitian`` part S_h,
    or, after ``hold``, a stack of them sharing S's kind and dimension.
    Each is stored in float64 when its imaginary part is exactly zero
    (Rydberg, hopping, Pauli texts without Y), so the products and the
    eigendecomposition of H run in real arithmetic.  That decomposition,
    ``eigen``, is made once per kernel, one ``eigh`` per block of
    ``_sectors``: H itself, or the R-even and R-odd sectors of an H that
    the reversal R of the qubit order leaves exactly unchanged.  ``norm``
    reads ||H||_inf from the same blocks, with no second hermiticity pass.

    For Hermitian Y, [L, Y] = P - P† with P = L Y; for anti-Hermitian C,
    [L, C] = Q + Q† with Q = L C.  One application of ad_L therefore costs
    one product with L and one of (ad_L)² costs two; the lift is applied as
    two d x d contractions and never materialized.  Both outputs are exactly
    (anti-)Hermitian in floating point.  Every product also takes a stack.
    """

    def __init__(self, H_s, S: Symmetry):
        self.H = hermitian_part(H_s)
        if self.H.shape[0] != S.base_dimension:
            raise DimensionError("Hamiltonian dimension does not match symmetry")
        self.kind = S.kind
        self._kernels = {}
        self.hold(S.hermitian)

    def hold(self, Sh: np.ndarray) -> "_AdKernel":
        """Take S_h, or a stack of them, as ``S``."""
        dtype = np.result_type(self.H, Sh)
        self._L = self.H.astype(dtype, copy=False)
        self.S = Sh.astype(dtype, copy=False)
        return self

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

    def lift(self, Y: np.ndarray) -> np.ndarray:
        """L Y."""
        L = self._L
        if self.kind == "linear":
            return L @ Y
        d = L.shape[0]
        lead = Y.shape[:-2]
        Y3 = Y.reshape(lead + (d, d, -1))  # Y[(a, b), x] -> Y3[a, b, x]
        first = (L @ Y.reshape(lead + (d, -1))).reshape(Y3.shape)  # (H⊗1) Y
        return (first + L @ Y3).reshape(Y.shape)  # + (1⊗H) Y

    def ad(self, Y: np.ndarray) -> np.ndarray:
        """[L, Y] for Hermitian Y."""
        P = self.lift(Y)
        return P - _adjoint(P)

    def ad_anti(self, C: np.ndarray) -> np.ndarray:
        """[L, C] for anti-Hermitian C."""
        Q = self.lift(C)
        return Q + _adjoint(Q)


def _similarity(A: np.ndarray, M: np.ndarray, kind: str) -> np.ndarray:
    """T M T† with T = A (linear) or T = A⊗A (quadratic), for a matrix M or
    each matrix of a stack.

    A⊗A is never formed: like ``_AdKernel.lift`` it is applied as d x d
    contractions, one per tensor factor on each side.
    """
    if kind == "linear":
        return A @ M @ A.conj().T
    d = A.shape[0]
    lead = M.shape[:-2]
    # A on the first row factor
    M = (A @ M.reshape(lead + (d, -1))).reshape(lead + (d, d, -1))
    # A on the second; columns split as (a, b)
    M = (A @ M).reshape(lead + (-1, d, d))
    # right product with (A⊗A)† = A†⊗A†: conj(A) on a, A† on b
    return (A.conj() @ M @ A.conj().T).reshape(lead + (d * d, d * d))


def _eigenframe(kernel: _AdKernel):
    """S_h in the eigenbasis of L, from the kernel's eigendecomposition of H.

    Returns (w, V, lam, frame) with (w, V, lam) = ``kernel.eigen`` and
    frame = W† S_h W with W = V or V⊗V.  ad_L acts on the frame as the
    entrywise product with the signed gaps lam_i - lam_j.
    """
    w, V, lam = kernel.eigen
    return w, V, lam, _similarity(V.conj().T, kernel.S, kernel.kind)


def _certified_numerator(kernel: _AdKernel, X: np.ndarray) -> float:
    """sqrt(max(0, ||S_h||² - ||S_h - ad_L X||²)) for any X.

    ad_L is self-adjoint under the Hilbert-Schmidt inner product, so
    P_ker(S_h - ad_L X) = P_ker S_h and the residual is at least as large as
    the kernel component of S_h: the value is a lower bound on
    ||(1 - P_ker) S_h||_F however X was computed, because the residual is
    formed explicitly here.  Only the anti-Hermitian part of X is used; its
    Hermitian part would add an anti-Hermitian term, orthogonal to the
    Hermitian rest of the residual, and so only enlarge it.
    """
    C = X - X.conj().T
    C *= 0.5
    R = kernel.S - kernel.ad_anti(C)
    s2 = float(np.linalg.norm(kernel.S))**2
    r2 = float(np.linalg.norm(R))**2
    return float(np.sqrt(max(0.0, s2 - r2)))


def _exact_projection(kernel: _AdKernel, tol_degeneracy: float | None):
    """Kernel-complement norm from the kernel's eigendecomposition of H.

    Returns (norm, near): the eigenframe with the kernel entries of
    ``kernel.kernel`` zeroed, for the spectrum of L and the cut
    tol_degeneracy, by default
    GAP_RTOL·||H||_inf; for a stack of S_h, one norm per matrix.  A negative
    or non-finite cut is rejected: it would drop no kernel entry, or every
    one.
    """
    if tol_degeneracy is not None:
        _check_tolerance(tol_degeneracy, "degeneracy", zero_ok=True)
    w, _, _, frame = _eigenframe(kernel)
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
    and S with a single eigendecomposition of H_s, in real arithmetic when
    both are real.
    """
    return float(_exact_projection(_AdKernel(H_s, S), tol_degeneracy)[0])


def _commutator_projection(kernel: _AdKernel):
    """||[L, S_h]||_F / (2 ||H||_inf), or / (4 ||H||_inf) for the lift: the
    numerator of ``kernel_complement_norm_commutator``, one per matrix of a
    stack.  [L, S_h] = P - P† with P = L S_h is never formed: its norm is
    ``matcore._antihermitian_norm`` of P."""
    hnorm = kernel.norm
    if hnorm <= 0:
        raise ValidationError("Hamiltonian must be nonzero")
    lift = 2.0 if kernel.kind == "linear" else 4.0
    return _antihermitian_norm(kernel.lift(kernel.S)) / (lift * hnorm)


def kernel_complement_norm_commutator(H_s, S: Symmetry) -> float:
    """Commutator lower bound on the kernel-complement norm.

    ||[H_s, S]||_F / (2 ||H_s||_inf) for linear S; the quadratic version uses
    the doubled-space commutator and ||H⊗1 + 1⊗H||_inf <= 2 ||H_s||_inf.
    Never exceeds the exact projection, needs no diagonalization beyond
    ||H_s||_inf; the commutator of the hermitised inputs is one product.
    """
    return float(_commutator_projection(_AdKernel(H_s, S)))


def chebyshev_filter_bound(H_s, S: Symmetry, degree: int,
                           sigma_min_est: float, sigma_max_est: float
                           ) -> tuple[float, float]:
    """Lower bound on the kernel-complement norm from a spectral filter.

    The filter p (p(0) = 1, at most ε in size on [σ_min_est, σ_max_est]) is
    applied to A = (ad_{H_s})² acting on the hermitised symmetry S_h.  The
    estimates should bracket the nonzero spectrum of A.  p(A) S_h is written
    as a residual S_h - ad_L X: in the eigenframe of L, where ad_L multiplies
    entry (i, j) by the gap g = lam_i - lam_j, X' = ((1 - p(g²))/g) ∘ S'.
    Entries with g = 0, or where |p(g²)| > 1 or overflows (an interval that
    misses part of the spectrum), keep X' = 0 and so stay unfiltered.

    Returns (value, ε) with value = sqrt(max(0, ||S_h||² - ||S_h - ad_L X||²))
    and the residual formed explicitly in the original basis.  ad_L is
    self-adjoint, so that residual can never be smaller than the kernel
    component of S_h, whatever rounding went into X: the value is a valid
    lower bound on ||(1 - P_ker) S_h||_F for any degree and estimates, and
    once the nonzero spectrum lies in [σ_min_est, σ_max_est] it converges to
    the exact norm at rate ε².  It bounds ||(1 - P_ker) S||_F as well: ad_H
    commutes with Y ↦ Y†, so P_ker keeps the Hermitian and anti-Hermitian
    parts apart, and ||(1-P)S||² = ||(1-P)S_h||² + ||(1-P)S_a||² >=
    ||(1-P)S_h||² with S_a = S - S_h.

    Cost: one eigendecomposition of H_s, two similarity transforms and the
    residual's product with L, independent of the degree; p is evaluated in
    closed form on the squared gaps.
    """
    return _chebyshev_projection(_AdKernel(H_s, S), degree, sigma_min_est,
                                 sigma_max_est)


def _chebyshev_projection(kernel: _AdKernel, degree: int, sigma_min_est: float,
                          sigma_max_est: float) -> tuple[float, float]:
    """``chebyshev_filter_bound`` on a prepared kernel."""
    filt = ChebyshevFilter(degree, sigma_min_est, sigma_max_est)
    _, V, lam, frame = _eigenframe(kernel)
    g = np.subtract.outer(lam, lam)
    p = filt.evaluate(g * g)
    frame *= np.divide(1.0 - p, g, out=np.zeros_like(g),
                       where=(np.abs(p) <= 1.0) & (g != 0))
    X = _similarity(V, frame, kernel.kind)
    return _certified_numerator(kernel, X), filt.epsilon


def _filter_interval(hnorm: float, kind: str) -> tuple[float, float]:
    """The default Chebyshev interval for ||H_s||_inf = hnorm."""
    lift = 2.0 if kind == "linear" else 4.0
    span = lift * hnorm  # every eigenvalue gap of ad is below this
    sigma_max = span**2
    return (DEFAULT_FILTER_CUT_REL * span) ** 2, sigma_max


def _default_filter_interval(H: np.ndarray, kind: str) -> tuple[float, float]:
    """The default Chebyshev interval of the target H, checked and
    hermitised, from the norm its numerator kernel reads: the CLI completes
    a one-sided interval with it, equal to the library's default."""
    return _filter_interval(_sector_norm(hermitian_part(H)), kind)


def hamiltonian_speed_limit(H_s, S: Symmetry,
                            perturbation: Perturbation | None = None, *,
                            method: str = "exact", drift=None,
                            degree: int | None = None,
                            sigma_min_est: float | None = None,
                            sigma_max_est: float | None = None,
                            tol_degeneracy: float | None = None) -> BoundReport:
    """Speed limit for simulating the Hamiltonian H_s.

    T >= numerator / (2√2 ||S||_F ||ΔH||_inf) for quadratic S (T2a), or
    numerator / (√2 ||S||_F ||ΔH||_inf) for linear S (T2b), with the numerator
    produced by the selected kernel-projection method (exact, commutator, or
    chebyshev).  When no perturbation is supplied the drift is used: linear
    symmetries fall back to the analytic ||[S, H_d]||_F / σ_min bound on
    ||ΔH||_inf, quadratic ones get an explicit minimal perturbation.
    """
    if method not in ("exact", "commutator", "chebyshev"):
        raise ValidationError(f"unknown projection method {method!r}")
    warnings: list[str] = []
    inter: dict[str, float] = {}

    # H_s is validated and hermitised once, by the numerator's _AdKernel; a
    # defaulted Chebyshev interval reads ||H_s||_inf from that kernel too
    def numerator() -> float:
        if method == "exact":
            num, near = _exact_projection(_AdKernel(H_s, S), tol_degeneracy)
            if near:
                warnings.append("spectral gaps within 10x of the degeneracy "
                                "tolerance, or a cluster wider than it; the "
                                "exact projection is sensitive here")
            return num
        if method == "commutator":
            return kernel_complement_norm_commutator(H_s, S)
        kernel = _AdKernel(H_s, S)
        lo, hi = sigma_min_est, sigma_max_est
        if lo is None or hi is None:
            d_lo, d_hi = _filter_interval(kernel.norm, S.kind)
            lo = d_lo if lo is None else lo
            hi = d_hi if hi is None else hi
        m = (chebyshev_degree_for(DEFAULT_FILTER_EPS, lo, hi) if degree is None
             else degree)
        num, eps = _chebyshev_projection(kernel, m, lo, hi)
        inter.update({"epsilon": eps, "degree": float(m),
                      "sigma_min_est": lo, "sigma_max_est": hi})
        return num

    return _speed_limit(numerator, S, perturbation, drift, method, inter,
                        warnings)


def single_control_bound(H_d, H_c, U) -> float:
    """Speed limit when a single control is available: T1b's analytic route
    with S = H_c, for the control is then a symmetry of the reachable set:
    T >= ||[U, H_c]||_F σ_min(H_c) / (2 ||H_c||_F ||[H_c, H_d]||_F).
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

    Called with a stack of unit-Frobenius candidate matrices of ``like``'s
    kind and dimension, it returns for each the bound that
    ``restore_symmetry`` and then ``unitary_speed_limit`` (a target U) or
    ``hamiltonian_speed_limit`` (an exact or commutator numerator) give it,
    and -inf where that path raises.  It holds the drift with its Hermitian
    part and norm, the quadratic unit lifts, and U (U⊗U for quadratic S) or
    the ad_{H_s} kernel with its one eigendecomposition.  A stack takes one
    ``perturb._restore_rows``, one stacked ``eigvalsh`` for ||ΔH||_inf and
    one stacked numerator, each row in the dtype the public path gives it,
    so that every value equals the public one.
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
            self._setup = (_quadratic_setup(H) if self.kind == "quadratic"
                           else None)
            if self.gate:
                U = require_unitary(target_unitary)
                if U.shape[0] != like.base_dimension:
                    raise DimensionError("target dimension does not match "
                                         "symmetry")
                W = kron(U, U) if self.kind == "quadratic" else U
                self._numerator = lambda M, Sh: _breaking_norm(W, M)
            elif method == "exact":
                kernel = _AdKernel(target_hamiltonian, like)
                self._numerator = lambda M, Sh: _exact_projection(
                    kernel.hold(Sh), tol_degeneracy)[0]
            elif method == "commutator":
                kernel = _AdKernel(target_hamiltonian, like)
                self._numerator = lambda M, Sh: _commutator_projection(
                    kernel.hold(Sh))
            else:
                raise ValueError(f"no stacked numerator for {method!r}")
        except QslError:
            pass

    def __call__(self, M: np.ndarray) -> np.ndarray:
        values = np.full(len(M), -np.inf)
        if self._numerator is None:
            return values
        exact = (M == _adjoint(M)).all(axis=(-2, -1))
        Sh = M if exact.all() else np.where(exact[:, None, None], M,
                                            _hermitised(M))
        try:
            for rows, Sh_rows in _real_groups(Sh):
                values[rows] = self._score(M[rows], Sh_rows)
        except QslError:  # raised for one row, raised for every row
            values[:] = -np.inf
        return values

    def _score(self, M: np.ndarray, Sh: np.ndarray) -> np.ndarray:
        sfrob = _frobenius(M)
        broken, dH, residual, limit = _restore_rows(
            self.kind, M, Sh, sfrob, *self._drift, self._setup)
        values = np.full(len(M), -np.inf)
        restored = residual[broken] <= limit[broken]
        rows = broken[restored]
        if rows.size:
            dh = np.empty(rows.size)
            for part, dH_part in _real_groups(dH[restored]):
                dh[part] = _max_abs_eigenvalue(dH_part)
            num = self._numerator(M[rows], Sh[rows])
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
    exactly once per candidate.  The CLI passes a private ``_StackScorer``
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

    if best is None:  # no candidate scored
        best = basis[0].matrix / np.linalg.norm(basis[0].matrix)
    return Symmetry(kind, best, note="optimized")
