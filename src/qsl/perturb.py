"""Symmetry-restoring perturbations.

Given a symmetry S broken by the drift H_d, the minimal-Frobenius-norm
Hermitian perturbation with [S, H_d + ΔH] = 0 is the Moore-Penrose solution
ΔH = -ad_S⁺ ad_S(H_d).  For linear S this is an entrywise projection in the
eigenbasis of S (kill every matrix element of H_d joining distinct eigenvalue
clusters); for quadratic S it is the projection of vec(H_d) onto the row
space of the doubled-space commutation constraint K, read from a QR of K
and an SVD of its R factor, which is lstsq's minimal-norm solution and is
Hermitian.  Both take a stack of symmetries for one drift and run in real
arithmetic when S and H_d are real.

S is the one Hermitian array of a ``Symmetry`` (or a stack of them).  One
cluster rule serves this projection and the exact kernel-complement
numerator of ``bounds`` (the same projection, ``matcore._kernel_mask``, in
the eigenframe of H_s): the ascending eigenvalues start a new cluster at
each adjacent gap above GAP_RTOL·max|eigenvalue|.  One residual rule
serves the drift and the restored drift: ||[S, H]||_F = ||P - P†||_F with
P = S H for the hermitised H, H lifted to H⊗1 + 1⊗H for quadratic S, one
product in place of two (a row gather of H when S is a permutation
matrix, ``Symmetry._permutation``), and P - P† never formed: its norm is
summed over P's 64 x 64 tile pairs (``matcore._antihermitian_norm``).
``_restore_rows`` restores a stack of symmetries for one drift, linear ones
in one stacked eigendecomposition, quadratic ones in one stacked QR and one
stacked SVD, and applies the acceptance rule to each;
``restore_symmetry`` passes it a stack of one and is the one place where a
restored ΔH is wrapped.  It is the one source of ||ΔH||_inf for a bound
given only the drift.  A ``Perturbation`` measures its own norms from its
matrix, which must be Hermitian and act on the symmetry's base space; no
caller sets ||ΔH||_inf.  A recorded residual keeps the drift it was
measured for.

One acceptance rule, ``_keeps_symmetry``, decides whether a drift keeps
S: ||[S, H]||_F <= ``_commuting_limit`` = TAU_RANK·max(1, ||S||_F ||H_d||_F)
with ||H_d||_F of the drift as given; ``bounds.bound`` applies it to a whole
basis before its search.  A restored drift must pass it; a drift that passes it
unchanged gets an all-zero ΔH from ``restore_symmetry``, so every bound
refuses it (``bounds._speed_limit`` rejects ||ΔH||_inf = 0 with one text)
rather than divide rounding noise by rounding noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lie import Symmetry
from .matcore import (
    ConditioningError,
    DimensionError,
    GAP_RTOL,
    TAU_RANK,
    ValidationError,
    _adjoint,
    _antihermitian_norm,
    _diagonal_norm,
    _hermitised,
    _kernel_mask,
    _lift,
    _max_abs_eigenvalue,
    _times_symmetry,
    check_entry_cap,
    frobenius_norm,
    hermitian_part,
    require_hermitian,
    require_same_dimension,
    require_square,
)


def _commutator_norm(S: np.ndarray, H: np.ndarray, kind: str, perm=None,
                     lifted=None):
    """||[S, H]||_F for exactly Hermitian S and H (H lifted for quadratic
    S, or ``lifted``, its lift when already formed) as ||P - P†||_F with
    P = S H: one product, in real arithmetic when both operands are exactly
    real, and ``_antihermitian_norm``'s tile pairs of P.  Either may be a
    stack, one value per matrix.  ``perm`` is a single S's
    ``Symmetry._permutation``: when it is set, P is the row gather H[σ],
    with the product's values and no d³ work."""
    if kind == "quadratic":
        H = _lift(H) if lifted is None else lifted
    return _antihermitian_norm(_times_symmetry(S, H, perm))


@dataclass
class Perturbation:
    """A drift modification ΔH restoring a symmetry, with its norms.

    ``op_norm`` (||ΔH||_inf) and ``frob_norm`` are measured from ``matrix``
    at construction and cannot be set: ||ΔH||_inf is ``operator_norm``'s
    value, read from the diagonal of a diagonal ΔH, else from the Hermitian
    part formed by the one hermiticity pass that also checks ΔH; no other
    ΔH is copied.  ΔH must act on the symmetry's base space (d for a
    quadratic S on d² dimensions).
    ``residual`` is ||[S, H_d + ΔH]||_F when the drift is known; the drift
    it was measured for is kept with it, and a bound given any other drift
    forms the residual again.
    """

    matrix: np.ndarray
    symmetry: Symmetry
    residual: float | None = None
    op_norm: float = field(init=False)
    frob_norm: float = field(init=False)
    _drift: np.ndarray | None = field(init=False, default=None, repr=False,
                                      compare=False)

    def __post_init__(self):
        self.matrix = require_square(self.matrix)
        norm = _diagonal_norm(self.matrix)  # operator_norm's value, or None
        # one hermiticity pass; only a non-diagonal ΔH needs its result
        check = hermitian_part if norm is None else require_hermitian
        H = check(self.matrix)
        if self.matrix.shape[0] != self.symmetry.base_dimension:
            raise DimensionError("perturbation dimension does not match "
                                 f"{self.symmetry.kind} symmetry")
        self.op_norm = float(_max_abs_eigenvalue(H)) if norm is None else norm
        self.frob_norm = frobenius_norm(self.matrix)

    @classmethod
    def from_matrix(cls, symmetry: Symmetry, matrix, drift=None) -> "Perturbation":
        """Wrap a known-feasible ΔH with, when the drift is supplied, the
        commutation residual of the restored Hamiltonian.

        The drift is checked as part of H_d + ΔH, in the one hermiticity pass
        that also hermitises that sum; the caller has usually checked H_d
        itself already.  For a symmetry whose S is a permutation matrix
        (the Rydberg swap) the residual's product S·(H_d + ΔH) is a row
        gather, ``_commutator_norm``'s, with the product's value."""
        pert = cls(matrix, symmetry)
        if drift is not None:
            H_d, dH = require_same_dimension(drift, pert.matrix)
            residual = float(_commutator_norm(
                symmetry.matrix, hermitian_part(H_d + dH), symmetry.kind,
                symmetry._permutation))
            if not np.isfinite(residual):  # as ``_keeps_symmetry`` refuses
                raise ValidationError("||[S, H_d + ΔH]||_F is not finite: "
                                      "whether the drift keeps S cannot be "
                                      "decided")
            pert._measured(residual, H_d)
        return pert

    def _measured_for(self, drift) -> bool:
        """Whether ``residual`` was measured for this drift."""
        return self.residual is not None and self._drift is not None and (
            self._drift is drift or np.array_equal(self._drift, drift))

    def _measured(self, residual: float, drift: np.ndarray) -> "Perturbation":
        self.residual, self._drift = residual, drift
        return self


def _restore_linear(S: np.ndarray, H_d: np.ndarray) -> np.ndarray:
    """ΔH for each symmetry of a stack (or for one): -H_d in each
    eigenframe of S with the kernel entries dropped."""
    w, V = np.linalg.eigh(S)
    Vh = _adjoint(V)
    # negated before the kernel is zeroed, so its entries are +0.0
    dH_eig = -(Vh @ H_d @ V)
    cut = GAP_RTOL * np.max(np.abs(w), axis=-1)
    dH_eig[..., _kernel_mask(w, cut)[0]] = 0.0
    return _hermitised(V @ dH_eig @ Vh)


def _unit_lifts(d: int) -> np.ndarray:
    """The lifts E⊗1 + 1⊗E of all d² unit matrices E, one 0/1/2 array of
    shape (d², d², d²)."""
    # K holds d^4 x d^2 complex entries, the unit-matrix lifts d^6 real ones
    check_entry_cap(2 * d**6)
    return _lift(np.eye(d * d).reshape(d * d, d, d))


def _quadratic_constraint(S: np.ndarray, d: int, lifts=None) -> np.ndarray:
    """K with K vec(Y) = vec([S, Y⊗1 + 1⊗Y]) for complex d×d Y, for one S
    or for each S of a stack.

    Column e is the constraint of the e-th unit matrix, whose lift is
    ``lifts[e]`` (by default built here); one batched product gives every
    column.  Each entry of S·lift is a sum of at most two exact products,
    so K equals the column-by-column build bit for bit.
    """
    lifts = _unit_lifts(d) if lifts is None else lifts
    S = S[..., None, :, :]
    C = S @ lifts - lifts @ S
    return C.reshape(C.shape[:-2] + (-1,)).swapaxes(-1, -2)


def _quadratic_setup(Hh: np.ndarray):
    """What every quadratic restoration of one drift shares: the unit-matrix
    lifts, and the lift of the hermitised drift Hh that the acceptance rule
    reads."""
    return _unit_lifts(Hh.shape[0]), _lift(Hh)


def _restore_quadratic(S: np.ndarray, H_d: np.ndarray,
                       setup=None) -> np.ndarray:
    """ΔH for each quadratic symmetry matrix of a stack S (or for one),
    with the unit-matrix lifts of the drift's ``_quadratic_setup`` (built
    here when not given).

    ΔH = -V_r V_r† vec(H_d), minus the drift's projection onto the row
    space of K: lstsq's minimal-norm solution of K vec(ΔH) = -K vec(H_d),
    with no right-hand side formed and no division by a singular value.
    V_r are the right singular vectors of K with singular value above
    TAU_RANK·s_max (lstsq's rcond rule), read as ``lie._null_vectors``
    reads them: one stacked QR of K, then one stacked SVD of its square R
    factors.  K(Y†) = -K(Y)†, so the projection is Hermitian and
    hermitising only removes rounding.  Every step is real when S and H_d
    are, and a row of a stack equals that row restored alone.
    """
    d = H_d.shape[0]
    lifts = _unit_lifts(d) if setup is None else setup[0]
    R = np.linalg.qr(_quadratic_constraint(S, d, lifts), mode="r")
    _, s, Vh = np.linalg.svd(R)
    kept = s > TAU_RANK * s[..., :1]
    coords = np.where(kept, (Vh @ H_d.reshape(-1, 1))[..., 0], 0.0)
    y = -(_adjoint(Vh) @ coords[..., None])
    return _hermitised(y.reshape(S.shape[:-2] + (d, d)))


def _commuting_limit(s_frob, h_frob):
    """``_keeps_symmetry``'s limit on ||[S, H]||_F, given ||S||_F and
    ||H||_F (or arrays of them), whose product must be finite: past float64
    every residual would pass."""
    scale = s_frob * h_frob
    if not np.all(np.isfinite(scale)):
        raise ValidationError("||S||_F ||H_d||_F is not finite: whether the "
                              "drift keeps S cannot be decided")
    return TAU_RANK * np.maximum(1.0, scale)


def _keeps_symmetry(kind: str, S: np.ndarray, s_frob, Hh: np.ndarray,
                    h_frob: float, perm=None, lifted=None):
    """The one acceptance rule: a drift keeps S when ||[S, H]||_F is at most
    ``_commuting_limit(s_frob, h_frob)``.  S is a symmetry matrix or a stack
    of them with Frobenius norms s_frob, ``perm`` a single S's σ; Hh is the
    hermitised drift (``lifted`` its lift, when formed) and h_frob ||H_d||_F
    of the drift as given.  Returns (keeps, ||[S, Hh]||_F, limit), one of
    each per matrix."""
    limit = _commuting_limit(s_frob, h_frob)
    breaking = _commutator_norm(S, Hh, kind, perm, lifted)
    if not np.all(np.isfinite(breaking)):
        raise ValidationError("||[S, H_d]||_F is not finite: whether the "
                              "drift keeps S cannot be decided")
    return breaking <= limit, breaking, limit


def _restore_rows(kind: str, S: np.ndarray, s_frob, H: np.ndarray,
                  Hh: np.ndarray, h_frob: float, setup=None):
    """Restoration of every symmetry of a stack for one drift H.

    S and s_frob are the stack's symmetry matrices and their Frobenius
    norms; Hh is the Hermitian part of H and h_frob ||H||_F; ``setup`` is
    ``_quadratic_setup(Hh)``, whose lift of Hh the acceptance rule reads,
    built by the quadratic solve when not given.
    Returns (broken, dH, residual, limit): the rows whose drift breaks S by
    ``_keeps_symmetry``, their ΔH (one stacked solve of either kind), and
    for every row ||[S, H_d + ΔH]||_F, the breaking norm ||[S, H_d]||_F
    where the drift keeps S, and its ``_commuting_limit``.  A broken row
    whose residual exceeds its limit failed to restore.
    """
    keeps, residual, limit = _keeps_symmetry(
        kind, S, s_frob, Hh, h_frob,
        lifted=None if setup is None else setup[1])
    broken = np.flatnonzero(~keeps)
    if not broken.size:
        return broken, None, residual, limit
    if kind == "linear":
        dH = _restore_linear(S[broken], H)
    else:
        given = () if setup is None else (setup,)
        dH = _restore_quadratic(S[broken], H, *given)
    residual[broken] = _commutator_norm(S[broken], _hermitised(H + dH), kind)
    return broken, dH, residual, limit


def restore_symmetry(S: Symmetry, H_d) -> Perturbation:
    """Minimal-Frobenius-norm Hermitian ΔH with the symmetry restored.

    Linear kind: [S, H_d + ΔH] = 0, solved in the eigenbasis of S.  Quadratic
    kind: [S, (H_d+ΔH)⊗1 + 1⊗(H_d+ΔH)] = 0, the minimal-norm least-squares
    solution over complex vec(ΔH), which is Hermitian: -vec(H_d) projected
    onto the row space of the constraint, by the stacked solver the
    symmetry search uses, given a stack of one.  Drift directions
    already compatible with S are left untouched, so ΔH is generally much
    smaller than -H_d.  A drift commutes when ||[S, H]||_F is at most
    TAU_RANK·max(1, ||S||_F ||H_d||_F).  H_d passing that test keeps S: ΔH is
    all zeros, op_norm 0.0, and no bound follows.  Raises ConditioningError
    when the restored drift H_d + ΔH fails the test.  The residual is
    recorded with the drift it was measured for.
    """
    H = require_square(H_d)
    Hh = hermitian_part(H)  # require_hermitian's check; the solvers take H
    if H.shape[0] != S.base_dimension:
        raise ValidationError(f"drift dimension does not match {S.kind} symmetry")
    broken, dH, residual, limit = _restore_rows(
        S.kind, S.matrix[None], np.array([S.frobenius]), H, Hh,
        frobenius_norm(H))
    residual, limit = float(residual[0]), float(limit[0])
    if not broken.size:  # H_d keeps S: the minimal ΔH is zero
        return Perturbation(np.zeros_like(H), S)._measured(residual, H)
    if residual > limit:
        raise ConditioningError(
            "restored drift still fails to commute with the symmetry",
            {"residual": residual, "limit": limit},
        )
    return Perturbation(dH[0], S)._measured(residual, H)

