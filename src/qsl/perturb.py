"""Symmetry-restoring perturbations.

Given a symmetry S broken by the drift H_d, the minimal-Frobenius-norm
Hermitian perturbation with [S, H_d + ΔH] = 0 is the Moore-Penrose solution
ΔH = -ad_S⁺ ad_S(H_d).  For linear S this is an entrywise projection in the
eigenbasis of S (kill every matrix element of H_d joining distinct eigenvalue
clusters); for quadratic S it is the minimal-norm least-squares solve of the
doubled-space commutation constraint, which is Hermitian.

One cluster rule serves this projection, the exact kernel-complement
numerator of ``bounds`` (the same projection, ``matcore._kernel_mask``, in
the eigenframe of H_s) and every spectral gap σ_min: the ascending
eigenvalues start a new cluster at each adjacent gap above
GAP_RTOL·max|eigenvalue|.  One residual rule serves the restored drift and
the analytic cap ||[S, H_d]||_F / σ_min: ||[S, H]||_F = ||P - P†||_F with
P = S_h H for the hermitised S_h and H, H lifted to H⊗1 + 1⊗H for quadratic
S, one product in place of two, and P - P† never formed: its norm is summed
over P's 64 x 64 tile pairs (``matcore._antihermitian_norm``).
``_restore_rows`` restores a stack of symmetries for one drift, linear ones
in one stacked eigendecomposition, and applies the acceptance rule to each;
``restore_symmetry`` passes it a stack of one and is the one place where a
restored ΔH is wrapped.  A
``Perturbation`` measures its own norms from its matrix, which must be
Hermitian and act on the symmetry's base space; no caller sets ||ΔH||_inf,
nor σ_min, which ``Symmetry`` measures from S.  A recorded residual keeps
the drift it was measured for.

One acceptance rule, ``_commuting_limit``, decides whether a drift keeps S:
||[S_h, H]||_F <= TAU_RANK·max(1, ||S||_F ||H||_F).  A restored drift must
pass it; a drift that passes it unchanged gets an all-zero ΔH from
``restore_symmetry`` and 0.0 from the analytic cap, so every bound refuses
it (``bounds._speed_limit`` rejects ||ΔH||_inf = 0 with one text) rather
than divide rounding noise by rounding noise.
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
    check_entry_cap,
    devectorize,
    frobenius_norm,
    hermitian_part,
    require_hermitian,
    require_same_dimension,
    require_square,
    row_vectorize,
)


def _commutator_norm(Sh: np.ndarray, H: np.ndarray, kind: str):
    """||[S_h, H]||_F for an exactly Hermitian H (lifted for quadratic S) as
    ||P - P†||_F with P = S_h H: one product, in real arithmetic when both
    operands are exactly real, and ``_antihermitian_norm``'s tile pairs of
    P.  Either may be a stack, one value per matrix."""
    if kind == "quadratic":
        H = _lift(H)
    return _antihermitian_norm(Sh @ H)


@dataclass
class Perturbation:
    """A drift modification ΔH restoring a symmetry, with its norms.

    ``op_norm`` (||ΔH||_inf) and ``frob_norm`` are measured from ``matrix``
    at construction and cannot be set: ||ΔH||_inf is ``operator_norm``'s
    value, read from the diagonal of a diagonal ΔH, else from the Hermitian
    part formed by the one hermiticity pass that also checks ΔH; no other
    ΔH is copied.  ΔH must act on the symmetry's base space (d for a
    quadratic S on d² dimensions).
    ``residual`` is ||[S_h, H_d + ΔH]||_F when the drift is known; the drift
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
        itself already."""
        pert = cls(matrix, symmetry)
        if drift is not None:
            H_d, dH = require_same_dimension(drift, pert.matrix)
            residual = _commutator_norm(symmetry.hermitian,
                                        hermitian_part(H_d + dH), symmetry.kind)
            pert._measured(float(residual), H_d)
        return pert

    def _measured_for(self, drift) -> bool:
        """Whether ``residual`` was measured for this drift."""
        return self.residual is not None and self._drift is not None and (
            self._drift is drift or np.array_equal(self._drift, drift))

    def _measured(self, residual: float, drift: np.ndarray) -> "Perturbation":
        self.residual, self._drift = residual, drift
        return self


def _restore_linear(Sh: np.ndarray, H_d: np.ndarray) -> np.ndarray:
    """ΔH for each symmetry of a stack of Hermitian parts S_h (or for one):
    -H_d in each eigenframe of S_h with the kernel entries dropped."""
    w, V = np.linalg.eigh(Sh)
    Vh = _adjoint(V)
    # negated before the kernel is zeroed, so its entries are +0.0
    dH_eig = -(Vh @ H_d @ V)
    cut = GAP_RTOL * np.max(np.abs(w), axis=-1)
    dH_eig[..., _kernel_mask(w, cut)[0]] = 0.0
    return _hermitised(V @ dH_eig @ Vh)


def _unit_lifts(d: int) -> np.ndarray:
    """The lifts E⊗1 + 1⊗E of all d² unit matrices E, one 0/1/2 array of
    shape (d², d², d²)."""
    return _lift(np.eye(d * d).reshape(d * d, d, d))


def _quadratic_constraint(S: np.ndarray, d: int, lifts=None) -> np.ndarray:
    """K with K vec(Y) = vec([S, Y⊗1 + 1⊗Y]) for complex d×d Y.

    Column e is the constraint of the e-th unit matrix, whose lift is
    ``lifts[e]`` (by default built here); one batched product gives every
    column.  Each entry of S·lift is a sum of at most two exact products,
    so K equals the column-by-column build bit for bit.
    """
    lifts = _unit_lifts(d) if lifts is None else lifts
    return (S @ lifts - lifts @ S).reshape(d * d, -1).T


def _quadratic_setup(H_d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What every quadratic restoration of one drift shares: the unit-matrix
    lifts and the lift of H_d."""
    d = H_d.shape[0]
    # K holds d^4 x d^2 complex entries, the unit-matrix lifts d^6 real ones
    check_entry_cap(2 * d**6)
    return _unit_lifts(d), _lift(H_d)


def _restore_quadratic(S: np.ndarray, H_d: np.ndarray,
                       setup=None) -> np.ndarray:
    """ΔH for one quadratic symmetry matrix S, with the drift's
    ``_quadratic_setup`` (built here when not given)."""
    lifts, drift_lift = setup or _quadratic_setup(H_d)
    # K(Y†) = -K(Y)†, so the minimal-norm solution is Hermitian and
    # hermitising only removes rounding.
    K = _quadratic_constraint(S, H_d.shape[0], lifts)
    # b = K vec(H_d), formed as K's columns are: S·lift - lift·S
    b = row_vectorize(S @ drift_lift - drift_lift @ S)
    y, *_ = np.linalg.lstsq(K, -b, rcond=TAU_RANK)
    return _hermitised(devectorize(y))


def _commuting_limit(s_frob, h_frob):
    """The one rule: a drift H keeps S when ||[S_h, H]||_F is at most this,
    given ||S||_F and ||H||_F (or arrays of them)."""
    return TAU_RANK * np.maximum(1.0, s_frob * h_frob)


def _restore_rows(kind: str, Sm: np.ndarray, Sh: np.ndarray, s_frob,
                  H: np.ndarray, Hh: np.ndarray, h_frob: float, setup=None):
    """Restoration of every symmetry of a stack for one drift H.

    Sm, Sh and s_frob are the stack's matrices, Hermitian parts and
    Frobenius norms; Hh is the Hermitian part of H and h_frob ||H||_F;
    ``setup`` is ``_quadratic_setup(H)``, built by each quadratic solve when
    not given.  Returns (broken, dH, residual, limit): the rows whose
    drift breaks S by the acceptance rule, their ΔH (linear rows in one
    stacked solve, quadratic rows one lstsq each), and for every row
    ||[S_h, H_d + ΔH]||_F, the breaking norm ||[S_h, H_d]||_F where the
    drift keeps S, and its ``_commuting_limit``.  A broken row whose
    residual exceeds its limit failed to restore.
    """
    limit = _commuting_limit(s_frob, h_frob)
    residual = _commutator_norm(Sh, Hh, kind)
    broken = np.flatnonzero(residual > limit)
    if not broken.size:
        return broken, None, residual, limit
    if kind == "linear":
        dH = _restore_linear(Sh[broken], H)
    else:
        given = () if setup is None else (setup,)
        dH = np.array([_restore_quadratic(Sm[i], H, *given) for i in broken])
    residual[broken] = _commutator_norm(Sh[broken], _hermitised(H + dH), kind)
    return broken, dH, residual, limit


def restore_symmetry(S: Symmetry, H_d) -> Perturbation:
    """Minimal-Frobenius-norm Hermitian ΔH with the symmetry restored.

    Linear kind: [S, H_d + ΔH] = 0, solved in the eigenbasis of S.  Quadratic
    kind: [S, (H_d+ΔH)⊗1 + 1⊗(H_d+ΔH)] = 0, the minimal-norm least-squares
    solution over complex vec(ΔH), which is Hermitian.  Drift directions
    already compatible with S are left untouched, so ΔH is generally much
    smaller than -H_d.  A drift commutes when ||[S_h, H]||_F is at most
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
        S.kind, S.matrix[None], S.hermitian[None], np.array([S.frobenius]),
        H, Hh, frobenius_norm(H))
    residual, limit = float(residual[0]), float(limit[0])
    if not broken.size:  # H_d keeps S: the minimal ΔH is zero
        return Perturbation(np.zeros_like(H), S)._measured(residual, H)
    if residual > limit:
        raise ConditioningError(
            "restored drift still fails to commute with the symmetry",
            {"residual": residual, "limit": limit},
        )
    return Perturbation(dH[0], S)._measured(residual, H)


def perturbation_norm_bound(S: Symmetry, H_d) -> float:
    """Analytic bound ||ΔH||_inf <= ||[S, H_d]||_F / sigma_min(S).

    Linear kind only; always at least the operator norm of the perturbation
    returned by restore_symmetry.  0.0 for a drift that keeps S by
    restoration's test: no bound follows.
    """
    if S.kind != "linear":
        raise ValidationError("analytic perturbation bound applies to linear "
                              "symmetries only")
    H, _ = require_same_dimension(hermitian_part(H_d), S.hermitian)
    breaking = float(_commutator_norm(S.hermitian, H, S.kind))
    keeps = breaking <= _commuting_limit(S.frobenius, frobenius_norm(H))
    return 0.0 if keeps else breaking / S.sigma_min
