"""Symmetry-restoring perturbations.

Given a symmetry S broken by the drift H_d, the minimal-Frobenius-norm
Hermitian perturbation with [S, H_d + ΔH] = 0 is the Moore-Penrose solution
ΔH = -ad_S⁺ ad_S(H_d).  For linear S this is an entrywise projection in the
eigenbasis of S (kill every matrix element of H_d joining distinct eigenvalue
clusters); for quadratic S it is the minimal-norm least-squares solve of the
doubled-space commutation constraint, which is Hermitian.

One cluster rule serves this projection, the exact kernel-complement
numerator of ``bounds`` (the same projection, ``matcore._drop_kernel``, in
the eigenframe of H_s) and every spectral gap σ_min: the ascending
eigenvalues start a new cluster at each adjacent gap above
GAP_RTOL·max|eigenvalue|.  One residual rule serves the restored drift and
the analytic cap ||[S, H_d]||_F / σ_min: ||[S, H]||_F = ||P - P†||_F with
P = S_h H for the hermitised S_h and H, H lifted to H⊗1 + 1⊗H for quadratic
S, one product in place of two.  ``restore_symmetry`` is the one place where
a restored ΔH is checked against its limit and wrapped.  A ``Perturbation``
measures its own norms from its matrix, which must be Hermitian and act on
the symmetry's base space; no caller sets ||ΔH||_inf, nor σ_min, which
``Symmetry`` measures from S.

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
    _drop_kernel,
    _lift,
    check_entry_cap,
    commutator,
    devectorize,
    frobenius_norm,
    hermitian_part,
    hermitize,
    operator_norm,
    require_hermitian,
    require_same_dimension,
    require_square,
    row_vectorize,
)


def _commutator_norm(S: Symmetry, H: np.ndarray) -> float:
    """||[S_h, H]||_F for an exactly Hermitian H (lifted for quadratic S) as
    ||P - P†||_F with P = S_h H: one product, in real arithmetic when both
    operands are exactly real."""
    if S.kind == "quadratic":
        H = _lift(H)
    P = S.hermitian @ H
    return float(np.linalg.norm(P - P.conj().T))


@dataclass
class Perturbation:
    """A drift modification ΔH restoring a symmetry, with its norms.

    ``op_norm`` (||ΔH||_inf) and ``frob_norm`` are measured from ``matrix``
    at construction, after the hermiticity check, and cannot be set; ΔH must
    act on the symmetry's base space (d for a quadratic S on d² dimensions).
    ``residual`` is ||[S_h, H_d + ΔH]||_F when the drift is known.
    """

    matrix: np.ndarray
    symmetry: Symmetry
    residual: float | None = None
    op_norm: float = field(init=False)
    frob_norm: float = field(init=False)

    def __post_init__(self):
        self.matrix = require_hermitian(self.matrix)
        if self.matrix.shape[0] != self.symmetry.base_dimension:
            raise DimensionError("perturbation dimension does not match "
                                 f"{self.symmetry.kind} symmetry")
        self.op_norm = operator_norm(self.matrix)
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
            pert.residual = _commutator_norm(symmetry,
                                             hermitian_part(H_d + dH))
        return pert


def _restore_linear(S: Symmetry, H_d: np.ndarray) -> np.ndarray:
    w, V = np.linalg.eigh(S.hermitian)
    # negated before the kernel is zeroed, so its entries are +0.0
    dH_eig = -(V.conj().T @ H_d @ V)
    _drop_kernel(w, dH_eig, GAP_RTOL * float(np.max(np.abs(w))))
    return hermitize(V @ dH_eig @ V.conj().T)


def _quadratic_constraint(S: np.ndarray, d: int) -> np.ndarray:
    """K with K vec(Y) = vec([S, Y⊗1 + 1⊗Y]) for complex d×d Y.

    Column e is the constraint of the e-th unit matrix.  The lifts of all d²
    unit matrices form one 0/1/2 array of shape (d², d², d²), and one
    batched product gives every column.  Each entry of S·lift is a sum of at
    most two exact products, so K equals the column-by-column build bit for
    bit.
    """
    lifts = _lift(np.eye(d * d).reshape(d * d, d, d))
    return (S @ lifts - lifts @ S).reshape(d * d, -1).T


def _restore_quadratic(S: Symmetry, H_d: np.ndarray) -> np.ndarray:
    d = H_d.shape[0]
    # K holds d^4 x d^2 complex entries, the unit-matrix lifts d^6 real ones
    check_entry_cap(2 * d**6)
    # K(Y†) = -K(Y)†, so the minimal-norm solution is Hermitian and hermitize
    # only removes rounding.
    K = _quadratic_constraint(S.matrix, d)
    # b = K vec(H_d), formed as K's columns are: S·lift - lift·S
    b = row_vectorize(commutator(S.matrix, _lift(H_d)))
    y, *_ = np.linalg.lstsq(K, -b, rcond=TAU_RANK)
    return hermitize(devectorize(y))


def _commuting_limit(S: Symmetry, H: np.ndarray) -> float:
    """The one rule: a drift H keeps S when ||[S_h, H]||_F is at most this."""
    return TAU_RANK * max(1.0, S.frobenius * frobenius_norm(H))


def restore_symmetry(S: Symmetry, H_d) -> Perturbation:
    """Minimal-Frobenius-norm Hermitian ΔH with the symmetry restored.

    Linear kind: [S, H_d + ΔH] = 0, solved in the eigenbasis of S.  Quadratic
    kind: [S, (H_d+ΔH)⊗1 + 1⊗(H_d+ΔH)] = 0, the minimal-norm least-squares
    solution over complex vec(ΔH), which is Hermitian.  Drift directions
    already compatible with S are left untouched, so ΔH is generally much
    smaller than -H_d.  A drift commutes when ||[S_h, H]||_F is at most
    TAU_RANK·max(1, ||S||_F ||H_d||_F).  H_d passing that test keeps S: ΔH is
    all zeros, op_norm 0.0, and no bound follows.  Raises ConditioningError
    when the restored drift H_d + ΔH fails the test.
    """
    H = require_square(H_d)
    Hh = hermitian_part(H)  # require_hermitian's check; the solvers take H
    if H.shape[0] != S.base_dimension:
        raise ValidationError(f"drift dimension does not match {S.kind} symmetry")
    limit = _commuting_limit(S, H)
    breaking = _commutator_norm(S, Hh)
    if breaking <= limit:  # H_d keeps S: the minimal ΔH is zero
        return Perturbation(np.zeros_like(H), S, residual=breaking)
    solve = _restore_linear if S.kind == "linear" else _restore_quadratic
    pert = Perturbation.from_matrix(S, solve(S, H), drift=H)
    if pert.residual > limit:
        raise ConditioningError(
            "restored drift still fails to commute with the symmetry",
            {"residual": pert.residual, "limit": limit},
        )
    return pert


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
    breaking = _commutator_norm(S, H)
    keeps = breaking <= _commuting_limit(S, H)
    return 0.0 if keeps else breaking / S.sigma_min
