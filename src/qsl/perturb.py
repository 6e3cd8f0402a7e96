"""Symmetry-restoring perturbations.

Given a symmetry S broken by the drift H_d, the minimal-Frobenius-norm
Hermitian perturbation with [S, H_d + ΔH] = 0 is the Moore-Penrose solution
ΔH = -ad_S⁺ ad_S(H_d).  For linear S this is an entrywise projection in the
eigenbasis of S (kill every matrix element of H_d joining distinct eigenvalue
clusters); for quadratic S it is the minimal-norm least-squares solve of the
doubled-space commutation constraint, which is Hermitian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lie import Symmetry
from .matcore import (
    ConditioningError,
    GAP_RTOL,
    TAU_RANK,
    ValidationError,
    _lift,
    check_entry_cap,
    cluster_eigenvalues,
    commutator,
    devectorize,
    frobenius_norm,
    hermitian_part,
    hermitize,
    iota,
    operator_norm,
    require_hermitian,
    require_same_dimension,
    row_vectorize,
    spectral_gap_min,  # noqa: F401  (re-exported)
)


@dataclass
class Perturbation:
    """A drift modification ΔH restoring a symmetry, with its norms."""

    matrix: np.ndarray
    symmetry: Symmetry
    op_norm: float
    frob_norm: float
    residual: float | None = None

    @classmethod
    def from_matrix(cls, symmetry: Symmetry, matrix, drift=None) -> "Perturbation":
        """Wrap a known-feasible ΔH, computing norms and, when the drift is
        supplied, the commutation residual of the restored Hamiltonian.

        The drift is checked as part of H_d + ΔH, in the one hermiticity pass
        that also hermitises that sum; the caller has usually checked H_d
        itself already."""
        dH = require_hermitian(matrix)
        residual = None
        if drift is not None:
            H_d, dH = require_same_dimension(drift, dH)
            H = hermitian_part(H_d + dH)
            if symmetry.kind == "quadratic":
                H = iota(H)
            # [S, H] = P - P† with P = S H for the hermitised operands: one
            # product, in real arithmetic when both are exactly real
            P = symmetry.hermitian @ H
            residual = float(np.linalg.norm(P - P.conj().T))
        return cls(dH, symmetry, operator_norm(dH), frobenius_norm(dH), residual)


def _restore_linear(S: Symmetry, H_d: np.ndarray, tol: float) -> Perturbation:
    w, V = np.linalg.eigh(S.matrix)
    cluster_tol = GAP_RTOL * float(np.max(np.abs(w)))
    clusters = cluster_eigenvalues(w, cluster_tol)
    labels = np.repeat(np.arange(len(clusters)), [c.size for c in clusters])
    Hd_eig = V.conj().T @ H_d @ V
    off_cluster = labels[:, None] != labels[None, :]
    dH_eig = np.where(off_cluster, -Hd_eig, 0.0)
    dH = hermitize(V @ dH_eig @ V.conj().T)
    residual = frobenius_norm(commutator(S.matrix, H_d + dH))
    limit = tol * max(1.0, S.frobenius * frobenius_norm(H_d))
    if residual > limit:
        raise ConditioningError(
            "restored drift still fails to commute with the symmetry",
            {"residual": residual, "limit": limit},
        )
    return Perturbation(dH, S, operator_norm(dH), frobenius_norm(dH), residual)


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


def _restore_quadratic(S: Symmetry, H_d: np.ndarray, tol: float) -> Perturbation:
    d = H_d.shape[0]
    # K holds d^4 x d^2 complex entries, the unit-matrix lifts d^6 real ones
    check_entry_cap(2 * d**6)

    def constraint(Y: np.ndarray) -> np.ndarray:
        return commutator(S.matrix, _lift(Y))

    # K(Y†) = -K(Y)†, so the minimal-norm solution is Hermitian and hermitize
    # only removes rounding.
    K = _quadratic_constraint(S.matrix, d)
    y, *_ = np.linalg.lstsq(K, -row_vectorize(constraint(H_d)), rcond=TAU_RANK)
    dH = hermitize(devectorize(y))
    residual = frobenius_norm(constraint(H_d + dH))
    limit = tol * max(1.0, S.frobenius * frobenius_norm(H_d))
    if residual > limit:
        raise ConditioningError(
            "quadratic restoration left a commutation residual",
            {"residual": residual, "limit": limit},
        )
    return Perturbation(dH, S, operator_norm(dH), frobenius_norm(dH), residual)


def restore_symmetry(S: Symmetry, H_d, tol: float = TAU_RANK) -> Perturbation:
    """Minimal-Frobenius-norm Hermitian ΔH with the symmetry restored.

    Linear kind: [S, H_d + ΔH] = 0, solved in the eigenbasis of S.  Quadratic
    kind: [S, (H_d+ΔH)⊗1 + 1⊗(H_d+ΔH)] = 0, the minimal-norm least-squares
    solution over complex vec(ΔH), which is Hermitian.  Drift directions
    already compatible with S are left untouched, so ΔH is generally much
    smaller than -H_d.
    """
    H = require_hermitian(H_d)
    if S.kind == "linear":
        if H.shape[0] != S.dimension:
            raise ValidationError("drift dimension does not match symmetry")
        return _restore_linear(S, H, tol)
    if H.shape[0] != S.base_dimension:
        raise ValidationError("drift dimension does not match quadratic symmetry")
    return _restore_quadratic(S, H, tol)


def perturbation_norm_bound(S: Symmetry, H_d) -> float:
    """Analytic bound ||ΔH||_inf <= ||[S, H_d]||_F / sigma_min(S).

    Linear kind only; always at least the operator norm of the perturbation
    returned by restore_symmetry.
    """
    if S.kind != "linear":
        raise ValidationError("analytic perturbation bound applies to linear "
                              "symmetries only")
    H = require_hermitian(H_d)
    return frobenius_norm(commutator(S.matrix, H)) / S.sigma_min
