"""Rigorous lower bounds on quantum control time from broken symmetries.

A control system H(t) = H_d + sum_j f_j(t) H_j can only implement a target
slowly if the target breaks a symmetry that the controls preserve and the
drift only weakly breaks.  This package finds such symmetries (linear
commutants and quadratic invariants of the control set), repairs the drift by
a minimal perturbation so the symmetry becomes exact, and turns the size of
that perturbation plus the target's symmetry breaking into a lower bound on
the evolution time.
"""

from __future__ import annotations

from .bounds import (
    BoundReport,
    ChebyshevFilter,
    bound,
    chebyshev_degree_for,
    chebyshev_filter_bound,
    hamiltonian_speed_limit,
    kernel_complement_norm_commutator,
    kernel_complement_norm_exact,
    optimize_symmetry,
    single_control_bound,
    uniform_speed_limit,
    unitary_speed_limit,
)
from .lie import (
    Symmetry,
    commutant_basis,
    quadratic_symmetry_basis,
    symmetry_breaking_norm,
)
from .matcore import (
    ConditioningError,
    DIMENSION_CAP,
    DimensionCapError,
    DimensionError,
    PAULI,
    QslError,
    ValidationError,
    commutator,
    frobenius_norm,
    hermitize,
    iota,
    kron,
    matrix_exponential,
    operator_norm,
    permutation_operator,
)
from .models import (
    ModelBundle,
    Problem,
    PulseSchedule,
    coupled_qubit_model,
    global_controls,
    hopping_chain_closed_form,
    hopping_chain_model,
    local_operator,
    majorana_operators,
    propagate_piecewise,
    rydberg_chain_model,
    site_sum,
    syk_model,
)
from .perturb import Perturbation, restore_symmetry

__version__ = "0.1.0"

# The command-line names resolve on first use, so that ``python -m qsl.cli``
# does not find ``qsl.cli`` already imported by the package.
_CLI_NAMES = frozenset({"PauliParseError", "ProblemFormatError", "load_problem",
                        "main", "parse_pauli_expression", "run_command"})


def __getattr__(name: str):
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BoundReport",
    "ChebyshevFilter",
    "ConditioningError",
    "DIMENSION_CAP",
    "DimensionCapError",
    "DimensionError",
    "ModelBundle",
    "PAULI",
    "PauliParseError",
    "Perturbation",
    "Problem",
    "ProblemFormatError",
    "PulseSchedule",
    "QslError",
    "Symmetry",
    "ValidationError",
    "bound",
    "chebyshev_degree_for",
    "chebyshev_filter_bound",
    "commutant_basis",
    "commutator",
    "coupled_qubit_model",
    "frobenius_norm",
    "global_controls",
    "hamiltonian_speed_limit",
    "hermitize",
    "hopping_chain_closed_form",
    "hopping_chain_model",
    "iota",
    "kernel_complement_norm_commutator",
    "kernel_complement_norm_exact",
    "kron",
    "load_problem",
    "local_operator",
    "main",
    "majorana_operators",
    "matrix_exponential",
    "operator_norm",
    "optimize_symmetry",
    "parse_pauli_expression",
    "permutation_operator",
    "propagate_piecewise",
    "quadratic_symmetry_basis",
    "restore_symmetry",
    "run_command",
    "rydberg_chain_model",
    "single_control_bound",
    "site_sum",
    "symmetry_breaking_norm",
    "syk_model",
    "uniform_speed_limit",
    "unitary_speed_limit",
]
