"""Command-line interface.

Problem files are JSON: a dimension (or qubit count), a drift and controls
given either as Pauli-string expressions or dense matrices, one target
(unitary or Hamiltonian), and options.  Commands emit a JSON report on stdout
and a short human summary on stderr; exit codes are 0 (success), 1
(computation failed), 2 (bad input or usage: a missing or malformed file, a
malformed Pauli expression, a NaN or infinite number, a bad option value, a
model parameter the model rejects, input too large for the dense method).

``bound`` and every ``reproduce`` model run one pipeline, discover → choose
→ restore → bound: a symmetry basis of the controls, the combination that
``optimize_symmetry`` rates best, the minimal drift change ΔH restoring it,
the speed limit.  The search rates each candidate by the last two steps
through ``bounds._StackScorer``, for every target and method, prepared
once per request and fed a stack of candidates at a time, which gives each
the value the public functions give it.  The cnot, swap and rydberg models
bring their own symmetry and ΔH.  Each command takes only the flags it
reads.  Option keys,
one schema for the problem files of every command (a flag of the same name
overrides the file; ``reproduce syk`` passes ``--iterations`` as
``optimize_symmetry``):
``kind`` linear or quadratic (default quadratic for a unitary target, else
linear); ``method`` exact or commutator (default exact: the library's
chebyshev numerator is exact's eigenframe with a weight of at most 1 on
each entry, so it costs what exact costs and is never the tighter, and the
command line does not offer it); ``tol`` in (0, 1), both the relative
nullspace cut of symmetry discovery and the absolute eigenvalue-cluster cut
of the exact numerator;
``seed``, ``optimize_symmetry`` seed and random directions of the symmetry
search, >= 0.

Run as ``qsl ...`` once installed, or as ``python -m qsl ...``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
import time
from dataclasses import dataclass

import numpy as np

from .bounds import (
    _DRIFT_KEEPS_SYMMETRY,
    _StackScorer,
    hamiltonian_speed_limit,
    optimize_symmetry,
    uniform_speed_limit,
    unitary_speed_limit,
)
from .lie import Symmetry, commutant_basis, quadratic_symmetry_basis
from .matcore import (
    DimensionCapError,
    PAULI,
    QslError,
    ValidationError,
    _frobenius,
    _qubit_product,
    _square_sum,
    check_entry_cap,
    frobenius_norm,
    hermitian_part,
    hermitize,
    operator_norm,
    permutation_operator,
    require_hermitian,
    require_unitary,
)
from .models import (
    ControlSystem,
    PulseSchedule,
    coupled_qubit_model,
    global_controls,
    hopping_chain_model,
    propagate_piecewise,
    rydberg_chain_model,
    syk_model,
)
from .perturb import _keeps_symmetry, restore_symmetry


class ProblemFormatError(QslError):
    """Problem file violates the schema."""


class PauliParseError(ProblemFormatError):
    """Pauli expression rejected; ``position`` is the character offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_NUMBER = re.compile(r"\d+(?:\.\d*)?(?:[eE][+-]?\d+)?")
_FACTOR = re.compile(r"([XYZI])(\d+)")
_MINUS = "-−"  # ASCII hyphen and the unicode minus sign


def parse_pauli_expression(text: str, n_qubits: int) -> np.ndarray:
    """Dense Hermitian matrix from a sum of weighted Pauli strings.

    Grammar: terms joined by '+'/'-'; each term is an optional signed decimal
    coefficient (default 1), an optional '*', then one or more factors like
    ``X0`` or ``Z3`` (letter in XYZI, 0-based qubit index).  Factors in one
    term act on distinct qubits and multiply as tensor components; each term
    is added as a phased permutation with O(2^n) stores.
    """
    if n_qubits < 1:
        raise ValidationError("need at least one qubit")
    dim = 2**n_qubits
    total = np.zeros((dim, dim), dtype=complex)
    pos, n = 0, len(text)

    def skip_ws():
        nonlocal pos
        while pos < n and text[pos].isspace():
            pos += 1

    first = True
    while True:
        skip_ws()
        if pos >= n:
            if first:
                raise PauliParseError("empty expression", pos)
            break
        sign = 1.0
        if text[pos] == "+":
            pos += 1
        elif text[pos] in _MINUS:
            sign = -1.0
            pos += 1
        elif not first:
            raise PauliParseError("expected '+' or '-' between terms", pos)
        first = False
        skip_ws()
        coeff = 1.0
        m = _NUMBER.match(text, pos)
        if m:
            coeff = float(m.group())
            if not math.isfinite(coeff):
                raise PauliParseError(f"coefficient {m.group()} is not finite",
                                      pos)
            pos = m.end()
            skip_ws()
            if pos < n and text[pos] == "*":
                pos += 1
        sites: dict[int, str] = {}
        while True:
            skip_ws()
            fm = _FACTOR.match(text, pos)
            if not fm:
                break
            letter, idx_text = fm.groups()
            idx = int(idx_text)
            if idx >= n_qubits:
                raise PauliParseError(
                    f"qubit index {idx} out of range for {n_qubits} qubits", pos)
            if idx in sites:
                raise PauliParseError(f"duplicate qubit index {idx} in term", pos)
            sites[idx] = letter
            pos = fm.end()
        if not sites:
            raise PauliParseError("expected a Pauli factor like X0", pos)
        _qubit_product({q: PAULI[letter] for q, letter in sites.items()
                        if letter != "I"}, n_qubits, total, sign * coeff)
    return total


@dataclass
class ProblemSpec:
    """A fully validated problem file with defaults filled in."""

    dimension: int
    qubits: int | None
    drift: np.ndarray
    controls: list[np.ndarray]
    target_unitary: np.ndarray | None
    target_hamiltonian: np.ndarray | None
    options: dict
    source: dict


def matrix_to_json(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _matrix_from_json(obj, what: str) -> np.ndarray:
    try:
        arr = np.asarray(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"{what}: matrix entries must be [re, im] "
                                 f"pairs ({exc})") from None
    if arr.ndim != 3 or arr.shape[2] != 2 or arr.shape[0] != arr.shape[1]:
        raise ProblemFormatError(f"{what}: expected a square nested array of "
                                 "[re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def _hamiltonian_from_spec(obj, qubits, dimension, what: str) -> np.ndarray:
    if not isinstance(obj, dict) or len(set(obj) & {"pauli", "matrix"}) != 1:
        raise ProblemFormatError(f"{what}: expected exactly one of "
                                 "{'pauli': ...} or {'matrix': ...}")
    if "pauli" in obj:
        if qubits is None:
            raise ProblemFormatError(f"{what}: Pauli expressions need a "
                                     "'qubits' count")
        M = parse_pauli_expression(obj["pauli"], qubits)
    else:
        M = _matrix_from_json(obj["matrix"], what)
    if M.shape[0] != dimension:
        raise ProblemFormatError(f"{what}: dimension {M.shape[0]} does not "
                                 f"match the declared {dimension}")
    M = _checked(require_hermitian, M, what)
    # the commutation tests sum squares of entries, and past float64 they
    # cannot tell whether a drift keeps a symmetry
    if not math.isfinite(float(_square_sum(M))):
        raise ProblemFormatError(f"{what}: the squares of its entries sum "
                                 "past float64")
    return M


def _checked(check, M: np.ndarray, what: str) -> np.ndarray:
    """check(M); a matrix it rejects is bad input."""
    try:
        return check(M)
    except (QslError, ValueError) as exc:
        raise ProblemFormatError(f"{what}: {exc}") from None


_METHODS = ("exact", "commutator")
_KINDS = ("linear", "quadratic")


def _int_at_least(low: int):
    return f"an integer >= {low}", lambda v: type(v) is int and v >= low


# option key -> (what a valid value is, test).  The same rules check problem
# file options and command-line flags; None always means "not set".
_OPTION_RULES = {
    "kind": ("'linear' or 'quadratic'", lambda v: v in _KINDS),
    "method": ("'exact' or 'commutator'", lambda v: v in _METHODS),
    "seed": _int_at_least(0), "optimize_symmetry": _int_at_least(0),
    # no singular value exceeds a relative rank cut of 1 or more
    "tol": ("a number in (0, 1)",
            lambda v: type(v) in (int, float) and 0 < v < 1),
}

# flag -> its type or choices, for every flag of every command; a command
# adds only the flags it reads (``_add_flags``)
_FLAGS = {"kind": _KINDS, "method": _METHODS, "seed": int,
          "optimize_symmetry": int, "tol": float, "trials": int, "N": int,
          "n_majorana": int, "iterations": int,
          **dict.fromkeys(("J", "g", "C", "a", "h", "mu"), float)}


def _checked_options(options: dict) -> dict:
    """The options unchanged, once every value that is set obeys its rule."""
    for key, value in options.items():
        what, valid = _OPTION_RULES[key]
        if value is not None and not valid(value):
            raise ProblemFormatError(f"option {key!r} must be {what}, "
                                     f"got {value!r}")
    return options


def _named_unitary(name: str, dimension: int) -> np.ndarray:
    if name == "CNOT":
        if dimension != 4:
            raise ProblemFormatError("CNOT needs dimension 4")
        return np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    if name == "SWAP":
        if dimension != 4:
            raise ProblemFormatError("SWAP (two-qubit gate) needs dimension 4")
        return permutation_operator([1, 0], [2, 2])
    raise ProblemFormatError(f"unknown named unitary {name!r}")


def load_problem(path: str) -> ProblemSpec:
    """Parse and validate a problem file; fills option defaults."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ProblemFormatError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ProblemFormatError("problem file must be a JSON object")
    unknown = set(data) - {"qubits", "dimension", "drift", "controls",
                           "target", "options"}
    if unknown:
        raise ProblemFormatError(f"unknown top-level keys: {sorted(unknown)}")

    qubits = data.get("qubits")
    dimension = data.get("dimension")
    if qubits is None and dimension is None:
        raise ProblemFormatError("need 'qubits' or 'dimension'")
    if qubits is not None:
        if type(qubits) is not int or qubits < 1:
            raise ProblemFormatError("'qubits' must be a positive integer")
        if dimension is not None and dimension != 2**qubits:
            raise ProblemFormatError("'dimension' contradicts 'qubits'")
        dimension = 2**qubits
    if not isinstance(dimension, int) or dimension < 2:
        raise ProblemFormatError("'dimension' must be an integer >= 2")
    # before any operator is built: a dimension too large to hold exits 2
    check_entry_cap(dimension * dimension)

    if "drift" not in data:
        raise ProblemFormatError("missing 'drift'")
    drift = _hamiltonian_from_spec(data["drift"], qubits, dimension, "drift")
    controls_spec = data.get("controls")
    if not isinstance(controls_spec, list) or not controls_spec:
        raise ProblemFormatError("'controls' must be a nonempty list")
    controls = [_hamiltonian_from_spec(c, qubits, dimension, f"controls[{k}]")
                for k, c in enumerate(controls_spec)]

    target = data.get("target")
    if not isinstance(target, dict) or len(set(target) & {"unitary", "hamiltonian"}) != 1:
        raise ProblemFormatError("'target' must hold exactly one of 'unitary' "
                                 "or 'hamiltonian'")
    target_u = target_h = None
    if "unitary" in target:
        u = target["unitary"]
        if not isinstance(u, dict) or len(set(u) & {"named", "matrix"}) != 1:
            raise ProblemFormatError("target unitary needs exactly one of "
                                     "'named' or 'matrix'")
        if "named" in u:
            target_u = _named_unitary(str(u["named"]), dimension)
        else:
            M = _matrix_from_json(u["matrix"], "target unitary")
            if M.shape[0] != dimension:
                raise ProblemFormatError("target unitary dimension mismatch")
            target_u = _checked(require_unitary, M, "target unitary")
    else:
        target_h = _hamiltonian_from_spec(target["hamiltonian"], qubits,
                                          dimension, "target hamiltonian")

    options = data.get("options")
    if options is None:
        options = {}
    elif not isinstance(options, dict):
        raise ProblemFormatError("'options' must be a JSON object")
    extra = set(options) - set(_OPTION_RULES)
    if extra:
        raise ProblemFormatError(f"unknown option keys: {sorted(extra)}")
    options = _checked_options({
        "method": "exact", "seed": 0, "optimize_symmetry": 0,
        **{k: v for k, v in options.items() if v is not None}})

    source = {
        "qubits": qubits, "dimension": dimension, "drift": data["drift"],
        "controls": data["controls"], "target": data["target"],
        "options": options,
    }
    return ProblemSpec(dimension, qubits, drift, controls, target_u, target_h,
                       options, source)


def _merge_options(base: dict, args) -> dict:
    """The base options overridden by every option flag that was given."""
    opts = dict(base)
    for key in _OPTION_RULES:
        value = getattr(args, key, None)
        if value is not None:
            opts[key] = value
    return _checked_options(opts)


def _bound_report_dict(rep) -> dict:
    out = {
        "bound_time": float(rep.bound_time),
        "theorem": rep.theorem,
        "projection_method": rep.projection_method,
        "intermediates": {k: float(v) for k, v in rep.intermediates.items()},
    }
    if rep.warnings:
        out["warnings"] = list(rep.warnings)
    return out


def _symmetry_basis(controls, kind: str, tol) -> list[Symmetry]:
    kwargs = {} if tol is None else {"tol": tol}
    if kind == "quadratic":
        return quadratic_symmetry_basis(controls, **kwargs)
    return commutant_basis(controls, **kwargs)


def cmd_symmetries(args) -> dict:
    spec = load_problem(args.problem)
    opts = _merge_options(spec.options, args)
    kinds = [opts["kind"]] if opts.get("kind") else list(_KINDS)
    report: dict = {"inputs": spec.source, "symmetries": {}}
    for kind in kinds:
        try:
            basis = _symmetry_basis(spec.controls, kind, opts.get("tol"))
        except DimensionCapError as exc:
            report["symmetries"][kind] = {"skipped": str(exc)}
            continue
        entry: dict = {"count": len(basis)}
        if basis and basis[0].dimension <= 16:
            entry["matrices"] = [matrix_to_json(b.matrix) for b in basis]
        report["symmetries"][kind] = entry
    return report


def _bound_pipeline(H_d, controls, target_unitary, target_hamiltonian, opts,
                    symmetry=None, perturbation=None):
    """Bound for the one target that is not None: discover → choose →
    restore → bound.  A given ``symmetry`` skips discovery and choice, a given
    ``perturbation`` restoration.  The choice scores candidates with a
    ``_StackScorer`` built here from the keywords of the bound.  Returns the
    report and the basis, if any.
    """
    unitary = target_unitary is not None
    kind = opts.get("kind") or ("quadratic" if unitary else "linear")
    # hamiltonian_speed_limit's numerator keywords
    kwargs = {} if unitary else {"method": opts.get("method") or "exact",
                                 "tol_degeneracy": opts.get("tol")}

    basis = None
    if symmetry is None:
        basis = _symmetry_basis(controls, kind, opts.get("tol"))
        # a drift that keeps every basis element keeps every combination:
        # refuse once, before the search scores each candidate by refusing it
        S = np.array([s.matrix for s in basis])
        if _keeps_symmetry(kind, S, _frobenius(S), hermitian_part(H_d),
                           frobenius_norm(H_d))[0].all():
            raise ValidationError(_DRIFT_KEEPS_SYMMETRY)
        objective = _StackScorer(basis[0], H_d, target_unitary=target_unitary,
                                 target_hamiltonian=target_hamiltonian,
                                 **kwargs)
        symmetry = optimize_symmetry(basis, objective,
                                     iterations=opts["optimize_symmetry"],
                                     seed=opts["seed"])
    if perturbation is None:
        perturbation = restore_symmetry(symmetry, H_d)
    # the bound gets the drift: with a linear symmetry the unitary limit
    # then adds its analytic variant to the intermediates
    if unitary:
        return unitary_speed_limit(target_unitary, symmetry, perturbation,
                                   drift=H_d), basis
    return hamiltonian_speed_limit(target_hamiltonian, symmetry, perturbation,
                                   drift=H_d, **kwargs), basis


def cmd_bound(args) -> dict:
    spec = load_problem(args.problem)
    unitary = args.target_kind == "unitary"
    if (spec.target_unitary if unitary else spec.target_hamiltonian) is None:
        raise ProblemFormatError(
            f"'bound {args.target_kind}' needs a "
            f"{'unitary' if unitary else 'Hamiltonian'} target")
    rep, basis = _bound_pipeline(spec.drift, spec.controls, spec.target_unitary,
                                 spec.target_hamiltonian,
                                 _merge_options(spec.options, args))
    return {"inputs": spec.source, "symmetry_kind": rep.symmetry.kind,
            "symmetry_count": len(basis), **_bound_report_dict(rep),
            "uniform_bound": uniform_speed_limit(rep.perturbation)}


def _build(builder, *args, **kwargs):
    """Call a model builder; a parameter it rejects is bad input."""
    try:
        return builder(*args, **kwargs)
    except ValidationError as exc:
        raise ProblemFormatError(str(exc)) from None


def _model_bound(bundle, opts):
    """Bound for a model bundle with its own symmetry and perturbation."""
    return _bound_pipeline(bundle.system.drift, bundle.system.controls,
                           bundle.target_unitary, bundle.target_hamiltonian,
                           opts, bundle.symmetry, bundle.perturbation)[0]


def _reproduce_cnot(args) -> dict:
    bundle = _build(coupled_qubit_model, args.g)
    rep = _model_bound(bundle, {})
    refs = bundle.references
    return {"parameters": {"g": args.g}, **_bound_report_dict(rep),
            "closed_form": refs["bound_time"],
            "literature_time": refs["literature_time"],
            "literature_ratio": refs["literature_time"] / rep.bound_time}


def _reproduce_swap(args) -> dict:
    bundle = _build(hopping_chain_model, args.N, args.J)
    refs, sym = bundle.references, bundle.symmetry
    # The paper's closed form, term by term: the overlap form of the
    # breaking norm over the 3 pi² J/N² bound on the restored gap.  It lies
    # below the exact bound of the same symmetry and perturbation.
    bound = refs["breaking_norm"] / (2.0 * sym.frobenius
                                     * refs["gap_over_bound"])
    return {"parameters": {"N": args.N, "J": args.J},
            "bound_time": bound, "theorem": "T1b",
            "closed_form": refs["closed_form"],
            "bound_time_exact": _model_bound(bundle, {}).bound_time,
            "intermediates": {"symmetry_frobenius": sym.frobenius, **{
                k: refs[k] for k in ("breaking_norm", "breaking_norm_exact",
                                     "gap_over_bound", "delta_h_op_norm")}}}


def _reproduce_rydberg(args) -> dict:
    opts = _merge_options({}, args)
    params = {k: getattr(args, k) for k in ("N", "C", "a", "J", "h", "g")}
    bundle = _build(rydberg_chain_model, **params)
    rep = _model_bound(bundle, opts)
    refs = bundle.references
    return {"parameters": params, **_bound_report_dict(rep),
            "delta_h_closed_form": refs["delta_h_closed_form"],
            "trend_limit": refs["trend_limit"]}


def _reproduce_syk(args) -> dict:
    opts = _merge_options({"optimize_symmetry": args.iterations}, args)
    n = args.n_majorana
    H = _build(syk_model, n, seed=args.seed, mu=args.mu)
    rep, basis = _bound_pipeline(H, global_controls(n // 2), None, H, opts)
    return {"parameters": {"n_majorana": n, "seed": args.seed,
                           "mu": args.mu, "iterations": args.iterations},
            "commutant_dimension": len(basis), **_bound_report_dict(rep)}


# model name -> (report function, the flags it reads with their defaults)
_MODELS = {
    "cnot": (_reproduce_cnot, {"g": 1.0}),
    "swap": (_reproduce_swap, {"N": 3, "J": 1.0}),
    "rydberg": (_reproduce_rydberg, {"N": 5, "C": 1.0, "a": 1.0, "J": 1.0,
                                     "g": 0.5, "h": 0.5, "method": None}),
    "syk": (_reproduce_syk, {"n_majorana": 6, "mu": 0.0, "iterations": 60,
                             "seed": 0, "method": None}),
}


def cmd_reproduce(args) -> dict:
    return {"model": args.model, **_MODELS[args.model][0](args)}


def cmd_verify_duhamel(args) -> dict:
    if args.trials < 1:
        raise ProblemFormatError(
            f"--trials must be an integer >= 1, got {args.trials}")
    spec = load_problem(args.problem)
    system = ControlSystem(spec.drift, spec.controls, label="duhamel-check")
    rng = np.random.default_rng(_merge_options(spec.options, args)["seed"])
    d = system.dimension
    violations = 0
    worst = -math.inf
    for _ in range(args.trials):
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        dH = hermitize(raw)
        dH *= rng.uniform(0.05, 0.5) * max(1.0, operator_norm(system.drift)) \
            / max(operator_norm(dH), 1e-12)
        segments = int(rng.integers(1, 9))
        schedule = PulseSchedule(float(rng.uniform(0.05, 0.5)),
                                 rng.standard_normal((len(system.controls),
                                                      segments)))
        perturbed = ControlSystem(system.drift + dH, system.controls)
        lhs = operator_norm(propagate_piecewise(system, schedule)
                            - propagate_piecewise(perturbed, schedule))
        rhs = schedule.total_time * operator_norm(dH) + 1e-6
        worst = max(worst, lhs - rhs)
        if lhs > rhs:
            violations += 1
    report = {"inputs": spec.source, "trials": args.trials,
              "violations": violations, "max_lhs_minus_rhs": worst}
    if violations:
        report["_exit"] = 1
    return report


def _summarize(report: dict) -> list[str]:
    lines = []
    if "model" in report:
        lines.append(f"model: {report['model']}")
    if "bound_time" in report:
        lines.append(f"bound_time: {report['bound_time']:.9g}  "
                     f"(theorem {report.get('theorem', '?')})")
    if "symmetries" in report:
        for kind, entry in report["symmetries"].items():
            what = entry.get("count", entry.get("skipped"))
            lines.append(f"{kind} symmetries: {what}")
    if "violations" in report:
        lines.append(f"violations: {report['violations']}/{report['trials']}")
    for w in report.get("warnings", []):
        lines.append(f"warning: {w}")
    return lines


def _json_default(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value)}")


def _add_flags(p, defaults: dict) -> None:
    """The flags a command reads, with their defaults, and --json-only.
    Each is taken spelled in full only: an abbreviation would let a flag the
    command lacks, such as ``--h``, stand for another (``--help``)."""
    p.allow_abbrev = False
    for key, default in defaults.items():
        kind = _FLAGS[key]
        p.add_argument("--" + key.replace("_", "-"), dest=key, default=default,
                       **({"choices": kind} if isinstance(kind, tuple)
                          else {"type": kind}))
    p.add_argument("--json-only", action="store_true",
                   help="suppress the human summary on stderr")


@functools.cache  # once per process: parse_args leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsl",
        description="Lower bounds on quantum control time from symmetries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("symmetries", help="list symmetry bases for a problem")
    p.add_argument("problem")
    _add_flags(p, {"kind": None, "tol": None})
    p.set_defaults(func=cmd_symmetries)

    search = dict.fromkeys(("kind", "optimize_symmetry", "tol", "seed"))
    pb = sub.add_parser("bound", help="evaluate a speed limit")
    bsub = pb.add_subparsers(dest="target_kind", required=True)
    for name, flags in (("unitary", search),
                        ("hamiltonian", {**search, "method": None})):
        p = bsub.add_parser(name)
        p.add_argument("problem")
        _add_flags(p, flags)
        p.set_defaults(func=cmd_bound)

    pr = sub.add_parser("reproduce", help="run a built-in reference model")
    rsub = pr.add_subparsers(dest="model", required=True)
    for name, (_, flags) in _MODELS.items():
        p = rsub.add_parser(name)
        _add_flags(p, flags)
        p.set_defaults(func=cmd_reproduce)

    pv = sub.add_parser("verify", help="property checks by simulation")
    vsub = pv.add_subparsers(dest="check", required=True)
    p = vsub.add_parser("duhamel")
    p.add_argument("problem")
    _add_flags(p, {"trials": 20, "seed": None})
    p.set_defaults(func=cmd_verify_duhamel)

    return parser


def run_command(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    t0 = time.perf_counter()
    try:
        report = args.func(args)
    except (ProblemFormatError, DimensionCapError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QslError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    code = int(report.pop("_exit", 0))
    report["elapsed_seconds"] = round(time.perf_counter() - t0, 6)
    try:
        text = json.dumps(report, indent=2, sort_keys=True,
                          default=_json_default, allow_nan=False)
    except ValueError as exc:  # a number the computation left non-finite
        print(f"error: the report is not finite JSON: {exc}", file=sys.stderr)
        return 1
    print(text)
    if not args.json_only:
        for line in _summarize(report):
            print(line, file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
