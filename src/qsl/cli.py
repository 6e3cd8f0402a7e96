"""Command-line interface.

Problem files are JSON: a dimension (or qubit count), a drift and controls
given either as Pauli-string expressions or dense matrices, one target
(unitary or Hamiltonian), and options.  Commands emit a JSON report on stdout
and a short human summary on stderr; exit codes are 0 (success), 1
(computation failed), 2 (bad input or usage: a missing or malformed file, a
malformed Pauli expression, a NaN or infinite number, a bad option value, a
model parameter the model rejects, input too large for the dense method).

``load_problem`` reads a file into a ``models.Problem``, its options and its
source; ``bound`` and every ``reproduce`` model are one ``bounds.bound`` call
plus JSON.  Each command takes only the flags it reads.  The option keys are
``bounds.bound``'s keywords, one schema for every command's problem files (a
flag of the same name overrides the file; ``reproduce syk`` passes
``--iterations`` as ``optimize_symmetry``); ``method`` is exact or
commutator, as chebyshev costs what exact costs and is never the tighter.

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

import numpy as np

from .bounds import (
    _KINDS,
    _METHODS,
    _symmetry_basis,
    bound,
    uniform_speed_limit,
)
from .matcore import (
    DimensionCapError,
    DimensionError,
    PAULI,
    QslError,
    ValidationError,
    _qubit_product,
    _square_sum,
    check_entry_cap,
    hermitize,
    operator_norm,
    permutation_operator,
    require_hermitian,
)
from .models import (
    Problem,
    PulseSchedule,
    _part,
    coupled_qubit_model,
    global_controls,
    hopping_chain_model,
    propagate_piecewise,
    rydberg_chain_model,
    syk_model,
)


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
    if not np.isfinite(arr).all():
        raise ProblemFormatError(f"{what}: matrix has non-finite entries")
    return arr[..., 0] + 1j * arr[..., 1]


def _hamiltonian_from_spec(obj, qubits, what: str) -> np.ndarray:
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
    # the commutation tests sum squares of entries, and past float64 they
    # cannot tell whether a drift keeps a symmetry
    if not math.isfinite(float(_square_sum(M))):
        raise ProblemFormatError(f"{what}: the squares of its entries sum "
                                 "past float64")
    return M


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


def _named_unitary(name: str) -> np.ndarray:
    if name == "CNOT":
        return np.eye(4, dtype=complex)[[0, 1, 3, 2]]
    if name == "SWAP":
        return permutation_operator([1, 0], [2, 2])
    raise ProblemFormatError(f"unknown named unitary {name!r}")


def load_problem(path: str) -> tuple[Problem, dict, dict]:
    """A problem file's ``Problem``, its options (``bounds.bound``'s
    keywords) with defaults filled in, and the file with those options."""
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
    drift = _hamiltonian_from_spec(data["drift"], qubits, "drift")
    if drift.shape[0] != dimension:  # Problem matches each part to the drift
        raise ProblemFormatError(f"drift: dimension {drift.shape[0]} does not "
                                 f"match the declared {dimension}")
    controls_spec = data.get("controls")
    if not isinstance(controls_spec, list) or not controls_spec:
        raise ProblemFormatError("'controls' must be a nonempty list")
    controls = [_hamiltonian_from_spec(c, qubits, f"controls[{k}]")
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
        target_u = (_named_unitary(str(u["named"])) if "named" in u else
                    _matrix_from_json(u["matrix"], "target unitary"))
    else:
        target_h = _hamiltonian_from_spec(target["hamiltonian"], qubits,
                                          "target hamiltonian")

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

    problem = _build(Problem, drift, controls, target_u, target_h)
    if target_h is not None:  # which Problem leaves to the bound
        _build(_part, "target hamiltonian", require_hermitian, target_h)
    source = {
        "qubits": qubits, "dimension": dimension, "drift": data["drift"],
        "controls": data["controls"], "target": data["target"],
        "options": options,
    }
    return problem, options, source


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


def cmd_symmetries(args) -> dict:
    problem, options, source = load_problem(args.problem)
    opts = _merge_options(options, args)
    kinds = [opts["kind"]] if opts.get("kind") else list(_KINDS)
    report: dict = {"inputs": source, "symmetries": {}}
    for kind in kinds:
        try:
            basis = _symmetry_basis(problem.controls, kind, opts.get("tol"))
        except DimensionCapError as exc:
            report["symmetries"][kind] = {"skipped": str(exc)}
            continue
        entry: dict = {"count": len(basis)}
        if basis and basis[0].dimension <= 16:
            entry["matrices"] = [matrix_to_json(b.matrix) for b in basis]
        report["symmetries"][kind] = entry
    return report


def cmd_bound(args) -> dict:
    problem, options, source = load_problem(args.problem)
    unitary = args.target_kind == "unitary"
    if (problem.target_unitary if unitary
            else problem.target_hamiltonian) is None:
        raise ProblemFormatError(
            f"'bound {args.target_kind}' needs a "
            f"{'unitary' if unitary else 'Hamiltonian'} target")
    rep = bound(problem, **_merge_options(options, args))
    return {"inputs": source, "symmetry_kind": rep.symmetry.kind,
            "symmetry_count": rep.basis_size, **_bound_report_dict(rep),
            "uniform_bound": uniform_speed_limit(rep.perturbation)}


def _build(builder, *args, **kwargs):
    """Call a model builder or a check; an input it rejects is bad input."""
    try:
        return builder(*args, **kwargs)
    except (DimensionError, ValidationError) as exc:
        raise ProblemFormatError(str(exc)) from None


def _reproduce_cnot(args) -> dict:
    bundle = _build(coupled_qubit_model, args.g)
    rep = bound(bundle)
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
    closed = refs["breaking_norm"] / (2.0 * sym.frobenius
                                      * refs["gap_over_bound"])
    return {"parameters": {"N": args.N, "J": args.J},
            "bound_time": closed, "theorem": "T1b",
            "closed_form": refs["closed_form"],
            "bound_time_exact": bound(bundle).bound_time,
            "intermediates": {"symmetry_frobenius": sym.frobenius, **{
                k: refs[k] for k in ("breaking_norm", "breaking_norm_exact",
                                     "gap_over_bound", "delta_h_op_norm")}}}


def _reproduce_rydberg(args) -> dict:
    params = {k: getattr(args, k) for k in ("N", "C", "a", "J", "h", "g")}
    bundle = _build(rydberg_chain_model, **params)
    rep = bound(bundle, **_merge_options({}, args))
    refs = bundle.references
    return {"parameters": params, **_bound_report_dict(rep),
            "delta_h_closed_form": refs["delta_h_closed_form"],
            "trend_limit": refs["trend_limit"]}


def _reproduce_syk(args) -> dict:
    n = args.n_majorana
    H = _build(syk_model, n, seed=args.seed, mu=args.mu)
    rep = bound(Problem(H, global_controls(n // 2), target_hamiltonian=H),
                **_merge_options({"optimize_symmetry": args.iterations}, args))
    return {"parameters": {"n_majorana": n, "seed": args.seed,
                           "mu": args.mu, "iterations": args.iterations},
            "commutant_dimension": rep.basis_size, **_bound_report_dict(rep)}


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
    problem, options, source = load_problem(args.problem)
    rng = np.random.default_rng(_merge_options(options, args)["seed"])
    d = problem.dimension
    violations = 0
    worst = -math.inf
    for _ in range(args.trials):
        raw = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        dH = hermitize(raw)
        dH *= rng.uniform(0.05, 0.5) * max(1.0, operator_norm(problem.drift)) \
            / max(operator_norm(dH), 1e-12)
        segments = int(rng.integers(1, 9))
        schedule = PulseSchedule(float(rng.uniform(0.05, 0.5)),
                                 rng.standard_normal((len(problem.controls),
                                                      segments)))
        perturbed = Problem(problem.drift + dH, problem.controls)
        lhs = operator_norm(propagate_piecewise(problem, schedule)
                            - propagate_piecewise(perturbed, schedule))
        rhs = schedule.total_time * operator_norm(dH) + 1e-6
        worst = max(worst, lhs - rhs)
        if lhs > rhs:
            violations += 1
    report = {"inputs": source, "trials": args.trials,
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
