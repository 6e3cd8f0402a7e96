import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qsl
import qsl.cli
from qsl.bounds import chebyshev_degree_for, hamiltonian_speed_limit
from qsl.cli import (
    PauliParseError,
    ProblemFormatError,
    load_problem,
    matrix_to_json,
    parse_pauli_expression,
    run_command,
)
from qsl.lie import Symmetry
from qsl.matcore import PAULI, ValidationError, kron, permutation_operator
from qsl.models import (
    coupled_qubit_model,
    global_controls,
    hopping_chain_model,
    rydberg_chain_model,
    syk_model,
)
from qsl.perturb import restore_symmetry

X, Y, Z, I2 = PAULI["X"], PAULI["Y"], PAULI["Z"], PAULI["I"]

CNOT_PROBLEM = str(resources.files("qsl") / "problems" / "cnot.json")
ISING_PROBLEM = str(resources.files("qsl") / "problems" / "ising3.json")
DRIFT_KEEPS_SYMMETRY = str(Path(__file__).parent / "data"
                           / "drift_keeps_symmetry.json")


class TestPauliParser:
    def test_single_factor(self):
        assert np.array_equal(parse_pauli_expression("X0", 1), X)

    def test_tensor_factors(self):
        assert np.array_equal(parse_pauli_expression("Z0 Z1", 2), kron(Z, Z))
        assert np.allclose(parse_pauli_expression("1.0 * Z0 Z1", 2),
                           np.diag([1.0, -1.0, -1.0, 1.0]))

    def test_weighted_sum(self):
        got = parse_pauli_expression("0.5*X0 + 0.5*X1", 2)
        assert np.allclose(got, 0.5 * (kron(X, I2) + kron(I2, X)))

    def test_coefficient_without_star(self):
        assert np.allclose(parse_pauli_expression("2 Y0", 1), 2 * Y)

    def test_leading_minus(self):
        assert np.allclose(parse_pauli_expression("-1.5 Z0", 1), -1.5 * Z)

    def test_unicode_minus(self):
        assert np.allclose(parse_pauli_expression("X0 − 2 Z0", 1), X - 2 * Z)

    def test_scientific_coefficient(self):
        got = parse_pauli_expression("2.5e-1 X0", 1)
        assert np.allclose(got, 0.25 * X)

    def test_identity_factor_pads(self):
        assert np.array_equal(parse_pauli_expression("I0 X1", 2), kron(I2, X))

    def test_duplicate_index_rejected(self):
        with pytest.raises(PauliParseError) as err:
            parse_pauli_expression("Z0 Z0", 2)
        assert err.value.position == 3

    def test_out_of_range_index_rejected(self):
        with pytest.raises(PauliParseError):
            parse_pauli_expression("X5", 2)

    def test_empty_rejected(self):
        with pytest.raises(PauliParseError):
            parse_pauli_expression("   ", 2)

    def test_missing_factor_rejected(self):
        with pytest.raises(PauliParseError):
            parse_pauli_expression("1.5 *", 1)

    def test_garbage_between_terms_rejected(self):
        with pytest.raises(PauliParseError):
            parse_pauli_expression("X0 & Z0", 1)

    malformed = ["+", "X", "0X", "X0 Z", "* X0", "X0 + + Z0", "e3 X0",
                 "Q0", "X-1", "1..5 X0", "X0 1.5", "X0+", "X0 -"]

    @pytest.mark.parametrize("text", malformed)
    def test_malformed_corpus_rejected(self, text):
        with pytest.raises(PauliParseError) as err:
            parse_pauli_expression(text, 3)
        assert err.value.position >= 0

    @given(st.text(alphabet="XYZI012+-* .e", max_size=12))
    @settings(max_examples=120, deadline=None)
    def test_fuzz_never_crashes(self, text):
        try:
            got = parse_pauli_expression(text, 3)
        except PauliParseError:
            return
        assert np.allclose(got, got.conj().T)

    def test_result_is_hermitian(self):
        got = parse_pauli_expression("0.3 X0 Y1 + 2 Z0 - Z1 X2", 3)
        assert np.allclose(got, got.conj().T)

    def test_qubit_count_checked(self):
        with pytest.raises(ValidationError):
            parse_pauli_expression("X0", 0)


class TestLoadProblem:
    def test_bundled_cnot_matches_model(self):
        spec = load_problem(CNOT_PROBLEM)[0]
        bundle = coupled_qubit_model(1.0)
        assert spec.dimension == 4
        assert np.allclose(spec.drift, bundle.drift)
        assert len(spec.controls) == len(bundle.controls)
        for got, want in zip(spec.controls, bundle.controls):
            assert np.allclose(got, want)
        assert np.allclose(spec.target_unitary, bundle.target_unitary)
        assert spec.target_hamiltonian is None

    def test_defaults_filled(self):
        _, options, _ = load_problem(CNOT_PROBLEM)
        assert options == {"kind": "quadratic", "method": "exact",
                                "seed": 0, "optimize_symmetry": 0}

    def test_round_trip(self, tmp_path):
        spec, _, source = load_problem(ISING_PROBLEM)
        copy = tmp_path / "copy.json"
        copy.write_text(json.dumps(source))
        again, _, again_source = load_problem(str(copy))
        assert again_source == source
        assert np.allclose(again.drift, spec.drift)

    def test_missing_file_is_io_error(self):
        with pytest.raises(OSError):
            load_problem("/no/such/file.json")

    def _write(self, tmp_path, payload):
        p = tmp_path / "problem.json"
        p.write_text(json.dumps(payload))
        return str(p)

    def test_two_targets_rejected(self, tmp_path):
        path = self._write(tmp_path, {
            "qubits": 1, "drift": {"pauli": "Z0"},
            "controls": [{"pauli": "X0"}],
            "target": {"unitary": {"named": "CNOT"},
                       "hamiltonian": {"pauli": "X0"}},
        })
        with pytest.raises(ProblemFormatError):
            load_problem(path)

    def test_dimension_contradiction_rejected(self, tmp_path):
        path = self._write(tmp_path, {
            "qubits": 2, "dimension": 5, "drift": {"pauli": "Z0"},
            "controls": [{"pauli": "X0"}],
            "target": {"hamiltonian": {"pauli": "X0"}},
        })
        with pytest.raises(ProblemFormatError):
            load_problem(path)

    def test_matrix_entries_must_be_pairs(self, tmp_path):
        path = self._write(tmp_path, {
            "dimension": 2, "drift": {"matrix": [[1.0, 0.0], [0.0, -1.0]]},
            "controls": [{"matrix": [[[0, 0], [1, 0]], [[1, 0], [0, 0]]]}],
            "target": {"hamiltonian": {"matrix": [[[0, 0], [1, 0]],
                                                  [[1, 0], [0, 0]]]}},
        })
        with pytest.raises(ProblemFormatError):
            load_problem(path)

    def test_matrix_encoding_round_trip(self, tmp_path):
        M = np.array([[0.0, 1.0j], [-1.0j, 0.0]])
        path = self._write(tmp_path, {
            "dimension": 2, "drift": {"matrix": matrix_to_json(M)},
            "controls": [{"matrix": matrix_to_json(X.astype(complex))}],
            "target": {"hamiltonian": {"matrix": matrix_to_json(M)}},
        })
        spec = load_problem(path)[0]
        assert np.allclose(spec.drift, M)

    def test_non_hermitian_drift_rejected(self, tmp_path):
        path = self._write(tmp_path, {
            "dimension": 2,
            "drift": {"matrix": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]},
            "controls": [{"matrix": matrix_to_json(X.astype(complex))}],
            "target": {"hamiltonian": {"matrix": matrix_to_json(X.astype(complex))}},
        })
        with pytest.raises(ProblemFormatError):
            load_problem(path)

    def test_unknown_option_rejected(self, tmp_path):
        path = self._write(tmp_path, {
            "qubits": 1, "drift": {"pauli": "Z0"},
            "controls": [{"pauli": "X0"}],
            "target": {"hamiltonian": {"pauli": "X0"}},
            "options": {"turbo": True},
        })
        with pytest.raises(ProblemFormatError):
            load_problem(path)

    def test_named_swap_target(self, tmp_path):
        path = self._write(tmp_path, {
            "qubits": 2, "drift": {"pauli": "Z0 Z1"},
            "controls": [{"pauli": "X0"}],
            "target": {"unitary": {"named": "SWAP"}},
        })
        spec = load_problem(path)[0]
        assert np.array_equal(spec.target_unitary.real, np.eye(4)[[0, 2, 1, 3]])


def _run(capsys, argv):
    code = run_command(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


class TestRunCommand:
    def test_reproduce_cnot(self, capsys):
        code, report, err = _run(capsys, ["reproduce", "cnot", "--json-only"])
        assert code == 0
        assert report["bound_time"] == pytest.approx(0.3535533906, abs=1e-9)
        assert err == ""

    def test_reproduce_swap_quoted_value(self, capsys):
        code, report, _ = _run(capsys, ["reproduce", "swap", "--N", "3",
                                        "--json-only"])
        assert code == 0
        assert abs(report["bound_time"] - 0.24816) < 5e-5
        assert report["bound_time"] == pytest.approx(report["closed_form"],
                                                     rel=1e-9)

    def test_human_summary_on_stderr(self, capsys):
        code, _, err = _run(capsys, ["reproduce", "cnot"])
        assert code == 0
        assert "bound_time" in err

    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_command(["frobnicate"]) == 2

    def test_missing_file_exits_2(self, capsys):
        code, report, err = _run(capsys, ["bound", "unitary", "/nope.json"])
        assert code == 2
        assert report is None
        assert "error" in err

    def test_bad_problem_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = _run(capsys, ["symmetries", str(bad)])
        assert code == 2

    def test_exact_symmetry_exits_1(self, capsys, tmp_path):
        # the only symmetries commute with the drift, so no bound follows
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "qubits": 1, "drift": {"pauli": "Z0"},
            "controls": [{"pauli": "Z0"}],
            "target": {"unitary": {"matrix": matrix_to_json(X.astype(complex))}},
            "options": {"kind": "linear"},
        }))
        code, _, err = _run(capsys, ["bound", "unitary", str(path)])
        assert code == 1
        assert "error" in err

    @pytest.mark.parametrize("extra", [[], ["--optimize-symmetry", "20"]])
    def test_drift_keeping_every_symmetry_exits_1(self, capsys, monkeypatch,
                                                  extra):
        """Controls n·σ on qubit 0 and m·σ on qubit 1 with random axes, drift
        (n·σ)⊗(m·σ), target exp(-0.01 i H_d): the drift alone reaches the
        target at t = 0.01, and it keeps every linear symmetry of the
        controls up to rounding, so no bound follows.  The pipeline refuses
        once, before the search, by restoration's test on the whole basis:
        no restoration at all."""
        calls = []

        def counted(S, H_d, *args, **kwargs):
            calls.append(1)
            return restore_symmetry(S, H_d, *args, **kwargs)

        monkeypatch.setattr(qsl.bounds, "restore_symmetry", counted)
        code, report, err = _run(capsys, ["bound", "unitary",
                                          DRIFT_KEEPS_SYMMETRY, *extra])
        assert code == 1 and report is None
        assert err == ("error: symmetry already commutes with the drift; "
                       "no time bound follows\n")
        assert calls == []

    def test_bound_unitary_cnot(self, capsys):
        code, report, _ = _run(capsys, ["bound", "unitary", CNOT_PROBLEM,
                                        "--json-only"])
        assert code == 0
        assert report["theorem"] == "T1a"
        assert report["symmetry_count"] == 4
        # the best basis element is at least as good as the printed choice
        assert report["bound_time"] >= 0.3535533905 - 1e-9

    def test_bound_hamiltonian_ising(self, capsys):
        code, report, _ = _run(capsys, ["bound", "hamiltonian", ISING_PROBLEM,
                                        "--json-only"])
        assert code == 0
        assert report["theorem"] == "T2b"
        assert report["bound_time"] > 0

    def test_method_override(self, capsys):
        code, report, _ = _run(capsys, ["bound", "hamiltonian", ISING_PROBLEM,
                                        "--method", "commutator", "--json-only"])
        assert code == 0
        assert report["projection_method"] == "commutator"

    def test_symmetries_lists_linear_for_ising(self, capsys):
        code, report, _ = _run(capsys, ["symmetries", ISING_PROBLEM,
                                        "--json-only"])
        assert code == 0
        assert report["symmetries"]["linear"]["count"] == 5

    def test_symmetries_both_kinds_when_unpinned(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "qubits": 1, "drift": {"pauli": "Z0"},
            "controls": [{"pauli": "X0"}],
            "target": {"hamiltonian": {"pauli": "Z0"}},
        }))
        code, report, _ = _run(capsys, ["symmetries", str(path), "--json-only"])
        assert code == 0
        assert set(report["symmetries"]) == {"linear", "quadratic"}

    def test_verify_duhamel(self, capsys):
        code, report, _ = _run(capsys, ["verify", "duhamel", CNOT_PROBLEM,
                                        "--trials", "5", "--json-only"])
        assert code == 0
        assert report["violations"] == 0

    def test_verify_duhamel_reads_the_file_seed(self, capsys, tmp_path):
        """The file's ``seed`` draws the trials as ``--seed`` does, and the
        flag overrides the file."""
        problem = json.loads(Path(CNOT_PROBLEM).read_text())
        problem["options"] = {**problem.get("options", {}), "seed": 5}
        path = tmp_path / "cnot-seed5.json"
        path.write_text(json.dumps(problem))

        def worst(*argv):
            code, report, _ = _run(capsys, ["verify", "duhamel", *argv,
                                            "--trials", "3", "--json-only"])
            assert code == 0
            return report["max_lhs_minus_rhs"]
        from_file = worst(str(path))
        assert from_file == worst(CNOT_PROBLEM, "--seed", "5")
        assert from_file == pytest.approx(-0.0033001, abs=1e-7)
        assert worst(str(path), "--seed", "0") == worst(CNOT_PROBLEM)
        assert worst(CNOT_PROBLEM) == pytest.approx(-0.0030530, abs=1e-7)

    def test_reports_reproducible(self, capsys):
        _, a, _ = _run(capsys, ["reproduce", "syk", "--seed", "4",
                                "--iterations", "10", "--json-only"])
        _, b, _ = _run(capsys, ["reproduce", "syk", "--seed", "4",
                                "--iterations", "10", "--json-only"])
        a.pop("elapsed_seconds")
        b.pop("elapsed_seconds")
        assert a == b


BAD_FILE_OPTIONS = [
    ("unitary", {"seed": "abc"}),
    ("unitary", {"seed": -1}),
    ("unitary", {"optimize_symmetry": -1}),
    ("unitary", {"optimize_symmetry": 2.5}),
    ("unitary", {"kind": "cubic"}),
    # the command line offers no chebyshev numerator, and so no filter keys
    ("hamiltonian", {"method": "chebyshev"}),
    ("hamiltonian", {"degree": 64}),
    ("hamiltonian", {"method": "exact", "degree": 3}),
    ("hamiltonian", {"method": "fast"}),
    ("hamiltonian", {"sigma_min": 1e-3}),
    ("hamiltonian", {"sigma_max": 10.0}),
    ("hamiltonian", {"tol": -1e-9}),
    ("hamiltonian", ["not", "an", "object"]),
    ("hamiltonian", {"sigma_min": 1, "sigma_max": 5}),
    # no singular value exceeds a relative rank cut of 1 or more
    ("hamiltonian", {"tol": 1}),
    ("hamiltonian", {"tol": 1e9}),
    # only null or a missing key means "no options"
    ("hamiltonian", []),
    ("hamiltonian", 0),
    ("hamiltonian", False),
    ("hamiltonian", ""),
]

BAD_ARGV = [
    ["bound", "hamiltonian", ISING_PROBLEM, "--tol", "0"],
    ["bound", "hamiltonian", ISING_PROBLEM, "--tol", "nan"],
    # no singular value exceeds a relative rank cut of 1 or more
    ["bound", "hamiltonian", ISING_PROBLEM, "--tol", "1"],
    ["bound", "unitary", CNOT_PROBLEM, "--tol", "1"],
    ["symmetries", CNOT_PROBLEM, "--tol", "1"],
    ["bound", "unitary", CNOT_PROBLEM, "--optimize-symmetry", "-1"],
    ["bound", "unitary", CNOT_PROBLEM, "--seed", "-3"],
    ["reproduce", "rydberg", "--N", "2"],
    ["reproduce", "rydberg", "--a", "0"],
    ["reproduce", "rydberg", "--C", "0"],
    ["reproduce", "swap", "--N", "2"],
    ["reproduce", "swap", "--J", "-1"],
    ["reproduce", "syk", "--n-majorana", "5"],
    ["reproduce", "syk", "--iterations", "-1"],
    # refused by the model builder, which runs before the search options
    # are checked
    ["reproduce", "syk", "--n-majorana", "6", "--seed", "-1",
     "--iterations", "1"],
    ["reproduce", "cnot", "--g", "-1"],
    ["verify", "duhamel", CNOT_PROBLEM, "--seed", "-1"],
    ["verify", "duhamel", CNOT_PROBLEM, "--trials", "0"],
    ["verify", "duhamel", CNOT_PROBLEM, "--trials", "-1"],
    # non-finite model parameters
    ["reproduce", "rydberg", "--h", "nan"],
    ["reproduce", "rydberg", "--C", "inf"],
    ["reproduce", "swap", "--J", "nan"],
    ["reproduce", "cnot", "--g", "inf"],
    ["reproduce", "syk", "--mu", "nan"],
    # finite model parameters whose derived numbers leave float64
    ["reproduce", "rydberg", "--N", "4", "--a", "1e-60"],
    ["reproduce", "rydberg", "--N", "4", "--a", "1e60"],
    ["reproduce", "rydberg", "--N", "4", "--h", "1e300"],
    ["reproduce", "rydberg", "--N", "4", "--J", "1e308"],
    ["reproduce", "rydberg", "--N", "4", "--C", "1e-310"],
    # a coupling whose drift norm times ||S||_F = √d leaves float64, so
    # restoration's acceptance limit cannot be formed
    ["reproduce", "rydberg", "--N", "4", "--C", "1e307"],
    ["reproduce", "swap", "--N", "4", "--J", "1e-320"],
    ["reproduce", "swap", "--N", "4", "--J", "1e308"],
    ["reproduce", "syk", "--n-majorana", "6", "--mu", "1e308",
     "--iterations", "1"],
    # a zero target Hamiltonian, refused alike by every numerator
    ["reproduce", "rydberg", "--N", "4", "--J", "0", "--g", "0", "--h", "0"],
    ["reproduce", "rydberg", "--N", "4", "--J", "0", "--g", "0", "--h", "0",
     "--method", "commutator"],
]

_NAN, _INF = float("nan"), float("inf")
_ONE_QUBIT = {"qubits": 1, "drift": {"pauli": "Z0"},
              "controls": [{"pauli": "X0"}],
              "target": {"hamiltonian": {"pauli": "Z0 + 0.5 X0"}}}

# (target kind, one-qubit problem) pairs that must be rejected as bad input:
# non-finite matrix entries or Pauli coefficients, malformed expressions
BAD_PROBLEMS = {
    "nan-in-drift": ("hamiltonian", {**_ONE_QUBIT, "drift": {
        "matrix": [[[_NAN, 0], [0, 0]], [[0, 0], [-1, 0]]]}}),
    "inf-in-target-hamiltonian": ("hamiltonian", {**_ONE_QUBIT, "target": {
        "hamiltonian": {"matrix": [[[_INF, 0], [0, 0]], [[0, 0], [-1, 0]]]}}}),
    "nan-in-target-unitary": ("unitary", {**_ONE_QUBIT, "target": {
        "unitary": {"matrix": [[[_NAN, 0], [1, 0]], [[1, 0], [0, 0]]]}}}),
    "overflowing-pauli-coefficient": ("hamiltonian", {**_ONE_QUBIT, "target": {
        "hamiltonian": {"pauli": "1e999 Z0 + 0.5 X0"}}}),
    "qubit-index-out-of-range": ("hamiltonian", {**_ONE_QUBIT,
                                                 "drift": {"pauli": "Z3"}}),
    "dangling-plus": ("hamiltonian", {**_ONE_QUBIT, "drift": {"pauli": "X0 +"}}),
    # finite entries whose Frobenius norm overflows: no commutation test
    # can tell whether such a drift keeps a symmetry
    "overflowing-drift-norm": ("hamiltonian", {**_ONE_QUBIT, "drift": {
        "pauli": "1e200 Z0"}}),
    "overflowing-coupling-norm": ("unitary", {
        "qubits": 2, "drift": {"pauli": "1e200 Z0 Z1"},
        "controls": [{"pauli": p} for p in ("X0", "Z0", "X1", "Z1")],
        "target": {"unitary": {"named": "CNOT"}}}),
}


class TestBadInputExits2:
    """Unusable input ends with exit code 2 and a one-line error, never a
    traceback or a silently substituted default."""

    def _expect_exit_2(self, capsys, argv):
        code, report, err = _run(capsys, argv)
        assert code == 2
        assert report is None
        assert err.startswith("error: ")

    @pytest.mark.parametrize("target,options", BAD_FILE_OPTIONS)
    def test_bad_file_option(self, capsys, tmp_path, target, options):
        path = tmp_path / "p.json"
        source = json.loads(Path(CNOT_PROBLEM if target == "unitary"
                                 else ISING_PROBLEM).read_text())
        source["options"] = options
        path.write_text(json.dumps(source))
        self._expect_exit_2(capsys, ["bound", target, str(path)])

    def test_boolean_qubit_count(self, capsys, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({
            "qubits": True, "drift": {"pauli": "Z0"},
            "controls": [{"pauli": "X0"}],
            "target": {"hamiltonian": {"pauli": "Z0 + 0.5 X0"}}}))
        self._expect_exit_2(capsys, ["bound", "hamiltonian", str(path)])

    @pytest.mark.parametrize("argv", BAD_ARGV, ids=lambda argv: " ".join(
        Path(a).name for a in argv))
    def test_bad_flag_or_model_parameter(self, capsys, argv):
        self._expect_exit_2(capsys, argv)

    @pytest.mark.parametrize("name", sorted(BAD_PROBLEMS))
    def test_bad_problem_file(self, capsys, tmp_path, name):
        target, problem = BAD_PROBLEMS[name]
        path = tmp_path / "p.json"
        # json writes NaN and Infinity as the bare tokens json.load reads back
        path.write_text(json.dumps(problem))
        self._expect_exit_2(capsys, ["bound", target, str(path)])

    @pytest.mark.parametrize("command", [
        ["bound", "hamiltonian", ISING_PROBLEM], ["reproduce", "rydberg"],
        ["reproduce", "syk", "--iterations", "1"]], ids=lambda argv: " ".join(
            Path(a).name for a in argv))
    def test_chebyshev_method_exits_2(self, capsys, command):
        """The command line offers the exact and commutator numerators
        only: chebyshev is a usage error before anything runs."""
        code, report, err = _run(capsys, [*command, "--method", "chebyshev"])
        assert code == 2 and report is None
        assert "invalid choice: 'chebyshev'" in err

    def test_problem_too_large_for_discovery(self, capsys, tmp_path):
        """A 6-qubit file: discovery's stacked superoperator exceeds the
        entry cap, which the input size alone decides."""
        n = 6
        chain = " + ".join(f"Z{i} Z{i + 1}" for i in range(n - 1))
        path = tmp_path / "ising6.json"
        path.write_text(json.dumps({
            "qubits": n, "drift": {"pauli": chain},
            "controls": [{"pauli": " + ".join(f"X{i}" for i in range(n))},
                         {"pauli": " + ".join(f"Z{i}" for i in range(n))}],
            "target": {"hamiltonian": {"pauli": chain + " + 0.5 X0"}},
            "options": {"kind": "linear"}}))
        code, _, err = _run(capsys, ["bound", "hamiltonian", str(path)])
        assert code == 2 and err.startswith("error: dense intermediate")
        assert err.count("\n") == 1
        # no matrix-free method exists to point the user at
        assert "matrix-free" not in err
        assert err.endswith("the dense method does not support problems "
                            "this large\n")
        # symmetries still reports the capped kind as skipped
        code, report, _ = _run(capsys, ["symmetries", str(path), "--json-only"])
        assert code == 0 and "skipped" in report["symmetries"]["linear"]

    @pytest.mark.parametrize("qubits", [11, 40])
    @pytest.mark.parametrize("command", [["bound", "hamiltonian"],
                                         ["symmetries"]])
    def test_problem_too_large_to_hold(self, capsys, tmp_path, qubits,
                                       command):
        """One d×d operator alone exceeds the entry cap: the file is
        rejected before any operator is parsed."""
        path = tmp_path / "big.json"
        path.write_text(json.dumps({
            "qubits": qubits, "drift": {"pauli": "Z0 Z1"},
            "controls": [{"pauli": "X0"}],
            "target": {"hamiltonian": {"pauli": "Z0 Z1 + 0.5 X0"}}}))
        code, report, err = _run(capsys, [*command, str(path)])
        assert code == 2 and report is None
        assert err.startswith("error: dense intermediate")
        assert err.count("\n") == 1

    def test_rydberg_chain_too_long_for_dense_build(self, capsys):
        code, report, err = _run(capsys, ["reproduce", "rydberg", "--N", "15"])
        assert code == 2 and report is None
        assert err == "error: dense construction is limited to 14 atoms\n"

    def test_rydberg_chain_too_large_for_memory(self, capsys, monkeypatch):
        monkeypatch.setattr(qsl.models, "_physical_memory", lambda: 2**10)
        code, report, err = _run(capsys, ["reproduce", "rydberg", "--N", "5"])
        assert code == 2 and report is None
        assert err.startswith("error: the dense model at 5 atoms needs about")

    def test_null_option_means_unset(self, tmp_path):
        path = tmp_path / "p.json"
        source = json.loads(Path(ISING_PROBLEM).read_text())
        source["options"] = {"method": None, "seed": None}
        path.write_text(json.dumps(source))
        _, options, _ = load_problem(str(path))
        assert options["method"] == "exact"
        assert options["seed"] == 0


# Reports of successful commands, recorded before the commands were moved
# onto one bound pipeline (bound-unitary-cnot-y-controls: before quadratic
# restoration became a stacked projection): each entry's argv run with
# --json-only, with elapsed_seconds dropped.  "{problems}" stands for the
# bundled problem folder, "{data}" for the tests' data folder.
GOLDEN_REPORTS = Path(__file__).parent / "data" / "cli_reports.json"
GOLDEN = json.loads(GOLDEN_REPORTS.read_text())
PROBLEMS = str(resources.files("qsl") / "problems")


def _golden_argv(name: str) -> list[str]:
    return [a.replace("{problems}", PROBLEMS).replace(
        "{data}", str(GOLDEN_REPORTS.parent)) for a in GOLDEN[name]["argv"]]


class TestExactByDefault:
    """The exact numerator is the default at every dimension: above d = 64
    the library's Chebyshev filter costs the same eigendecomposition and
    more, and gives a looser bound."""

    def test_reproduce_rydberg_n7(self, capsys):
        code, default, _ = _run(capsys, ["reproduce", "rydberg", "--N", "7",
                                         "--json-only"])
        assert code == 0 and default["projection_method"] == "exact"
        b = rydberg_chain_model(7)
        cheb = hamiltonian_speed_limit(b.target_hamiltonian, b.symmetry,
                                       b.perturbation, method="chebyshev")
        assert default["bound_time"] >= cheb.bound_time > 0

    def test_seven_qubit_problem_file(self, tmp_path):
        """A 7-qubit file (d = 128) defaults to exact.  Discovery caps the
        ``bound`` command at 5 qubits, so the file's options run through
        the same pipeline with the swap of qubits 0 and 1, a symmetry of the
        collective controls, given."""
        n = 7
        chain = " + ".join(f"Z{i} Z{i + 1}" for i in range(n - 1))
        path = tmp_path / "ising7.json"
        path.write_text(json.dumps({
            "qubits": n, "drift": {"pauli": chain},
            "controls": [{"pauli": " + ".join(f"X{i}" for i in range(n))},
                         {"pauli": " + ".join(f"Z{i}" for i in range(n))}],
            "target": {"hamiltonian": {"pauli": chain + " + 0.5 X0 + 0.25 Z1"}}}))
        spec, options, _ = load_problem(str(path))
        assert options["method"] == "exact"
        swap = Symmetry("linear", permutation_operator(
            [1, 0] + list(range(2, n)), [2] * n))
        rep = qsl.bound(qsl.Problem(spec.drift, spec.controls,
                                    target_hamiltonian=spec.target_hamiltonian,
                                    symmetry=swap), **options)
        assert rep.projection_method == "exact"
        cheb = hamiltonian_speed_limit(spec.target_hamiltonian, swap,
                                       rep.perturbation, method="chebyshev")
        assert rep.bound_time >= cheb.bound_time > 0


def test_rydberg_chebyshev_default_degree():
    """Without a degree the library derives the filter degree for the
    model's spectral estimates; the report is the one an explicit degree
    gives, and the value the command line reported while it offered the
    method."""
    b = rydberg_chain_model(5)
    lo, hi = b.spectral_estimates
    degree = chebyshev_degree_for(1e-2, lo, hi)
    reports = [hamiltonian_speed_limit(
        b.target_hamiltonian, b.symmetry, b.perturbation, method="chebyshev",
        drift=b.drift, sigma_min_est=lo, sigma_max_est=hi, **extra)
        for extra in ({}, {"degree": degree})]
    assert reports[0].intermediates["degree"] == degree
    assert reports[0].bound_time == pytest.approx(1.1519269942359252,
                                                  rel=1e-9)
    assert reports[0].bound_time == reports[1].bound_time
    assert reports[0].intermediates == reports[1].intermediates


def _assert_report_matches(got, want, where="report"):
    """Equal structure and strings; floats within rel 1e-9."""
    if isinstance(want, dict):
        assert isinstance(got, dict) and set(got) == set(want), where
        for key in want:
            _assert_report_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for k, (g, w) in enumerate(zip(got, want)):
            _assert_report_matches(g, w, f"{where}[{k}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-9), where
    else:
        assert got == want, where


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden(name, capsys):
    """Successful commands reproduce the recorded JSON reports."""
    argv = _golden_argv(name)
    code, report, _ = _run(capsys, argv + ["--json-only"])
    assert code == 0
    report.pop("elapsed_seconds")
    _assert_report_matches(report, GOLDEN[name]["report"])


def _library_bound(argv):
    """``qsl.bound`` for a ``bound`` or ``reproduce`` argv: on the loaded
    Problem with the file's options and the flags, or on the model's
    bundle (the SYK Problem for ``syk``) with the command's defaults."""
    command, name, *rest = argv
    if command == "bound":
        path, *rest = rest
    flags = {}
    for flag, text in zip(rest[::2], rest[1::2]):
        key = flag[2:].replace("-", "_")
        kind = qsl.cli._FLAGS[key]
        flags[key] = text if isinstance(kind, tuple) else kind(text)
    if command == "bound":
        problem, options, _ = load_problem(path)
        return qsl.bound(problem, **{**options, **flags})
    p = {**qsl.cli._MODELS[name][1], **flags}
    if name == "cnot":
        return qsl.bound(coupled_qubit_model(p["g"]))
    if name == "swap":
        return qsl.bound(hopping_chain_model(p["N"], p["J"]))
    if name == "rydberg":
        return qsl.bound(rydberg_chain_model(
            **{k: p[k] for k in ("N", "C", "a", "J", "g", "h")}),
            method=p["method"])
    H = syk_model(p["n_majorana"], seed=p["seed"], mu=p["mu"])
    return qsl.bound(qsl.Problem(H, global_controls(p["n_majorana"] // 2),
                                 target_hamiltonian=H),
                     method=p["method"], optimize_symmetry=p["iterations"],
                     seed=p["seed"])


@pytest.mark.parametrize("name", sorted(
    n for n in GOLDEN if GOLDEN[n]["argv"][0] in ("bound", "reproduce")))
def test_library_bound_is_the_command_line_bound(name, capsys):
    """The command line and the library run one pipeline: ``qsl.bound``
    gives the report's bound (``swap`` reports it as ``bound_time_exact``
    next to its closed form), theorem and intermediates, bit for bit."""
    argv = _golden_argv(name)
    code, report, _ = _run(capsys, argv + ["--json-only"])
    assert code == 0
    rep = _library_bound(argv)
    if argv[1] == "swap":
        assert rep.bound_time == report["bound_time_exact"]
        return
    assert rep.bound_time == report["bound_time"]
    assert rep.theorem == report["theorem"]
    assert rep.intermediates == report["intermediates"]
    basis_size = report.get("symmetry_count",
                            report.get("commutant_dimension"))
    assert rep.basis_size == basis_size


# Every flag a command accepted and never read, by command: each now exits 2
# as an unrecognized argument, before anything runs.
IGNORED_FLAGS = {
    ("symmetries", ISING_PROBLEM): ["--seed"],
    ("bound", "unitary", CNOT_PROBLEM): ["--method", "--degree", "--sigma-min",
                                         "--sigma-max"],
    # the filter flags of the chebyshev numerator, which the command line
    # no longer offers
    ("bound", "hamiltonian", ISING_PROBLEM): ["--degree", "--sigma-min",
                                              "--sigma-max"],
    ("reproduce", "cnot"): ["--N", "--J", "--C", "--a", "--h", "--mu",
                            "--n-majorana", "--iterations", "--method",
                            "--degree", "--seed"],
    ("reproduce", "swap"): ["--g", "--C", "--a", "--h", "--mu", "--n-majorana",
                            "--iterations", "--method", "--degree", "--seed"],
    ("reproduce", "rydberg"): ["--mu", "--n-majorana", "--iterations",
                               "--seed", "--degree", "--sigma-min",
                               "--sigma-max"],
    ("reproduce", "syk"): ["--N", "--J", "--g", "--C", "--a", "--h",
                           "--degree", "--sigma-min", "--sigma-max"],
}
_FLAG_VALUES = {"--seed": "1", "--method": "exact", "--degree": "3",
                "--sigma-min": "1", "--sigma-max": "2", "--N": "3", "--J": "1",
                "--g": "2", "--C": "1", "--a": "1", "--h": "0.5", "--mu": "0",
                "--n-majorana": "6", "--iterations": "5"}


@pytest.mark.parametrize("command,flag", [
    (command, flag) for command, flags in IGNORED_FLAGS.items()
    for flag in flags], ids=lambda v: v if isinstance(v, str) else " ".join(
        Path(a).name for a in v))
def test_flag_the_command_does_not_read_exits_2(capsys, command, flag):
    """A command takes only the flags it reads."""
    code, report, err = _run(capsys, [*command, flag, _FLAG_VALUES[flag],
                                      "--json-only"])
    assert code == 2
    assert report is None
    assert "unrecognized arguments" in err and flag in err


def test_reproduce_cnot_coupling_flag_matches_golden(capsys):
    code, report, _ = _run(capsys, ["reproduce", "cnot", "--g", "1.0",
                                    "--json-only"])
    assert code == 0
    report.pop("elapsed_seconds")
    _assert_report_matches(report, GOLDEN["reproduce-cnot"]["report"])


def _python_m(*args):
    import qsl
    env = dict(os.environ)
    src = str(Path(qsl.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_python_dash_m_cli_module_warns_nothing():
    """The package resolves its command-line names lazily, so running
    ``qsl.cli`` as a script finds no copy of it already imported."""
    done = _python_m("-W", "error::RuntimeWarning", "-m", "qsl.cli",
                     "reproduce", "cnot", "--json-only")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_python_dash_m_runs_commands():
    """``python -m qsl`` is the installed ``qsl`` command."""
    done = _python_m("-m", "qsl", "reproduce", "cnot", "--json-only")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    report = json.loads(done.stdout)
    report.pop("elapsed_seconds")
    _assert_report_matches(report, GOLDEN["reproduce-cnot"]["report"])


@pytest.mark.parametrize("argv", [
    ["reproduce", "cnot", "--g", "1e308"],
    ["reproduce", "swap", "--N", "4", "--J", "1e308"],
    ["reproduce", "syk", "--n-majorana", "6", "--mu", "1e308",
     "--iterations", "1"]], ids=" ".join)
def test_coupling_that_zeroes_the_bound_ends_in_one_error_line(argv):
    """At g = 1e308 the bound's denominator 16g overflows, so the bound
    would read 0 and the literature ratio divide by it; at J = 1e308 the
    hopping energies 2J cos(pi k/(N+1)) overflow, and their differences
    would be inf - inf; at mu = 1e308 the SYK term (mu/4) Q² overflows.
    The model refuses the coupling before any of that, with no numpy
    warning."""
    done = _python_m("-W", "error::RuntimeWarning", "-m", "qsl.cli", *argv,
                     "--json-only")
    assert done.returncode != 0
    assert done.stdout == ""
    assert done.stderr.startswith("error: ")
    assert done.stderr.count("\n") == 1 and "Traceback" not in done.stderr


@pytest.mark.parametrize("g", ["1e200", "1e300"])
def test_coupling_past_the_squares_gives_a_finite_bound(g):
    """At g = 1e200 the entries' squares leave float64 but the norms do
    not: ||H_d||_F is summed again from the drift scaled by its largest
    entry, so the bound is the closed form sqrt(2)/(4g), with no numpy
    warning."""
    done = _python_m("-W", "error::RuntimeWarning", "-m", "qsl.cli",
                     "reproduce", "cnot", "--g", g, "--json-only")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    report = json.loads(done.stdout)
    assert report["bound_time"] == pytest.approx(
        math.sqrt(2) / (4 * float(g)), rel=1e-12)
    assert report["bound_time"] == pytest.approx(report["closed_form"],
                                                 rel=1e-12)


def test_rydberg_coupling_past_the_squares_gives_a_finite_bound():
    """At C = 1e300 the restored drift's commutation residual sums squares
    past float64: it is summed again over the tile pairs scaled by the
    largest entry, so the model's own ΔH is accepted and the bound is
    finite, with no numpy warning."""
    done = _python_m("-W", "error::RuntimeWarning", "-m", "qsl.cli",
                     "reproduce", "rydberg", "--N", "4", "--C", "1e300",
                     "--json-only")
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""
    report = json.loads(done.stdout)
    assert report["bound_time"] == pytest.approx(1.153385220601741e-300,
                                                 rel=1e-9)
    assert report["intermediates"]["delta_h_op_norm"] == pytest.approx(
        report["delta_h_closed_form"], rel=1e-12)


def test_non_finite_report_is_a_failed_computation(capsys, monkeypatch):
    """A report holding inf or NaN is not JSON: exit 1, one error line and
    nothing on stdout."""
    for value in (float("inf"), float("nan")):
        monkeypatch.setitem(qsl.cli._MODELS, "cnot", (
            lambda args: {"bound_time": value}, {"g": 1.0}))
        code, report, err = _run(capsys, ["reproduce", "cnot"])
        assert code == 1 and report is None
        assert err.startswith("error: ") and err.count("\n") == 1
