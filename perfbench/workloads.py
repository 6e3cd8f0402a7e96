"""The benchmark's workloads: seeded inputs, the timed solve, and its oracle.

Each workload class draws a fixed batch of requests from the seed: ``blocks``
blocks of distinct requests, each block with the same mix.  It solves one
request at a time through qsl's public entry points (``solve``, the only part
that is timed), computes an independent reference per request before any
timing (``reference``), and checks every output against it (``check``).  A
check returns ``(ok, ratio, reason)`` where ``ratio`` is the certified bound
over the reference bound used for the ``bound_ratio`` metric.

``inflate`` returns a copy of an output with its bound pushed just past what
the oracle allows; the benchmark's self-test requires ``check`` to reject it.
"""

from __future__ import annotations

import contextlib
import copy
import io
import itertools
import json
import math
import os

import numpy as np

import qsl
import qsl.bounds
import qsl.cli
import qsl.lie
import qsl.models
import qsl.perturb

REL = 1e-9      # relative slack for "bound does not exceed its reference"
DH_ABS = 1e-10  # ||ΔH||_inf against its closed form

# The oracle builds its matrices from these, not from qsl's own tables.
PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

NAMED_GATES = {"CNOT": np.eye(4, dtype=complex)[[0, 1, 3, 2]],
               "SWAP": np.eye(4, dtype=complex)[[0, 2, 1, 3]]}


def _coef(rng, lo: float, hi: float) -> float:
    """A coefficient that survives the 6-decimal Pauli text exactly."""
    return round(float(rng.uniform(lo, hi)), 6)


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


# --------------------------------------------------------------------------
# Rydberg chains: an independent dense construction and exact projection.

def rydberg_reference(N: int, J: float, g: float, h: float) -> dict:
    """Exact kernel-complement numerator of the swap of atoms 1 and 2 under
    H_s = J sum Z_i Z_{i+1} + g sum X_i + h sum Z_i (C = a = 1), built and
    diagonalised here with numpy alone, and the bounds it implies with the
    closed-form ||ΔH||_inf = (1 - 1/(N-1)^6) / 2."""
    d = 2**N
    idx = np.arange(d)
    bits = (idx[None, :] >> (N - 1 - np.arange(N))[:, None]) & 1
    z = 1.0 - 2.0 * bits
    H = np.diag(J * (z[:-1] * z[1:]).sum(axis=0) + h * z.sum(axis=0)).astype(complex)
    for i in range(N):
        H[idx ^ (1 << (N - 1 - i)), idx] += g
    b0, b1 = bits[0], bits[1]
    swapped = idx ^ ((b0 ^ b1) * ((1 << (N - 1)) | (1 << (N - 2))))
    w, V = np.linalg.eigh(H)
    frame = V.conj().T @ V[swapped, :]          # V† S V with S the swap
    gaps = np.abs(w[:, None] - w[None, :])
    num = float(np.linalg.norm(frame[gaps > 1e-8 * np.max(np.abs(w))]))
    dh = 0.5 * (1.0 - 1.0 / (N - 1)**6)
    return {"num": num, "dh": dh, "uniform": 1.0 / (4.0 * dh),
            "bound": num / (math.sqrt(2.0) * math.sqrt(d) * dh)}


def _report(rep) -> dict:
    inter = rep.intermediates
    return {"bound": rep.bound_time, "num": inter["kernel_complement_norm"],
            "sfrob": inter["symmetry_frobenius"], "dh": inter["delta_h_op_norm"],
            "degree": inter.get("degree")}


def _check_hamiltonian_report(r: dict, ref: dict) -> str | None:
    """A certified Hamiltonian bound against the exact reference."""
    if not _close(r["bound"], r["num"] / (math.sqrt(2.0) * r["sfrob"] * r["dh"])):
        return "bound does not follow from its own numerator"
    if abs(r["dh"] - ref["dh"]) > DH_ABS:
        return f"||dH||_inf {r['dh']!r} differs from closed form {ref['dh']!r}"
    if r["num"] > ref["num"] * (1 + REL):
        return f"numerator {r['num']!r} exceeds exact {ref['num']!r}"
    return None


def _inflated(r: dict, ref: dict) -> dict:
    """r with numerator and bound scaled together to 0.1 % above the exact
    reference numerator."""
    factor = 1.001 * ref["num"] / r["num"]
    return {**r, "num": r["num"] * factor, "bound": r["bound"] * factor}


def _rydberg_params(rng) -> dict:
    return {"J": float(rng.uniform(0.8, 1.2)), "g": float(rng.uniform(0.3, 0.7)),
            "h": float(rng.uniform(0.3, 0.7))}


class RydbergDense:
    """Rydberg chains at N = 9 and 10: build, exact, commutator, uniform."""

    name = "rydberg-dense"
    SIZES = (9, 10, 10)   # N=10 is the majority, so the median solve is one
    BLOCK_SECONDS = 9.0   # nominal time of one block on 2 cores

    def __init__(self, seed: int, workdir: str, blocks: int):
        rng = np.random.default_rng(seed)
        self.block = len(self.SIZES)
        self.batch = [{"N": N, **_rydberg_params(rng)}
                      for _ in range(blocks) for N in self.SIZES]

    def sizes(self) -> dict:
        return {"N": list(self.SIZES), "d": [2**N for N in self.SIZES],
                "solves": len(self.batch),
                "methods": ["exact", "commutator", "uniform"]}

    @staticmethod
    def kind(req: dict) -> str:
        return f"N={req['N']}"

    @staticmethod
    def warm_up(workdir: str) -> None:
        RydbergDense.solve({"N": 4, "J": 1.0, "g": 0.5, "h": 0.5})

    @staticmethod
    def solve(req: dict) -> dict:
        b = qsl.models.rydberg_chain_model(req["N"], J=req["J"], g=req["g"],
                                           h=req["h"])
        H, S, pert = b.target_hamiltonian, b.symmetry, b.perturbation
        exact = qsl.bounds.hamiltonian_speed_limit(H, S, pert, method="exact")
        comm = qsl.bounds.hamiltonian_speed_limit(H, S, pert, method="commutator")
        return {"exact": _report(exact), "commutator": _report(comm),
                "uniform": qsl.bounds.uniform_speed_limit(pert)}

    def reference(self, req: dict) -> dict:
        return rydberg_reference(req["N"], req["J"], req["g"], req["h"])

    def check(self, req, out, ref):
        for method in ("exact", "commutator"):
            why = _check_hamiltonian_report(out[method], ref)
            if why:
                return False, None, f"{method}: {why}"
        if out["uniform"] > ref["uniform"] * (1 + REL):
            return False, None, "uniform bound exceeds its closed form"
        best = max(out["exact"]["bound"], out["commutator"]["bound"], out["uniform"])
        return True, best / max(ref["bound"], ref["uniform"]), None

    @staticmethod
    def inflate(req, out: dict, ref: dict) -> dict:
        bad = copy.deepcopy(out)
        bad["exact"] = _inflated(out["exact"], ref)
        return bad


class RydbergFilter:
    """Rydberg chains at N = 6 through the Chebyshev filter numerator."""

    name = "rydberg-filter"
    N = 6
    PARAMETER_SETS = 3
    EPS = 1e-2
    BLOCK_SECONDS = 9.0

    def __init__(self, seed: int, workdir: str, blocks: int):
        rng = np.random.default_rng(seed)
        self.block = self.PARAMETER_SETS
        self.batch = [{"N": self.N, **_rydberg_params(rng)}
                      for _ in range(blocks * self.PARAMETER_SETS)]
        self.degrees: set[int] = set()

    def sizes(self) -> dict:
        return {"N": self.N, "d": 2**self.N, "solves": len(self.batch),
                "eps_target": self.EPS, "degree": sorted(self.degrees)}

    kind = staticmethod(RydbergDense.kind)

    @staticmethod
    def warm_up(workdir: str) -> None:
        b = qsl.models.rydberg_chain_model(4)
        qsl.bounds.hamiltonian_speed_limit(b.target_hamiltonian, b.symmetry,
                                           b.perturbation, method="chebyshev",
                                           degree=10)

    def solve(self, req: dict) -> dict:
        b = qsl.models.rydberg_chain_model(req["N"], J=req["J"], g=req["g"],
                                           h=req["h"])
        lo, hi = b.spectral_estimates
        degree = qsl.bounds.chebyshev_degree_for(self.EPS, lo, hi)
        rep = qsl.bounds.hamiltonian_speed_limit(
            b.target_hamiltonian, b.symmetry, b.perturbation, method="chebyshev",
            degree=degree, sigma_min_est=lo, sigma_max_est=hi)
        return _report(rep)

    def reference(self, req: dict) -> dict:
        return rydberg_reference(req["N"], req["J"], req["g"], req["h"])

    def check(self, req, out, ref):
        why = _check_hamiltonian_report(out, ref)
        if why:
            return False, None, why
        self.degrees.add(int(out["degree"]))
        return True, out["bound"] / ref["bound"], None

    @staticmethod
    def inflate(req, out: dict, ref: dict) -> dict:
        return _inflated(out, ref)


# --------------------------------------------------------------------------
# The CLI request mix.

def _pauli_text(terms) -> str:
    """'c Z0 Z1 - c' X1 ...' in the CLI's Pauli grammar (unsigned numbers)."""
    out = []
    for k, (coef, factors) in enumerate(terms):
        sign = "-" if coef < 0 else ("+" if k else "")
        out.append(f"{sign} {abs(coef):.6f} {factors}".strip())
    return " ".join(out)


def _pauli_matrix(terms, n: int) -> np.ndarray:
    M = np.zeros((2**n, 2**n), dtype=complex)
    for coef, factors in terms:
        ops = dict((int(f[1:]), f[0]) for f in factors.split())
        term = np.eye(1, dtype=complex)
        for q in range(n):
            term = np.kron(term, PAULI[ops.get(q, "I")])
        M += coef * term
    return M


def _random_local_unitary(rng) -> np.ndarray:
    def one():
        q, r = np.linalg.qr(rng.standard_normal((2, 2))
                            + 1j * rng.standard_normal((2, 2)))
        return q * (np.diag(r) / np.abs(np.diag(r)))
    return np.kron(one(), one())


def _to_json_matrix(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _lift(H: np.ndarray) -> np.ndarray:
    eye = np.eye(H.shape[0])
    return np.kron(H, eye) + np.kron(eye, H)


class ProblemMix:
    """A shuffled stream of CLI requests on problem files written at set-up.

    Kinds and counts per block are chosen so each kind takes a comparable
    share of the block's wall time on a 2-core machine, and so the median
    solve falls inside the `symmetries` listings on d=4, whose cost does not
    depend on the drawn coefficients: the 10 Hamiltonian requests and 2 d=8
    listings are faster, the 7 gate and SYK requests slower.  SYK requests
    are few because their cost varies fivefold with the seed.
    """

    name = "problem-mix"
    GATES = 5             # 2-qubit quadratic `bound unitary` requests
    GATE_ITERS = 20
    HAMILTONIANS = 5      # 3-qubit linear problems, each with 2 methods
    HAM_ITERS = 40
    SYK = 2               # `reproduce syk --n-majorana 8`
    SYK_MAJORANA = 8
    SYMMETRY_GATES = 8    # `symmetries` on gate problems (d=4, both kinds)
    SYMMETRY_HAMS = 2     # `symmetries` on 3-qubit problems (d=8)
    LOCAL_PAIRS = (("X", "Z"), ("X", "Y"), ("Y", "Z"))
    BLOCK_SECONDS = 9.0

    def __init__(self, seed: int, workdir: str, blocks: int):
        rng = np.random.default_rng(seed)
        os.makedirs(workdir, exist_ok=True)
        self.batch = []
        for b in range(blocks):
            self.batch += self._block(rng, workdir, b)
        self.block = len(self.batch) // blocks

    def _block(self, rng, workdir, b) -> list:
        gates = [self._gate_problem(rng, workdir, f"{b}-{k}")
                 for k in range(max(self.GATES, self.SYMMETRY_GATES))]
        hams = [self._hamiltonian_problem(rng, workdir, f"{b}-{k}")
                for k in range(self.HAMILTONIANS)]
        batch = []
        for p in gates[:self.GATES]:
            batch.append({**p, "kind": "gate", "argv": [
                "bound", "unitary", p["path"], "--optimize-symmetry",
                str(self.GATE_ITERS), "--seed", str(int(rng.integers(1000))),
                "--json-only"]})
        for p, method in itertools.product(hams, ("exact", "commutator")):
            batch.append({**p, "kind": "hamiltonian", "method": method, "argv": [
                "bound", "hamiltonian", p["path"], "--method", method,
                "--optimize-symmetry", str(self.HAM_ITERS),
                "--seed", str(int(rng.integers(1000))), "--json-only"]})
        for _ in range(self.SYK):
            s = int(rng.integers(1000))
            batch.append({"kind": "syk", "seed": s, "argv": [
                "reproduce", "syk", "--n-majorana", str(self.SYK_MAJORANA),
                "--seed", str(s), "--json-only"]})
        for p in gates[:self.SYMMETRY_GATES] + hams[:self.SYMMETRY_HAMS]:
            listing = p["path"].replace(".json", "-all.json")
            batch.append({**p, "kind": "symmetries",
                          "argv": ["symmetries", listing, "--json-only"]})
        return [batch[i] for i in rng.permutation(len(batch))]

    def _write(self, workdir, name, problem) -> str:
        """Write the problem, plus a copy without options for `symmetries`
        (which then lists both kinds); return the first path."""
        path = os.path.join(workdir, name + ".json")
        for p, body in ((path, problem),
                        (os.path.join(workdir, name + "-all.json"),
                         {k: v for k, v in problem.items() if k != "options"})):
            with open(p, "w", encoding="utf-8") as fh:
                json.dump(body, fh)
        return path

    def _gate_problem(self, rng, workdir, k) -> dict:
        """Ising coupling g Z0 Z1 plus local fields, full local control.

        With unbounded local control the fastest known implementation of
        CNOT takes pi/(4|g|), SWAP 3 pi/(4|g|), and a locally dressed
        CZ(phi) phi/(4|g|); every certified bound must stay below them.
        """
        g = float(rng.choice([-1, 1])) * _coef(rng, 0.5, 1.5)
        pairs = [self.LOCAL_PAIRS[int(rng.integers(3))] for _ in range(2)]
        drift = [(g, "Z0 Z1"), (_coef(rng, -0.5, 0.5), f"{pairs[0][0]}0"),
                 (_coef(rng, -0.5, 0.5), f"{pairs[1][1]}1")]
        controls = [[(1.0, f"{p}{q}")] for q, pair in enumerate(pairs) for p in pair]
        choice = int(rng.integers(3))
        if choice < 2:
            name = ("CNOT", "SWAP")[choice]
            target, U = {"named": name}, NAMED_GATES[name]
            t_reach = (1, 3)[choice] * math.pi / (4 * abs(g))
        else:
            phi = float(rng.uniform(math.pi / 3, math.pi))
            cz = np.diag([1, 1, 1, np.exp(1j * phi)])
            U = _random_local_unitary(rng) @ cz @ _random_local_unitary(rng)
            target, t_reach = {"matrix": _to_json_matrix(U)}, phi / (4 * abs(g))
        problem = {"qubits": 2, "drift": {"pauli": _pauli_text(drift)},
                   "controls": [{"pauli": _pauli_text(c)} for c in controls],
                   "target": {"unitary": target}, "options": {"kind": "quadratic"}}
        return {"path": self._write(workdir, f"gate{k}", problem),
                "qubits": 2, "drift": drift, "controls": controls, "U": U,
                "t_reach": t_reach, "expected_counts": {"linear": 1, "quadratic": 4}}

    def _hamiltonian_problem(self, rng, workdir, k) -> dict:
        """Unequal ZZ couplings under global X and Z control, so the drift
        breaks the permutation symmetry the controls keep."""
        drift = [(_coef(rng, 0.5, 1.5), f) for f in ("Z0 Z1", "Z1 Z2", "Z0 Z2")]
        a = _coef(rng, 0.2, 1.0)
        target = [(_coef(rng, 0.5, 1.5), "Z0 Z1"), (_coef(rng, 0.5, 1.5), "Z1 Z2")]
        target += [(a, f"X{q}") for q in range(3)]
        controls = [[(1.0, f"{p}{q}") for q in range(3)] for p in ("X", "Z")]
        problem = {"qubits": 3, "drift": {"pauli": _pauli_text(drift)},
                   "controls": [{"pauli": _pauli_text(c)} for c in controls],
                   "target": {"hamiltonian": {"pauli": _pauli_text(target)}},
                   "options": {"kind": "linear"}}
        return {"path": self._write(workdir, f"ham{k}", problem),
                "qubits": 3, "drift": drift, "controls": controls, "target": target,
                # dimension of the commutant of collective SU(2) on 3 qubits
                "expected_counts": {"linear": 5, "quadratic": None}}

    def sizes(self) -> dict:
        kinds: dict = {}
        for r in self.batch:
            kinds[r["kind"]] = kinds.get(r["kind"], 0) + 1
        return {"requests": len(self.batch), "request_counts": kinds,
                "d": {"gate": 4, "hamiltonian": 8, "syk": 2**(self.SYK_MAJORANA // 2),
                      "symmetries": [4, 8]},
                "iterations": {"gate": self.GATE_ITERS, "hamiltonian": self.HAM_ITERS,
                               "syk": "CLI default (60)"}}

    @staticmethod
    def kind(req: dict) -> str:
        return req["kind"]

    @staticmethod
    def warm_up(workdir: str) -> None:
        path = os.path.join(workdir, "ham0-0-all.json")
        ProblemMix.solve({"argv": ["symmetries", path, "--json-only"]})

    @staticmethod
    def solve(req: dict) -> tuple[int, str]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = qsl.cli.run_command(req["argv"])
        return code, out.getvalue()

    # -- oracle ------------------------------------------------------------

    @staticmethod
    def _best_single(basis, bound) -> float:
        """Best bound over single basis elements, skipping degenerate ones
        exactly as the optimiser does."""
        best = -math.inf
        for sym in basis:
            try:
                best = max(best, bound(sym))
            except qsl.QslError:
                continue
        return best

    def reference(self, req: dict) -> dict:
        kind = req["kind"]
        if kind == "symmetries":
            return {}
        if kind == "syk":
            H = qsl.models.syk_model(self.SYK_MAJORANA, seed=req["seed"])
            basis = qsl.lie.commutant_basis(qsl.models.global_controls(
                self.SYK_MAJORANA // 2))
            best = self._best_single(basis, lambda s: qsl.bounds.hamiltonian_speed_limit(
                H, s, qsl.perturb.restore_symmetry(s, H), method="exact").bound_time)
            return {"best_single": best, "commutant_dimension": 14}
        n = req["qubits"]
        drift = _pauli_matrix(req["drift"], n)
        controls = [_pauli_matrix(c, n) for c in req["controls"]]
        if kind == "gate":
            basis = qsl.lie.quadratic_symmetry_basis(controls)
            best = self._best_single(basis, lambda s: qsl.bounds.unitary_speed_limit(
                req["U"], s, qsl.perturb.restore_symmetry(s, drift)).bound_time)
        else:
            target = _pauli_matrix(req["target"], n)
            basis = qsl.lie.commutant_basis(controls)
            best = self._best_single(basis, lambda s: qsl.bounds.hamiltonian_speed_limit(
                target, s, qsl.perturb.restore_symmetry(s, drift),
                method=req["method"]).bound_time)
        return {"best_single": best}

    def check(self, req, out, ref):
        code, text = out
        if code != 0:
            return False, None, f"exit code {code}"
        try:
            rep = json.loads(text)
        except json.JSONDecodeError as exc:
            return False, None, f"output is not JSON: {exc}"
        kind = req["kind"]
        if kind == "symmetries":
            why = self._check_symmetries(req, rep)
            return why is None, None, why
        inter = rep["intermediates"]
        bound = rep["bound_time"]
        if kind == "gate":
            if rep["theorem"] != "T1a":
                return False, None, f"theorem {rep['theorem']}"
            implied = inter["breaking_norm"] / (
                4 * inter["symmetry_frobenius"] * inter["delta_h_op_norm"])
            if bound > req["t_reach"] * (1 + REL):
                return False, None, (f"bound {bound!r} exceeds the reachable "
                                     f"time {req['t_reach']!r}")
        else:
            if rep["theorem"] != "T2b":
                return False, None, f"theorem {rep['theorem']}"
            implied = inter["kernel_complement_norm"] / (
                math.sqrt(2) * inter["symmetry_frobenius"] * inter["delta_h_op_norm"])
            if inter["kernel_complement_norm"] > inter["symmetry_frobenius"] * (1 + REL):
                return False, None, "kernel-complement norm exceeds ||S||_F"
            if kind == "syk" and rep["commutant_dimension"] != ref["commutant_dimension"]:
                return False, None, f"commutant dimension {rep['commutant_dimension']}"
        if not _close(bound, implied):
            return False, None, "bound does not follow from its intermediates"
        if bound < ref["best_single"] * (1 - REL):
            return False, None, (f"optimiser result {bound!r} below the best "
                                 f"basis element {ref['best_single']!r}")
        return True, bound / ref["best_single"], None

    def _check_symmetries(self, req, rep) -> str | None:
        n = req["qubits"]
        controls = [_pauli_matrix(c, n) for c in req["controls"]]
        for kind, expected in req["expected_counts"].items():
            entry = rep["symmetries"][kind]
            if expected is None:
                if "skipped" not in entry:
                    return f"{kind}: expected the dimension cap to skip it"
                continue
            if entry.get("count") != expected:
                return f"{kind}: {entry.get('count')} symmetries, expected {expected}"
            mats = [np.asarray(m)[..., 0] + 1j * np.asarray(m)[..., 1]
                    for m in entry["matrices"]]
            ops = controls if kind == "linear" else [_lift(c) for c in controls]
            gram = np.array([[np.vdot(A, B) for B in mats] for A in mats])
            if not np.allclose(gram, np.eye(len(mats)), atol=1e-8):
                return f"{kind}: basis is not orthonormal"
            for M in mats:
                if not np.allclose(M, M.conj().T, atol=1e-8):
                    return f"{kind}: symmetry is not Hermitian"
                if any(np.linalg.norm(op @ M - M @ op) > 1e-7 for op in ops):
                    return f"{kind}: symmetry does not commute with the controls"
        return None

    @staticmethod
    def inflate(req, out, ref):
        """Scale a bound and its numerator together, just past the reachable
        time (gates) or the projection limit ||S||_F (Hamiltonians), so only
        those oracles can catch it."""
        code, text = out
        rep = json.loads(text)
        if "bound_time" not in rep:
            return None
        inter = rep["intermediates"]
        if req["kind"] == "gate":
            key, factor = "breaking_norm", 1.01 * req["t_reach"] / rep["bound_time"]
        else:
            key = "kernel_complement_norm"
            factor = 1.01 * inter["symmetry_frobenius"] / inter[key]
        rep["bound_time"] *= factor
        inter[key] *= factor
        return code, json.dumps(rep)


WORKLOADS = {cls.name: cls for cls in (RydbergDense, RydbergFilter, ProblemMix)}
