"""The symmetry search's stacked scorer against the public path.

The CLI scores the candidates of ``optimize_symmetry`` with a private
``bounds._StackScorer``, prepared once per request, a stack of candidates at
a time.  Each of its values must be the bound that ``restore_symmetry`` and
the public speed limit give that candidate, and -inf exactly where that path
raises; the search must then pick the symmetry that the reference optimiser
of ``test_bounds`` picks with the public objective.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qsl
import qsl.lie
import qsl.perturb
from qsl import bounds
from qsl.bounds import (
    _StackScorer,
    hamiltonian_speed_limit,
    optimize_symmetry,
    unitary_speed_limit,
)
from qsl.cli import load_problem
from qsl.lie import Symmetry, commutant_basis, quadratic_symmetry_basis
from qsl.matcore import (
    ConditioningError,
    QslError,
    ValidationError,
    _lift,
    permutation_operator,
)
from qsl.models import global_controls, syk_model
from qsl.perturb import restore_symmetry
from conftest import random_hermitian, random_unitary
from test_bounds import optimize_symmetry_reference
from test_cli import CNOT_PROBLEM, ISING_PROBLEM

TARGETS = ["unitary", "exact", "commutator"]


def _public_objective(H_d, U=None, H_s=None, **kwargs):
    """The CLI's objective through the public functions."""
    if U is not None:
        return lambda s: unitary_speed_limit(
            U, s, restore_symmetry(s, H_d)).bound_time
    return lambda s: hamiltonian_speed_limit(
        H_s, s, restore_symmetry(s, H_d), **kwargs).bound_time


def _public_value(objective, sym) -> float:
    try:
        return float(objective(sym))
    except QslError:
        return -np.inf


def _unit(M):
    return M / np.linalg.norm(M)


def _candidates(rng, kind, d, H_d):
    """Unit-Frobenius candidates: random complex and real ones, and ones the
    drift keeps (the identity, a polynomial in H_d for linear S, the lift of
    H_d and the copy swap for quadratic S).  Each is the matrix of a
    ``Symmetry``, exactly Hermitian as the scorer takes it: H_d @ H_d is
    Hermitian only to rounding."""
    D = d if kind == "linear" else d * d
    rows = [random_hermitian(rng, D) for _ in range(3)]
    real = rng.standard_normal((D, D))
    rows += [real + real.T, np.eye(D)]
    if kind == "linear":
        rows.append(H_d @ H_d - 0.7 * H_d)
    else:
        rows += [_lift(H_d), permutation_operator([1, 0], [d, d])]
    rows = [_unit(Symmetry(kind, M).matrix) for M in rows]
    return np.array([rows[i] for i in rng.permutation(len(rows))])


@given(kind=st.sampled_from(["linear", "quadratic"]),
       target=st.sampled_from(TARGETS), d=st.integers(2, 4),
       seed=st.integers(0, 2**32 - 1), real_drift=st.booleans(),
       degenerate=st.booleans(), tol=st.sampled_from([None, 1e-6]))
@settings(max_examples=160, deadline=None)
def test_scores_equal_the_public_bound(kind, target, d, seed, real_drift,
                                       degenerate, tol):
    """kind x target x method: each row's value is the public bound at rel
    1e-10, and -inf exactly where the public path raises.  A degenerate
    H_s has repeated eigenvalues, so the exact kernel has blocks."""
    if kind == "quadratic":
        d = min(d, 3)
    rng = np.random.default_rng(seed)
    H_d = random_hermitian(rng, d)
    if real_drift:
        H_d = H_d.real + H_d.real.T
    U = H_s = None
    if target == "unitary":
        U = random_unitary(rng, d)
    else:
        V = random_unitary(rng, d)
        w = rng.standard_normal(d)
        if degenerate:
            w[1:] = w[0] if d == 2 else np.round(w[1:])
        H_s = (V * w) @ V.conj().T
    M = _candidates(rng, kind, d, H_d)
    kwargs = {} if target == "unitary" else {"method": target,
                                             "tol_degeneracy": tol}
    scorer = _StackScorer(Symmetry(kind, M[0]), H_d, target_unitary=U,
                          target_hamiltonian=H_s, **kwargs)
    got = scorer(M)
    objective = _public_objective(H_d, U, H_s, **kwargs)
    want = np.array([_public_value(objective, Symmetry(kind, m)) for m in M])
    assert np.array_equal(np.isneginf(got), np.isneginf(want)), (got, want)
    live = ~np.isneginf(want)
    assert live.any()  # the random candidates break the drift
    np.testing.assert_allclose(got[live], want[live], rtol=1e-10, atol=0)


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
def test_unrestored_rows_score_minus_inf(monkeypatch, kind):
    """A solve whose ΔH leaves H_d + ΔH breaking S: the public path raises
    ConditioningError on that row and the scorer gives it -inf; rows whose
    drift keeps S score -inf as well."""
    rng = np.random.default_rng(4)
    H_d = random_hermitian(rng, 2)
    M = _candidates(rng, kind, 2, H_d)
    monkeypatch.setattr(qsl.perturb, f"_restore_{kind}",
                        lambda S, H, *setup: -0.5 * H)
    scorer = _StackScorer(Symmetry(kind, M[0]), H_d,
                          target_unitary=random_unitary(rng, 2))
    assert np.isneginf(scorer(M)).all()
    unrestored = 0
    for m in M:
        try:
            restore_symmetry(Symmetry(kind, m), H_d)
        except ConditioningError:
            unrestored += 1
    assert unrestored >= 3  # the random candidates


def test_scorer_refuses_every_row_where_the_problem_is_refused():
    """A target of the wrong dimension, a zero H_s (commutator) or a
    negative degeneracy cut raises on every row of the public path: every
    row scores -inf."""
    rng = np.random.default_rng(3)
    H_d = random_hermitian(rng, 3)
    M = _candidates(rng, "linear", 3, H_d)
    like = Symmetry("linear", M[0])
    zero = np.zeros((3, 3))
    for scorer in (_StackScorer(like, H_d, target_unitary=np.eye(2)),
                   _StackScorer(like, H_d, target_hamiltonian=zero,
                                method="commutator"),
                   _StackScorer(like, H_d, target_hamiltonian=np.eye(3),
                                tol_degeneracy=-1.0)):
        assert np.isneginf(scorer(M)).all()


def _check_pipeline(H_d, controls, U, H_s, opts):
    """The symmetry the CLI pipeline chose is the reference optimiser's on
    the public objective."""
    rep = qsl.bound(qsl.Problem(H_d, controls, U, H_s), **opts)
    kind = opts.get("kind") or ("quadratic" if U is not None else "linear")
    basis = (quadratic_symmetry_basis if kind == "quadratic"
             else commutant_basis)(controls)
    kwargs = {} if U is not None else {
        "method": opts.get("method") or "exact",
        "tol_degeneracy": opts.get("tol")}
    want = optimize_symmetry_reference(
        basis, _public_objective(H_d, U, H_s, **kwargs),
        iterations=opts["optimize_symmetry"], seed=opts["seed"])
    assert np.array_equal(rep.symmetry.matrix, want.matrix)
    return rep


@pytest.mark.parametrize("method", ["exact", "commutator"])
def test_cli_search_on_ising3(method):
    spec, options, _ = load_problem(ISING_PROBLEM)
    _check_pipeline(spec.drift, spec.controls, None, spec.target_hamiltonian,
                    {**options, "method": method,
                     "optimize_symmetry": 12, "seed": 2})


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
def test_cli_search_on_cnot(kind):
    """Full local control leaves the identity as the one linear symmetry,
    which the drift keeps: that kind is refused before any search."""
    spec, options, _ = load_problem(CNOT_PROBLEM)
    opts = {**options, "kind": kind, "optimize_symmetry": 12, "seed": 1}
    if kind == "linear":
        with pytest.raises(ValidationError, match="no time bound follows"):
            qsl.bound(spec, **opts)
        return
    _check_pipeline(spec.drift, spec.controls, spec.target_unitary, None, opts)


@pytest.mark.parametrize("path", [ISING_PROBLEM, CNOT_PROBLEM],
                         ids=["ising3", "cnot"])
def test_searched_symmetry_is_rechecked(monkeypatch, path):
    """The search returns a combination of the basis, so ``qsl.bound``
    re-checks it against the (lifted) controls before restoring it: a
    returned matrix that does not commute with them is refused."""
    problem, options, _ = load_problem(path)
    checked = []

    def recording(mats, ops):
        checked.append((np.array(mats), np.array(ops)))
        return qsl.lie._verify_commutation(mats, ops)
    monkeypatch.setattr(bounds, "_verify_commutation", recording)
    rep = qsl.bound(problem, **{**options, "optimize_symmetry": 3})
    [(mats, ops)] = checked
    assert np.array_equal(mats, [rep.symmetry.matrix])
    lifted = rep.symmetry.kind == "quadratic"
    assert np.array_equal(ops, _lift(np.array(problem.controls)) if lifted
                          else problem.controls)

    rng = np.random.default_rng(0)
    stray = Symmetry(rep.symmetry.kind, random_hermitian(rng, len(mats[0])))
    monkeypatch.setattr(bounds, "optimize_symmetry", lambda *a, **k: stray)
    monkeypatch.setattr(bounds, "restore_symmetry", None)  # never reached
    with pytest.raises(ConditioningError, match="commutation re-check"):
        qsl.bound(problem, **options)


def test_given_symmetry_is_not_rechecked(monkeypatch):
    """A symmetry the problem gives is the caller's: ``qsl.bound`` neither
    searches nor re-checks it (at Rydberg N = 10 that would be d³ work)."""
    monkeypatch.setattr(bounds, "_verify_commutation", None)
    monkeypatch.setattr(bounds, "optimize_symmetry", None)
    bundle = qsl.rydberg_chain_model(5)
    rep = qsl.bound(bundle)
    assert rep.symmetry is bundle.symmetry and rep.basis_size is None


@pytest.mark.parametrize("iterations", [0, 5])
def test_non_hermitian_target_is_named_before_discovery(monkeypatch,
                                                        iterations):
    """A target Hamiltonian that is not Hermitian is refused once, with an
    error that names it, before any symmetry is discovered or scored (the
    scorer would give every candidate -inf and hide why)."""
    monkeypatch.setattr(bounds, "_symmetry_basis", None)  # never reached
    problem = qsl.Problem(np.diag([1.0, -1.0]), [np.array([[0, 1], [1, 0]])],
                          target_hamiltonian=[[0, 1], [0, 0]])
    with pytest.raises(ValidationError, match="^target hamiltonian: matrix "
                       "is not Hermitian"):
        qsl.bound(problem, optimize_symmetry=iterations)


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("seed", range(4))
def test_cli_search_on_syk(n, seed):
    H = syk_model(n, seed=seed)
    _check_pipeline(H, global_controls(n // 2), None, H,
                    {"kind": "linear", "method": "exact",
                     "optimize_symmetry": 6, "seed": seed})


@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["linear", "quadratic"]),
       target=st.sampled_from(TARGETS), iterations=st.integers(0, 4))
@settings(max_examples=10, deadline=None)
def test_cli_search_on_random_problems(seed, kind, target, iterations):
    """Two qubits: qubit 0 fully controlled, qubit 1 along one random axis;
    a random drift and a random unitary or Hamiltonian target."""
    rng = np.random.default_rng(seed)
    one = np.eye(2)
    controls = [np.kron(random_hermitian(rng, 2), one),
                np.kron(random_hermitian(rng, 2), one),
                np.kron(one, random_hermitian(rng, 2))]
    H_d = random_hermitian(rng, 4)
    U = random_unitary(rng, 4) if target == "unitary" else None
    H_s = None if U is not None else random_hermitian(rng, 4)
    try:
        _check_pipeline(H_d, controls, U, H_s,
                        {"kind": kind, "method": None if U is not None
                         else target, "optimize_symmetry": iterations,
                         "seed": seed % 1000})
    except ValidationError as exc:  # a drift that keeps every symmetry
        assert "no time bound follows" in str(exc)


def test_plain_objective_sees_the_reference_candidates():
    """A plain callable is called once per candidate, in the reference's
    order, with the reference's matrices bit for bit: no speculative call."""
    basis = commutant_basis(global_controls(3))
    rng = np.random.default_rng(8)
    H_s, H_d = random_hermitian(rng, 8), random_hermitian(rng, 8)
    objective = _public_objective(H_d, H_s=H_s)
    seen = {"library": [], "reference": []}

    def recording(name):
        def record(sym):
            seen[name].append(sym.matrix)
            return objective(sym)
        return record

    got = optimize_symmetry(basis, recording("library"), iterations=15, seed=3)
    want = optimize_symmetry_reference(basis, recording("reference"),
                                       iterations=15, seed=3)
    assert np.array_equal(got.matrix, want.matrix)
    assert len(seen["library"]) == len(seen["reference"])
    for a, b in zip(seen["library"], seen["reference"]):
        assert np.array_equal(a, b)


class _RecordingScorer(_StackScorer):
    """A stacked objective that keeps every stack it is given and scores
    it with seeded random values, so the search visits random, basis and
    refinement rows alike."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.stacks = []

    def __call__(self, S):
        self.stacks.append(S.copy())
        return self.rng.standard_normal(len(S))


@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 5),
       n=st.integers(1, 4), dtypes=st.sampled_from(["real", "complex",
                                                    "mixed"]),
       iterations=st.integers(0, 12))
@settings(max_examples=60, deadline=None)
def test_every_candidate_is_exactly_hermitian(seed, d, n, dtypes,
                                              iterations):
    """Real coefficients times exactly Hermitian matrices, summed in one
    order, plus a real diagonal shift and a real scale: every row of every
    stack ``optimize_symmetry`` hands the scorer is exactly Hermitian, so
    the scorer need not hermitise it."""
    rng = np.random.default_rng(seed)
    basis = []
    for k in range(n):
        real = dtypes == "real" or (dtypes == "mixed" and k % 2 == 0)
        A = rng.standard_normal((d, d))
        if not real:
            A = A + 1j * rng.standard_normal((d, d))
        basis.append(Symmetry("linear", (A + A.conj().T) / 2))
    assert all(np.array_equal(b.matrix, b.matrix.conj().T) for b in basis)
    scorer = _RecordingScorer(seed)
    optimize_symmetry(basis, scorer, iterations=iterations, seed=seed % 1000)
    assert scorer.stacks
    for S in scorer.stacks:
        assert np.array_equal(S, S.conj().swapaxes(-1, -2))


@pytest.mark.parametrize("kind", ["linear", "quadratic"])
def test_chunk_size_never_changes_the_choice(monkeypatch, kind):
    """Refinement trials scored in stacks of 1, 2, 5 or 50 rows, or random
    rows in stacks of 3: the same symmetry."""
    spec = load_problem(ISING_PROBLEM if kind == "linear" else CNOT_PROBLEM)[0]
    controls = spec.controls
    basis = (commutant_basis if kind == "linear"
             else quadratic_symmetry_basis)(controls)
    scorer = _StackScorer(basis[0], spec.drift,
                          target_unitary=spec.target_unitary,
                          target_hamiltonian=spec.target_hamiltonian)
    chosen = []
    for chunk, entries in ((1, 2**16), (2, 2**16), (5, 2**16), (50, 2**16),
                           (6, 3 * len(basis) * basis[0].dimension**2)):
        monkeypatch.setattr(bounds, "_REFINE_CHUNK", chunk)
        monkeypatch.setattr(bounds, "_STACK_ENTRIES", entries)
        chosen.append(optimize_symmetry(basis, scorer, iterations=20,
                                        seed=5).matrix)
    for M in chosen[1:]:
        assert np.array_equal(M, chosen[0])
