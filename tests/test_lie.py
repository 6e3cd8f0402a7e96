import tracemalloc

import numpy as np
import pytest

from hypothesis import assume, given, settings, strategies as st

from qsl import lie
from qsl.lie import (
    Symmetry,
    _canonical_basis,
    _verify_commutation,
    commutant_basis,
    quadratic_symmetry_basis,
    symmetry_breaking_norm,
)
from qsl.matcore import (
    ConditioningError,
    DimensionCapError,
    PAULI,
    TAU_RANK,
    ValidationError,
    commutator,
    frobenius_norm,
    hermitize,
    iota,
    kron,
)
from qsl.models import coupled_qubit_model, global_controls
from conftest import (
    adjoint_superoperator,
    canonical_by_projector,
    cluster_gap,
    projector_distance,
    random_hermitian,
    random_unitary,
    refined_commutant_projector,
    relative_defects,
    span_residual,
    svd_commutant,
    svd_nullspace,
)

X, Y, Z, I2 = PAULI["X"], PAULI["Y"], PAULI["Z"], PAULI["I"]

CNOT_CONTROLS = [kron(X, I2), kron(Z, I2), kron(I2, X), kron(I2, Z)]
# the controls X0, Y0, Y1, Z1: their quadratic span, the copy swaps, is
# real, though discovery works in complex128
Y_CONTROLS = [kron(X, I2), kron(Y, I2), kron(I2, Y), kron(I2, Z)]


class TestCommutant:
    def test_single_x_commutant(self):
        basis = commutant_basis([X])
        assert len(basis) == 2
        for sym in basis:
            assert span_residual(sym.matrix, []) > 0  # nonzero matrices
            assert frobenius_norm(commutator(sym.matrix, X)) < 1e-10
        # span includes both I and X
        assert span_residual(np.eye(2), basis) < 1e-10
        assert span_residual(X, basis) < 1e-10

    def test_global_controls_three_qubits(self):
        basis = commutant_basis(global_controls(3))
        assert len(basis) == 5

    def test_global_commutant_contains_transpositions(self):
        from qsl.matcore import permutation_operator

        basis = commutant_basis(global_controls(3))
        dims = [2, 2, 2]
        for perm in ([1, 0, 2], [0, 2, 1], [2, 1, 0]):
            M = permutation_operator(perm, dims)
            assert span_residual(M, basis) < 1e-8

    def test_cnot_controls_have_trivial_commutant(self):
        basis = commutant_basis(CNOT_CONTROLS)
        assert len(basis) == 1
        assert span_residual(np.eye(4), basis) < 1e-10

    def test_elements_commute_and_are_orthonormal(self, rng):
        ops = [random_hermitian(rng, 3) for _ in range(2)]
        basis = commutant_basis(ops)
        for i, a in enumerate(basis):
            for op in ops:
                assert frobenius_norm(commutator(a.matrix, op)) < 1e-8
            for j, b in enumerate(basis):
                overlap = np.trace(a.matrix.conj().T @ b.matrix).real
                assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-8)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf"), 0.0,
                                     1.0, 5.0])
    @pytest.mark.parametrize("find", [commutant_basis, quadratic_symmetry_basis])
    def test_unusable_tolerance_rejected(self, find, tol):
        """Such a cut returns an empty basis: every commutant holds the
        identity.  At tol >= 1 no singular value exceeds tol · s_max."""
        with pytest.raises(ValidationError, match="rank tolerance"):
            find([X, Z], tol=tol)


class TestCommutationRecheck:
    """Discovery re-checks [L, M] = 0 for every element M and control L,
    the guard against a false symmetry, at a rounding-level cut on the
    relative defect that no rank tolerance widens."""

    def test_element_off_the_commutant_is_refused(self, rng):
        basis = [s.matrix for s in commutant_basis(global_controls(3))]
        off = basis[1] + 1e-3 * random_hermitian(rng, 8)
        with pytest.raises(ConditioningError) as err:
            _verify_commutation(basis[:1] + [off], global_controls(3))
        diag = err.value.diagnostics
        assert set(diag) == {"defect", "scale"}
        assert diag["defect"] > 1e-5 * diag["scale"]

    def test_cut_is_rounding_level(self, rng):
        """A defect of 1e-12 relative is refused: under the old cut,
        100·tol·scale, it passed at every tolerance above 1e-14."""
        controls = global_controls(3)
        M = commutant_basis(controls)[1].matrix
        E = random_hermitian(rng, 8)
        off = M + 1e-12 * np.linalg.norm(M) * E / np.linalg.norm(E)
        assert relative_defects([off], controls).max() > 1e-14
        with pytest.raises(ConditioningError):
            _verify_commutation([off], controls)

    def test_discovered_bases_pass(self):
        ising3 = global_controls(3)
        for controls in (CNOT_CONTROLS, ising3):
            _verify_commutation([s.matrix for s in commutant_basis(controls)],
                                controls)
        lifts = [iota(C) for C in CNOT_CONTROLS]
        _verify_commutation(
            [s.matrix for s in quadratic_symmetry_basis(CNOT_CONTROLS)],
            lifts)

    @pytest.mark.parametrize("tol", [0.5, 0.7, 0.8])
    @pytest.mark.parametrize("find", [commutant_basis, quadratic_symmetry_basis])
    def test_large_tolerance_is_refused_or_exact(self, find, tol):
        """A rank cut that lets non-null directions through is refused by
        the re-check (ConditioningError); whatever it returns commutes."""
        controls = [kron(X, I2), kron(Z, I2)]
        try:
            basis = find(controls, tol=tol)
        except ConditioningError:
            return
        lifts = ([iota(C) for C in controls] if find is quadratic_symmetry_basis
                 else controls)
        assert relative_defects([s.matrix for s in basis], lifts).max() < 1e-14


class TestQuadraticSymmetries:
    def test_cnot_controls_dimension(self):
        basis = quadratic_symmetry_basis(CNOT_CONTROLS)
        assert len(basis) == 4
        for sym in basis:
            assert sym.kind == "quadratic"
            assert sym.base_dimension == 4

    def test_contains_the_coupled_qubit_invariant(self):
        basis = quadratic_symmetry_basis(CNOT_CONTROLS)
        S = coupled_qubit_model(1.0).symmetry.matrix
        assert span_residual(S, basis) <= 1e-8

    def test_elements_commute_with_lifts(self):
        for sym in quadratic_symmetry_basis([X]):
            assert frobenius_norm(commutator(sym.matrix, iota(X))) < 1e-8

    def test_full_algebra_leaves_identity_and_swap(self):
        from qsl.matcore import permutation_operator

        for d in (2, 3):
            ops = []
            for a in range(d):
                for b in range(a + 1, d):
                    real = np.zeros((d, d))
                    real[a, b] = real[b, a] = 1.0
                    imag = np.zeros((d, d), dtype=complex)
                    imag[a, b] = -1j
                    imag[b, a] = 1j
                    ops.extend([real, imag])
            for k in range(1, d):
                diag = np.zeros(d)
                diag[:k] = 1.0
                diag[k] = -float(k)
                ops.append(np.diag(diag))
            basis = quadratic_symmetry_basis(ops)
            assert len(basis) == 2
            assert span_residual(np.eye(d * d), basis) < 1e-8
            assert span_residual(permutation_operator([1, 0], [d, d]), basis) < 1e-8


def _stack(ops, quadratic):
    lift = iota if quadratic else (lambda op: op)
    return np.vstack([adjoint_superoperator(lift(op)) for op in ops])


def _nullspace_full_svd(K, tol=TAU_RANK):
    """Oracle: the right nullspace from the full factorisation, the m×m
    left basis included."""
    _, s, Vh = np.linalg.svd(K, full_matrices=True)
    rank = int(np.sum(s > tol * s[0])) if s[0] > 0 else 0
    return [Vh[i].conj() for i in range(rank, Vh.shape[0])]


class TestNullspace:
    """The SVD route's oracle reads only the right singular vectors of the
    stacked superoperator; skipping the left basis must not change them
    beyond rounding (LAPACK may take a different path for the reduced
    factorisation, so equality is not always bit for bit)."""

    @pytest.mark.parametrize("quadratic", [False, True])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_matches_full_svd(self, rng, quadratic, k):
        stacks = [_stack(CNOT_CONTROLS[:k], quadratic),
                  _stack([random_hermitian(rng, 3) for _ in range(k)],
                         quadratic)]
        if not quadratic:
            stacks.append(_stack(global_controls(3)[:k], quadratic))
        for K in stacks:
            assert K.shape[0] >= K.shape[1]
            got, want = svd_nullspace(K, TAU_RANK), _nullspace_full_svd(K)
            assert len(got) == len(want) > 0
            for g, w in zip(got, want):
                assert np.allclose(g, w, rtol=0, atol=1e-14)

    def test_wide_matrix_keeps_its_full_nullspace(self, rng):
        K = rng.standard_normal((3, 7)) + 1j * rng.standard_normal((3, 7))
        got = svd_nullspace(K, TAU_RANK)
        assert len(got) == 4
        for g, w in zip(got, _nullspace_full_svd(K)):
            assert np.allclose(g, w, rtol=0, atol=1e-14)
        V = np.array(got)
        assert np.allclose(K @ V.T, 0, atol=1e-12)
        assert np.allclose(V.conj() @ V.T, np.eye(4), atol=1e-12)


class TestSymmetryDataclass:
    def test_kind_checked(self):
        with pytest.raises(ValidationError):
            Symmetry("cubic", np.eye(2))

    def test_scaling_scales_gaps(self):
        sym = Symmetry("linear", np.diag([0.0, 1.0, 3.0]))
        double = sym.scaled(2.0)
        assert np.array_equal(double.matrix, 2.0 * sym.matrix)
        assert cluster_gap(double.matrix) == 2 * cluster_gap(sym.matrix) == 2.0

    def test_breaking_norm_coupled_qubit(self):
        bundle = coupled_qubit_model(1.0)
        got = symmetry_breaking_norm(bundle.symmetry, bundle.target_unitary)
        assert got == pytest.approx(4 * np.sqrt(2), rel=1e-12)

    def test_breaking_norm_zero_for_commuting_target(self):
        sym = Symmetry("linear", Z)
        U = np.diag(np.exp(1j * np.array([0.3, -0.7])))
        assert symmetry_breaking_norm(sym, U) < 1e-12


    def test_hermitian_part_formed_once(self, rng):
        """``matrix`` is the one Hermitian array, formed at construction:
        the input itself when that is exactly Hermitian, float64 when it is
        exactly real, and hermitize's values, checked, when it is neither."""
        exact = random_hermitian(rng, 4)
        assert Symmetry("linear", exact).matrix is exact
        real = Symmetry("linear", (exact + exact.conj()) / 2)
        assert real.matrix.dtype == np.float64
        assert np.array_equal(real.matrix, exact.real)
        near = exact + 1e-13 * rng.standard_normal((4, 4))
        sym = Symmetry("linear", near)
        assert sym.matrix is not near
        assert np.array_equal(sym.matrix, 0.5 * (near + near.conj().T))
        assert not hasattr(sym, "hermitian")
        with pytest.raises(ValidationError):
            Symmetry("linear", near + 1e-3 * np.triu(np.ones((4, 4))))


class TestDiscoveryDtype:
    """A float64 control stack would send the generic element's eigh down
    another LAPACK path and rotate its frame; discovery works in complex128
    whatever the input dtype."""

    def test_float64_controls_give_the_same_basis(self):
        for find, controls in ((commutant_basis, global_controls(3)),
                               (quadratic_symmetry_basis, CNOT_CONTROLS)):
            real = [C.real.copy() for C in controls]
            assert all(C.dtype == np.float64 for C in real)
            want, got = find(controls), find(real)
            assert len(got) == len(want) > 1
            for g, w in zip(got, want):
                assert np.array_equal(g.matrix, w.matrix)


class TestRealSpan:
    """A span whose canonical elements are real up to rounding is stored
    as float64, re-checked against the controls as stored; any other span
    stays complex128."""

    def _complex_route(self, controls, quadratic):
        """The span's canonical basis in complex128, from the SVD route."""
        return lie._canonical_basis(svd_commutant(controls, quadratic))

    @pytest.mark.parametrize("find,controls", [
        (quadratic_symmetry_basis, Y_CONTROLS),
        (commutant_basis, Y_CONTROLS),
        (commutant_basis, global_controls(2)),
    ], ids=["y-controls-quadratic", "y-controls-linear", "global2-linear"])
    def test_real_span_is_float64(self, find, controls):
        quadratic = find is quadratic_symmetry_basis
        raw = lie._commutant(lie._validated_generators(controls), quadratic,
                             TAU_RANK)
        assert raw.dtype == np.float64 and raw.flags.c_contiguous
        got = np.array([s.matrix for s in find(controls)])
        assert got.dtype == np.float64 and np.array_equal(got, raw)
        want = self._complex_route(controls, quadratic)
        assert want.dtype == np.complex128
        assert np.max(np.abs(got - want)) <= 1e-14
        ops = [iota(C) for C in controls] if quadratic else controls
        assert relative_defects(got, ops).max() <= 4e-15

    def test_collective_commutant_is_complex(self):
        """The Hermitian commutant of Σ X_i and Σ Z_i on four qubits holds
        P + P† for each qubit permutation P, which is real, and i(P - P†)
        for the 3- and 4-cycles, which is imaginary: 10 and 4 of its 14
        elements, so the basis stays complex128."""
        raw = lie._commutant(lie._validated_generators(global_controls(4)),
                             False, TAU_RANK)
        assert raw.dtype == np.complex128 and len(raw) == 14
        imag = np.linalg.norm(raw.imag, axis=(1, 2))
        assert np.sum(imag > 0.5) == 4
        assert np.max(np.abs(raw - self._complex_route(global_controls(4),
                                                       False))) <= 1e-14

    @pytest.mark.parametrize("find", [commutant_basis,
                                      quadratic_symmetry_basis])
    def test_complex_span_stays_complex(self, rng, find):
        basis = find([random_hermitian(rng, 2)])
        assert any(s.matrix.dtype == np.complex128 for s in basis)
        raw = lie._commutant(lie._validated_generators([Y]), False, TAU_RANK)
        assert raw.dtype == np.complex128
        assert np.allclose(raw[1], Y / np.sqrt(2), rtol=0, atol=1e-15)


XY_CONTROLS = [kron(X, I2), kron(Y, I2), kron(I2, X), kron(I2, Y)]
COMMUTING = [kron(Z, I2), kron(Z, Z), np.diag([1.0, 2.0, 2.0, 5.0])]

# (name, controls, quadratic): the families the generic-element route is
# checked on against the SVD route
FAMILIES = [
    ("global3", global_controls(3), False),
    ("global4", global_controls(4), False),
    ("global5", global_controls(5), False),
    ("cnot", CNOT_CONTROLS, False),
    ("cnot", CNOT_CONTROLS, True),
    ("xy", XY_CONTROLS, False),
    ("xy", XY_CONTROLS, True),
    ("x-only", [X], False),
    ("x-only", [X], True),
    ("commuting", COMMUTING, False),
    ("commuting", COMMUTING[:2], True),
]


def _against_the_svd_route(controls, quadratic):
    """The library's basis against the SVD route's: equal counts, one
    span, one canonical basis, and relative defects at most 4e-15 and at
    most the SVD route's own, or n·eps for n × n operators where the SVD
    route lands below that."""
    find = quadratic_symmetry_basis if quadratic else commutant_basis
    got = np.array([s.matrix for s in find(controls)])
    oracle = svd_commutant(controls, quadratic)
    assert len(got) == len(oracle) > 0
    assert projector_distance(got, oracle) <= 1e-12
    canonical = canonical_by_projector(oracle)
    assert np.max(np.abs(got - canonical)) <= 1e-12
    ops = [iota(C) for C in controls] if quadratic else controls
    worst = relative_defects(got, ops).max()
    assert worst <= 4e-15
    n = got.shape[-1]
    assert worst <= max(relative_defects(oracle, ops).max(),
                        n * np.finfo(float).eps)
    return got


class TestGenericElement:
    """Discovery solves [W†L_jW, B] = 0 over the entries of B that join
    eigenvalues of one cluster of a generic R = Σ r_j L_j, W its
    eigenbasis, and lists the span's canonical basis.  The oracle is the
    SVD nullspace of the stacked adjoint superoperators."""

    @pytest.mark.parametrize("name,controls,quadratic", FAMILIES,
                             ids=[f"{n}-{'quadratic' if q else 'linear'}"
                                  for n, _, q in FAMILIES])
    def test_matches_the_svd_route(self, name, controls, quadratic):
        _against_the_svd_route(controls, quadratic)

    def test_identity_first(self):
        for find, controls in ((commutant_basis, global_controls(4)),
                               (quadratic_symmetry_basis, CNOT_CONTROLS)):
            first = find(controls)[0].matrix
            n = first.shape[0]
            assert np.allclose(first, np.eye(n) / np.sqrt(n), rtol=0,
                               atol=1e-15)

    def test_canonical_basis_ignores_the_basis_given(self, rng):
        """Any orthonormal basis of the span, complex or Hermitian, gives
        the same canonical basis."""
        oracle = svd_commutant(global_controls(4))
        p = len(oracle)
        Q, _ = np.linalg.qr(rng.standard_normal((p, p))
                            + 1j * rng.standard_normal((p, p)))
        rotated = np.tensordot(Q, oracle, axes=1)
        a, b = _canonical_basis(oracle), _canonical_basis(rotated)
        assert np.max(np.abs(a - b)) <= 1e-13
        assert np.max(np.abs(a - canonical_by_projector(oracle))) <= 1e-13

    def test_one_control_keeps_the_identity(self):
        """With one control X, R is a multiple of X: its frame diagonalises
        X, so the reduced system holds rounding alone (about 2e-17).  A cut
        relative to that system's largest singular value would count the
        rounding as rank and drop the identity; the cut is relative to the
        controls' spectral spread instead."""
        basis = commutant_basis([X])
        assert len(basis) == 2
        assert span_residual(np.eye(2), basis) < 1e-14
        assert np.allclose(basis[0].matrix, np.eye(2) / np.sqrt(2))
        for C in (Z, np.diag([0.0, 1.0, 1.0, 3.0])):
            assert len(commutant_basis([C])) == int(
                np.sum(np.unique(np.diag(C).real, return_counts=True)[1]**2))

    def test_zero_controls_commute_with_everything(self):
        assert len(commutant_basis([np.zeros((3, 3))])) == 9

    def test_unlucky_draw_is_passed_over(self, monkeypatch):
        """R₀ = (0.6 X + 0.8 Z)⊗1 + 1⊗(0.8 X + 0.6017 Z) on the CNOT
        controls has eigenvalues ±1.4e-3 next to ±2: the lift's clusters at
        0 and ±2.7e-3 lie 3e-4·‖R‖ apart, and eigenvectors across such a
        gap carry rounding of about eps/3e-4 into the basis.  Clusters that
        close are merged (more unknowns, no loss of accuracy), and among
        several draws the one with the widest gap wins."""
        unlucky = np.array([0.6, 0.8, 0.8, 0.6017])
        bases = np.array(CNOT_CONTROLS) / 2
        alone = lie._generic_frame  # the frame of each set of draws
        draws = lie._coefficient_rows(4)
        monkeypatch.setattr(lie, "_coefficient_rows", lambda k: unlucky[None])
        assert np.count_nonzero(alone(bases, True)[0]) > 36
        _against_the_svd_route(CNOT_CONTROLS, True)
        monkeypatch.setattr(lie, "_coefficient_rows",
                            lambda k: np.vstack([unlucky, draws[1:]]))
        assert np.count_nonzero(alone(bases, True)[0]) == 36
        _against_the_svd_route(CNOT_CONTROLS, True)

    def test_cnot_discovery_builds_no_stacked_superoperator(self, monkeypatch):
        """Quadratic discovery on the CNOT controls (n = 16 on the doubled
        space) decomposes nothing with n² = 256 columns and never holds a
        1024 × 256 array, the stack of adjoint superoperators the SVD route
        formed (9.5 MB traced peak there, 1.2 MB here): only the reduced
        system of the Σ m_c² = 36 unknowns."""
        shapes = []
        for name in ("svd", "qr", "eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def counting(a, *args, _real=real, **kwargs):
                shapes.append(np.shape(a))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counting)
        assert len(quadratic_symmetry_basis(CNOT_CONTROLS)) == 4
        assert (1024, 36) in shapes
        assert max(shape[-1] for shape in shapes) < 256
        # numpy's traced peak stays below one 1024 x 256 complex array
        tracemalloc.start()
        try:
            quadratic_symmetry_basis(CNOT_CONTROLS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 256 * 16

    @pytest.mark.parametrize("d,kind,refused", [
        (32, "linear", False), (64, "linear", True), (5, "quadratic", False),
        (6, "quadratic", True), (8, "quadratic", True)])
    def test_entry_cap_refuses_what_it_refused(self, d, kind, refused):
        """The cap counts the stacked superoperators' entries, d⁴ for
        linear and d⁸ for quadratic symmetries, as before; no such stack
        is built, but the command line's refusals stay."""
        find = commutant_basis if kind == "linear" else quadratic_symmetry_basis
        controls = [np.diag(np.arange(d, dtype=float))]
        if refused:
            with pytest.raises(DimensionCapError, match="dense intermediate"):
                find(controls)
        elif kind == "quadratic":
            assert len(find(controls)) == len(svd_commutant(controls, True))


@st.composite
def _block_controls(draw):
    """Controls W(⊕ blocks)W† in a random unitary frame: blocks of random
    sizes, some repeated (a multiplicity), each with an integer spectrum
    in a random basis, so eigenvalues of different blocks coincide (an
    accidental degeneracy of R) or lie at least 1 apart.  Random real
    spectra would let two eigenvalues come arbitrarily close, where the
    commutant itself moves by eps/gap and neither route pins it to
    1e-12.  Every control has two distinct eigenvalues at least; a
    multiple of the identity is ``test_scalar_control_constrains_nothing``'s
    case, where the SVD route's relative cut counts rounding as rank."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    repeats = draw(st.lists(st.integers(1, 2), min_size=len(sizes),
                            max_size=len(sizes)))
    k = draw(st.integers(1, 3))
    d = sum(m * r for m, r in zip(sizes, repeats))
    W = random_unitary(rng, d)
    controls = []
    for _ in range(k):
        D = np.zeros((d, d), dtype=complex)
        start, spectrum = 0, set()
        for m, r in zip(sizes, repeats):
            w = rng.integers(-2, 3, m)
            spectrum.update(w.tolist())
            V = random_unitary(rng, m)
            for _ in range(r):
                D[start:start + m, start:start + m] = (V * w) @ V.conj().T
                start += m
        assume(len(spectrum) > 1)
        controls.append(hermitize(W @ D @ W.conj().T))
    return controls


@given(controls=_block_controls())
@settings(max_examples=80, deadline=None)
def test_block_diagonal_controls_match_the_svd_route(controls):
    """Equal counts, one span and one canonical basis to 1e-12; relative
    defects at most the SVD route's or 8·n·eps (the largest measured over
    872 such cases was 3.8·n·eps, 7.5e-15 at n = 12).  The canonical basis
    is read from the refined projector: on a 13 × 13 control with a
    57-dimensional commutant, the SVD route's own span (relative defect
    3.9e-15) moved it by 1.8e-12, where the library's lay within 6e-14 of
    a 40-digit mpmath reference and the refined oracle within 1.4e-14."""
    got = np.array([s.matrix for s in commutant_basis(controls)])
    oracle = svd_commutant(controls)
    assert len(got) == len(oracle) > 0
    assert projector_distance(got, oracle) <= 1e-12
    canonical = canonical_by_projector(
        projector=refined_commutant_projector(controls))
    assert np.max(np.abs(got - canonical)) <= 1e-12
    n = got.shape[-1]
    assert relative_defects(got, controls).max() <= max(
        relative_defects(oracle, controls).max(), 8 * n * np.finfo(float).eps)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_scalar_control_constrains_nothing(rng, d):
    """c·1 in a random frame is c·1 plus rounding.  Its commutant is every
    matrix: the cut has a rounding-level floor, so the rounding is no rank.
    (The SVD route's cut, relative to a largest singular value that is
    itself rounding, counts it as rank and lists a random d-dimensional
    subspace.)"""
    W = random_unitary(rng, d)
    C = hermitize(W @ (2.0 * np.eye(d)) @ W.conj().T)
    assert 0 < np.ptp(np.linalg.eigvalsh(C)) < 1e-14
    for controls in ([C], [C, np.diag(np.arange(d, dtype=float))]):
        basis = commutant_basis(controls)
        assert len(basis) == (d * d if len(controls) == 1 else d)
        assert np.allclose(basis[0].matrix, np.eye(d) / np.sqrt(d))
