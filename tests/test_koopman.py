import dataclasses
import itertools
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from invprox import (
    DegenerateSpace,
    Domain,
    DynamicsMap,
    EmpiricalSpace,
    FunctionVec,
    InconsistentSystem,
    InvarianceAnalysis,
    NonFiniteValue,
    ZeroImage,
    ZeroNorm,
    build_model,
    compose_with_map,
    QuadratureSpace,
    orthonormalize,
    parse,
    principal_angles,
    proximity_oracle,
    trajectory_error,
    trajectory_errors,
)

from invprox import expr, geometry, koopman
from invprox.space import _AtomProgram, _atom_label

from conftest import (DICTIONARIES, DYNAMICS_SOURCES, bench_module, gauss_legendre_2d,
                      sweep_atoms)


def _atoms(*sources):
    return tuple(parse(s, 2) for s in sources)


def _sweep_dictionary(basis, degree):
    """Monomials x1^i*x2^j or Legendre products P_i(x1)*P_j(x2), i+j <= degree,
    ordered by the x1 power, then the x2 power."""

    def factor(var, k):
        if basis == "monomial":
            return f"{var}^{k}"
        coeffs = np.polynomial.legendre.leg2poly([0] * k + [1])
        return "(" + " + ".join(f"({float(c)!r})*{var}^{p}" for p, c in enumerate(coeffs) if c) + ")"

    return _atoms(*(f"{factor('x1', i)}*{factor('x2', j)}"
                    for i in range(degree + 1) for j in range(degree + 1 - i)))


def _column_stack_atom_values(atoms, points):
    """Point-major values one atom at a time, as _atom_values was; inf/nan is
    reported at the first atom that has one, then at its first point
    (reference)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    values = np.column_stack([np.asarray(a(pts), dtype=float) for a in atoms])
    if not np.isfinite(values).all():
        col, row = np.argwhere(~np.isfinite(values.T))[0]
        raise NonFiniteValue(_atom_label(atoms[col], col), pts[row], values[row, col])
    return values


class TestAtomValues:
    def test_matches_column_stack_bitwise(self, dynamics, dictionaries):
        points = np.random.default_rng(4).uniform(-1, 1, size=(257, 2))
        s3 = dictionaries["S3"]
        mixed = s3 + (FunctionVec([1.0, -2.0], s3[1:3]), compose_with_map(s3[3], dynamics))
        for atoms in (s3, sweep_atoms("legendre", 8), mixed):
            for pts in (points, points[0]):
                got = _AtomProgram(atoms).values(pts)
                want = _column_stack_atom_values(atoms, pts).T
                assert got.flags.c_contiguous and got.shape == want.shape
                assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_non_finite_names_the_first_atom_then_state(self):
        # sqrt(x1) fails at the earlier state, log(x2) first in atom order
        atoms = _atoms("1", "log(x2)", "sqrt(x1)")
        points = np.array([[0.5, 0.5], [-1.0, 0.5], [0.5, -1.0]])
        with pytest.raises(NonFiniteValue) as want:
            _column_stack_atom_values(atoms, points)
        with pytest.raises(NonFiniteValue) as got:
            _AtomProgram(atoms).values(points)
        assert str(got.value) == str(want.value)
        assert got.value.label == "log(x2)"
        assert np.array_equal(got.value.point, [0.5, -1.0])


class TestBuildModel:
    def test_two_atom_model_matrix(self, quad, dynamics):
        model = build_model(_atoms("1", "x1"), quad, dynamics)
        assert np.allclose(model.k_approx, [[1.0, 0.0], [0.0, 0.9]], atol=1e-12)

    def test_eigenvalues_against_independent_quadrature(self, quad, dynamics):
        # assemble the model matrix independently: orthonormal basis of
        # span{1, x1, x1^2} on the box is known in closed form (normalized
        # Legendre in x1), and every entry is a plain 2-d integral
        basis = [
            lambda x, y: 0.5 + 0.0 * x,
            lambda x, y: np.sqrt(3.0) / 2.0 * x,
            lambda x, y: np.sqrt(45.0 / 16.0) * (x**2 - 1.0 / 3.0),
        ]
        k = np.empty((3, 3))
        for i, fi in enumerate(basis):
            for j, fj in enumerate(basis):
                k[i, j] = gauss_legendre_2d(
                    lambda x, y, fi=fi, fj=fj: fi(0.9 * x, y) * fj(x, y), 40
                )
        expected = np.sort(np.linalg.eigvals(k).real)
        model = build_model(_atoms("1", "x1", "x1^2"), quad, dynamics)
        got = np.sort(np.linalg.eigvals(model.k_approx).real)
        assert np.allclose(got, expected, atol=1e-10)
        assert np.allclose(got, [0.81, 0.9, 1.0], atol=1e-10)

    def test_duplicated_atom_drops_rank(self, quad, dynamics):
        model = build_model(_atoms("x1", "x1"), quad, dynamics)
        assert model.dim == 1
        assert model.k_approx[0, 0] == pytest.approx(0.9, abs=1e-12)

    def test_entries_recomputable_as_inner_products(self, quad, dynamics):
        model = build_model(_atoms("1", "x1", "x2", "x1^2"), quad, dynamics)
        basis = [FunctionVec(model.basis[:, i], model.atoms) for i in range(model.dim)]
        for i in range(model.dim):
            image_i = compose_with_map(basis[i], dynamics)
            for j in range(model.dim):
                value = quad.inner_product(image_i, basis[j])
                assert abs(model.k_approx[i, j] - value) < 1e-10

    def test_degenerate_dictionary(self, quad, dynamics):
        with pytest.raises(DegenerateSpace):
            build_model(_atoms("0*x1"), quad, dynamics)

    def test_empty_dictionary_raises(self, quad, dynamics):
        for make in (InvarianceAnalysis, build_model):
            with pytest.raises(ValueError, match="must be nonempty"):
                make((), quad, dynamics)

    def test_basis_convention(self, quad, dynamics):
        # columns by descending singular value of the column-equilibrated
        # block, each signed so that its largest-magnitude coefficient is
        # positive: orthonormalize of the equilibrated Gram D^-1 G D^-1
        # (D = sqrt(diag G)), mapped back by D^-1 and re-signed; this fixes
        # the functions the oracle samples over (atoms chosen so that the
        # equilibrated eigenvalues and the leading coefficient of each column
        # are distinct, which makes the convention unique)
        atoms = _atoms("1", "x1", "x1+x2", "x1^2", "3*x2^2")
        model = build_model(atoms, quad, dynamics)
        analysis = InvarianceAnalysis(atoms, quad, dynamics)
        gram = quad.gram(atoms).entries
        scale = np.sqrt(np.diag(gram))
        reference = orthonormalize(gram / np.outer(scale, scale))[0] / scale[:, None]
        reference *= geometry._lead_factors(reference)
        assert np.allclose(model.basis, reference, rtol=0, atol=1e-10)
        assert np.array_equal(analysis.dictionary_basis, model.basis)
        leads = model.basis[np.argmax(np.abs(model.basis), axis=0), np.arange(5)]
        assert np.all(leads > 0)
        flipped = build_model(tuple(reversed(atoms)), quad, dynamics).basis
        assert np.allclose(flipped[::-1], reference, rtol=0, atol=1e-10)


class TestInvarianceProximity:
    def test_invariant_subspace(self, quad, dynamics, dictionaries):
        analysis = InvarianceAnalysis(dictionaries["S1"], quad, dynamics)
        assert analysis.proximity <= 1e-8
        assert (analysis.dim_s, analysis.dim_ks, analysis.dim_w) == (3, 3, 3)

    def test_benchmark_values(self, quad, dynamics, dictionaries):
        s2 = InvarianceAnalysis(dictionaries["S2"], quad, dynamics)
        s3 = InvarianceAnalysis(dictionaries["S3"], quad, dynamics)
        assert s2.proximity == pytest.approx(0.048, abs=0.002)
        assert s3.proximity == pytest.approx(0.823, abs=0.005)
        assert (s2.dim_s, s2.dim_ks, s2.dim_w) == (4, 4, 5)
        assert (s3.dim_s, s3.dim_ks, s3.dim_w) == (5, 5, 7)

    def test_report_invariants(self, quad, dynamics, dictionaries):
        for atoms in dictionaries.values():
            analysis = InvarianceAnalysis(atoms, quad, dynamics)
            assert 0.0 <= analysis.proximity <= 1.0
            assert analysis.proximity == np.sin(analysis.angles[-1])
            assert np.all(np.diff(analysis.angles) >= 0)
            assert analysis.dim_ks <= analysis.dim_s <= analysis.dim_w
            assert analysis.dim_w <= analysis.dim_s + analysis.dim_ks

    def test_dictionary_rank_deficiency(self, quad, dynamics):
        analysis = InvarianceAnalysis(_atoms("x1", "x1"), quad, dynamics)
        assert analysis.dim_s == 1
        assert analysis.proximity <= 1e-8

    def test_smaller_image_dimension(self, quad):
        # constant dynamics: the image of span{1, x1} is the constants alone
        T0 = DynamicsMap.from_strings(["0*x1", "0*x2"], 2)
        analysis = InvarianceAnalysis(_atoms("1", "x1"), quad, T0)
        assert analysis.dim_s == 2
        assert analysis.dim_ks == 1
        assert analysis.angles.shape == (1,)
        assert analysis.proximity <= 1e-10  # constants already lie in S


class TestWitness:
    def test_invariant_subspace_witness(self, quad, dynamics, dictionaries):
        analysis = InvarianceAnalysis(dictionaries["S1"], quad, dynamics)
        wit = analysis.witness()
        assert analysis.relative_error(wit) <= 1e-8

    def test_attains_the_maximum(self, quad, dynamics, dictionaries):
        # with x2^2 listed twice the operator is not injective on the
        # coefficients: the minimum-norm witness splits that coefficient equally
        for extra in ((), _atoms("x2^2")):
            analysis = InvarianceAnalysis(dictionaries["S3"] + extra, quad, dynamics)
            wit = analysis.witness()
            error = analysis.relative_error(wit)
            assert error == pytest.approx(0.823, abs=0.005)
            assert abs(error - analysis.proximity) <= 1e-8
        assert wit.coeffs[-1] == pytest.approx(wit.coeffs[-2], rel=1e-12)
        assert wit.coeffs[-1] == pytest.approx(4.001658657147869, rel=1e-9)

    def test_one_dimensional_subspace(self, quad, dynamics):
        analysis = InvarianceAnalysis(_atoms("x2"), quad, dynamics)
        wit = analysis.witness()
        assert wit.coeffs.shape == (1,)
        assert wit.coeffs[0] != 0.0  # the witness is x2 up to scale
        assert abs(analysis.relative_error(wit) - analysis.proximity) <= 1e-8

    def test_witness_in_report(self, quad, dynamics, dictionaries):
        first = InvarianceAnalysis(dictionaries["S2"], quad, dynamics)
        assert first.witness().coeffs.shape == (4,)
        diag = first.diagnostics()
        assert diag["witness_solve_residual"] <= 1e-8
        assert abs(diag["witness_relative_error"] - first.proximity) <= 1e-8
        # each witness is a copy: changing one leaves the analysis as it was
        analysis = InvarianceAnalysis(dictionaries["S2"], quad, dynamics)
        analysis.witness().coeffs[:] = 0.0
        assert np.array_equal(analysis.report()["witness_coeffs"], first.witness().coeffs)

    def test_right_hand_side_outside_the_image_raises(self, quad, dynamics, dictionaries,
                                                      monkeypatch):
        # make the top image-side vector a unit vector orthogonal to K(S): its
        # minimum-norm preimage is 0, so the backward error is |top| / |top| = 1
        def off_the_image(qu, qv):
            decomposition = principal_angles(qu, qv)
            v_vectors = decomposition.v_vectors.copy()
            v_vectors[:, -1] = np.linalg.qr(qv, mode="complete")[0][:, -1]
            return dataclasses.replace(decomposition, v_vectors=v_vectors)

        monkeypatch.setattr(geometry, "principal_angles", off_the_image)
        with pytest.raises(InconsistentSystem, match="backward error 1.000e[+]00 exceeds 1e-8"):
            InvarianceAnalysis(dictionaries["S2"], quad, dynamics)

    def test_diagnostics_do_not_depend_on_call_order(self, quad, dynamics, dictionaries):
        fresh = InvarianceAnalysis(dictionaries["S3"], quad, dynamics).diagnostics()
        analysis = InvarianceAnalysis(dictionaries["S3"], quad, dynamics)
        analysis.witness()
        assert {"witness_solve_residual", "witness_relative_error"} <= fresh.keys()
        assert fresh == analysis.diagnostics()


class TestRelativeError:
    def test_zero_on_invariant_subspace(self, quad, dynamics, dictionaries):
        analysis = InvarianceAnalysis(dictionaries["S1"], quad, dynamics)
        rng = np.random.default_rng(1)
        for _ in range(20):
            coeffs = rng.standard_normal(3)
            assert analysis.relative_error(coeffs) <= 1e-10

    def test_never_exceeds_the_closed_form(self, quad, dynamics, dictionaries):
        for atoms in (dictionaries["S2"], dictionaries["S3"]):
            analysis = InvarianceAnalysis(atoms, quad, dynamics)
            rng = np.random.default_rng(2)
            for _ in range(500):
                coeffs = rng.standard_normal(len(atoms))
                assert analysis.relative_error(coeffs) <= analysis.proximity + 1e-8

    def test_angle_expansion_identity(self, quad, dynamics, dictionaries):
        # the squared relative error equals the sine-weighted mean of the
        # squared expansion coefficients of the image over principal vectors
        for atoms in dictionaries.values():
            analysis = InvarianceAnalysis(atoms, quad, dynamics)
            v_vectors = analysis.decomposition.v_vectors
            sines_sq = np.sin(analysis.angles) ** 2
            rng = np.random.default_rng(3)
            for _ in range(200):
                coeffs = rng.standard_normal(len(atoms))
                image = analysis.image_coords(coeffs)
                if np.linalg.norm(image) < 1e-12:
                    continue
                alphas_sq = (v_vectors.T @ image) ** 2
                expected_sq = np.sum(alphas_sq * sines_sq) / np.sum(alphas_sq)
                got = analysis.relative_error(coeffs)
                assert abs(got**2 - expected_sq) < 1e-8

    def test_zero_image_raises(self, quad):
        T0 = DynamicsMap.from_strings(["0*x1", "0*x2"], 2)
        analysis = InvarianceAnalysis(_atoms("1", "x1"), quad, T0)
        with pytest.raises(ZeroImage):
            analysis.relative_error([0.0, 1.0])  # x1 is annihilated


class TestOracle:
    def test_invariant_subspace(self, quad, dynamics, dictionaries):
        analysis = InvarianceAnalysis(dictionaries["S1"], quad, dynamics)
        result = proximity_oracle(analysis, n_samples=200, seed=0)
        assert result.max_error <= 1e-10

    def test_reaches_the_closed_form(self, quad, dynamics, dictionaries):
        analysis = InvarianceAnalysis(dictionaries["S3"], quad, dynamics)
        result = proximity_oracle(analysis, n_samples=10000, seed=0)
        assert result.max_error <= analysis.proximity + 1e-8
        assert analysis.proximity - result.max_error < 0.01 * analysis.proximity
        # the reported maximizer reproduces its error through the public path
        assert analysis.relative_error(result.argmax_coeffs) == pytest.approx(
            result.max_error, abs=1e-12
        )

    def test_single_sample_budget(self, quad, dynamics, dictionaries):
        analysis = InvarianceAnalysis(dictionaries["S2"], quad, dynamics)
        result = proximity_oracle(analysis, n_samples=1, seed=5)
        assert 0.0 <= result.max_error <= analysis.proximity + 1e-8

    def test_seeded_reproducibility(self, quad, dynamics, dictionaries):
        analysis = InvarianceAnalysis(dictionaries["S2"], quad, dynamics)
        a = proximity_oracle(analysis, n_samples=500, seed=9)
        b = proximity_oracle(analysis, n_samples=500, seed=9)
        assert a.max_error == b.max_error
        assert np.array_equal(a.argmax_coeffs, b.argmax_coeffs)

    def test_memory_does_not_grow_with_n_samples(self, quad, dynamics, dictionaries):
        analysis = InvarianceAnalysis(dictionaries["S3"], quad, dynamics)
        proximity_oracle(analysis, n_samples=10, seed=0)  # first-call allocations
        peaks = []
        for n in (20_000, 200_000):
            tracemalloc.start()
            try:
                proximity_oracle(analysis, n_samples=n, seed=0)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # all samples at once peaked at 5.8 and 58.2 MiB
        assert max(peaks) <= 1.1 * min(peaks)

    def test_blocks_draw_the_samples_of_one_call(self, quad, dynamics, dictionaries,
                                                 monkeypatch):
        analysis = InvarianceAnalysis(dictionaries["S3"], quad, dynamics)
        starts = []
        refine = koopman._refine
        monkeypatch.setattr(koopman, "_refine", lambda errors_of, point, *args: (
            starts.append(point) or refine(errors_of, point, *args)))
        # seed 5 puts the best sample in the third block, 0.023 ahead of the
        # runner-up, in the coordinates of the equilibrated dictionary basis
        n = 3 * koopman._ORACLE_BLOCK_ROWS + 5
        proximity_oracle(analysis, n_samples=n, seed=5)
        samples = np.random.default_rng(5).standard_normal((n, analysis.dim_s))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        images = samples @ analysis.basis_image_map.T
        q = analysis.q_s
        errors = (np.linalg.norm(images - (images @ q) @ q.T, axis=1)
                  / np.linalg.norm(images, axis=1))
        best = int(np.argmax(errors))
        assert best >= 2 * koopman._ORACLE_BLOCK_ROWS  # in the third block
        assert np.array_equal(starts, [samples[best]])


_ROTATED_S3 = ("1", "x1+x2", "x1-x2", "x1^2", "x2^2")  # the span of S3


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_reaches_the_closed_form(quad, dynamics, dictionaries, seed):
    # with 200 steps of at most 1e-3 the rotated basis stopped at 0.803694
    # (seed 0) and S3 at 0.822738, against the closed form 0.823017062
    found = {}
    for name, atoms in (("S2", dictionaries["S2"]), ("S3", dictionaries["S3"]),
                        ("rotated S3", _atoms(*_ROTATED_S3))):
        analysis = InvarianceAnalysis(atoms, quad, dynamics)
        found[name] = proximity_oracle(analysis, n_samples=10000, seed=seed).max_error
        assert abs(found[name] - analysis.proximity) <= 1e-9
    assert abs(found["S3"] - found["rotated S3"]) <= 1e-9


def test_s3_refinement_stops_before_the_step_cap(quad, dynamics, dictionaries, monkeypatch):
    analysis = InvarianceAnalysis(dictionaries["S3"], quad, dynamics)
    candidates = []
    refine = koopman._refine

    def counting(errors_of, *args):
        calls = []
        result = refine(lambda rows: calls.append(1) or errors_of(rows), *args)
        candidates.append(len(calls))
        return result

    monkeypatch.setattr(koopman, "_refine", counting)
    proximity_oracle(analysis, n_samples=10000, seed=0)
    assert 0 < candidates[0] <= 40


def test_s1_refinement_takes_at_most_one_candidate(quad, dynamics, dictionaries, monkeypatch):
    # S1 is invariant: every error is rounding, about 5e-16, and a rule that
    # kept any larger error took 4 candidates
    analysis = InvarianceAnalysis(dictionaries["S1"], quad, dynamics)
    candidates = []
    refine = koopman._refine

    def counting(errors_of, *args):
        calls = []
        result = refine(lambda rows: calls.append(1) or errors_of(rows), *args)
        candidates.append(len(calls))
        return result

    monkeypatch.setattr(koopman, "_refine", counting)
    result = proximity_oracle(analysis, n_samples=10000, seed=0)
    assert candidates[0] <= 1
    assert result.max_error <= analysis.proximity + 1e-8


def test_reported_vectors_have_a_positive_largest_coefficient(quad, dynamics, dictionaries):
    for atoms in dictionaries.values():
        analysis = InvarianceAnalysis(atoms, quad, dynamics)
        for coeffs in (np.array(analysis.report()["witness_coeffs"]),
                       proximity_oracle(analysis, n_samples=1000, seed=0).argmax_coeffs):
            assert coeffs[np.argmax(np.abs(coeffs))] > 0


_ORACLE_SPACE = QuadratureSpace(Domain(((-1.0, 1.0), (-1.0, 1.0))), 12)
_ORACLE_DYNAMICS = DynamicsMap.from_strings(DYNAMICS_SOURCES, 2)
_MONOMIALS = ("1", "x1", "x2", "x1^2", "x1*x2", "x2^2", "x1^3", "x1^2*x2", "x2^3")


@pytest.mark.filterwarnings("ignore:quadrature order")
@settings(max_examples=25, deadline=None, database=None)
@given(subset=st.sets(st.sampled_from(_MONOMIALS), min_size=1),
       seed=st.integers(0, 2**32 - 1))
def test_oracle_never_exceeds_closed_form(subset, seed):
    atoms = _atoms(*sorted(subset))
    analysis = InvarianceAnalysis(atoms, _ORACLE_SPACE, _ORACLE_DYNAMICS)
    result = proximity_oracle(analysis, n_samples=500, seed=seed)
    assert 0.0 <= result.max_error <= analysis.proximity + 1e-8


@pytest.mark.filterwarnings("ignore:quadrature order")
def test_oracle_reaches_the_closed_form_on_every_monomial_subset():
    # a finite-difference gradient ascent with an adaptive step fell more
    # than 1e-9 short on 189 of these 511 subsets (111 by more than 1%, at
    # most by 0.46); 266 used all of its 200 steps
    for size in range(1, len(_MONOMIALS) + 1):
        for subset in itertools.combinations(_MONOMIALS, size):
            analysis = InvarianceAnalysis(_atoms(*sorted(subset)), _ORACLE_SPACE, _ORACLE_DYNAMICS)
            found = proximity_oracle(analysis, n_samples=500, seed=0).max_error
            assert analysis.proximity - 1e-9 <= found <= analysis.proximity + 1e-8, subset


def test_dictionary_compiled_once_per_analysis(quad, dynamics, dictionaries, monkeypatch):
    dynamics(np.zeros((1, 2)))  # the map compiles its own program on first use
    compiled = []
    original = expr._compile
    monkeypatch.setattr(expr, "_compile",
                        lambda roots: compiled.append(len(roots)) or original(roots))
    analysis = InvarianceAnalysis(dictionaries["S3"], quad, dynamics)
    assert analysis.diagnostics()["quad_order"] == 20  # the check ran at order 10
    assert compiled == [5]


def _reference_residuals(analysis):
    """Residual of each eigenpair of the model, one left eigenvector at a
    time, each conjugate pair once (reference)."""
    eigenvalues, vectors = np.linalg.eig(analysis.k_approx.T)
    out = []
    for i in range(eigenvalues.shape[0]):
        lam = complex(eigenvalues[i])
        if abs(lam.imag) <= 1e-12:
            lam = complex(lam.real, 0.0)
        elif lam.imag < 0:
            continue
        v = vectors[:, i] / np.linalg.norm(vectors[:, i])
        function = analysis.q_s @ v
        image = analysis.basis_image_map @ v
        out.append((lam, float(np.linalg.norm(image - lam * function) / np.linalg.norm(function))))
    return sorted(out, key=lambda pair: (pair[0].real, pair[0].imag))


class TestResiduals:
    def test_invariant_subspace(self, quad, dynamics, dictionaries):
        analysis = InvarianceAnalysis(dictionaries["S1"], quad, dynamics)
        pairs = analysis.residuals()
        eigenvalues = sorted(lam.real for lam, _ in pairs)
        assert np.allclose(eigenvalues, [0.81, 0.9, 1.0], atol=1e-10)
        assert all(res <= 1e-8 for _, res in pairs)

    def test_bounded_by_restricted_norm(self, quad, dynamics, dictionaries):
        for atoms in dictionaries.values():
            analysis = InvarianceAnalysis(atoms, quad, dynamics)
            bound = analysis.restricted_norm() * analysis.proximity
            for _, res in analysis.residuals():
                assert res <= bound + 1e-8

    def test_single_eigenfunction(self, quad, dynamics):
        analysis = InvarianceAnalysis(_atoms("x1"), quad, dynamics)
        pairs = analysis.residuals()
        assert len(pairs) == 1
        lam, res = pairs[0]
        assert lam == pytest.approx(0.9, abs=1e-12)
        assert res <= 1e-10

    def test_empirical_backend(self, dynamics, dictionaries):
        rng = np.random.default_rng(4)
        X = rng.uniform(-1, 1, size=(400, 2))
        space = EmpiricalSpace(X, dynamics(X))
        analysis = InvarianceAnalysis(dictionaries["S3"], space)
        bound = analysis.restricted_norm() * analysis.proximity
        pairs = analysis.residuals()
        assert pairs and all(np.isfinite(res) for _, res in pairs)
        assert all(res <= bound + 1e-8 for _, res in pairs)

    @pytest.mark.parametrize("case", ["S1", "S2", "S3", "complex pair", "legendre"])
    def test_match_the_per_eigenpair_loop(self, box, quad, dynamics, dictionaries, case):
        space, T, atoms = quad, dynamics, dictionaries.get(case)
        if case == "complex pair":
            T, atoms = DynamicsMap.from_strings(["0.5*x2", "-0.5*x1"], 2), _atoms("x1", "x2")
        elif case == "legendre":
            space, atoms = QuadratureSpace(box, 40), sweep_atoms(case, 8)  # the dict-sweep's order
        analysis = InvarianceAnalysis(atoms, space, T)
        got, want = analysis.residuals(), _reference_residuals(analysis)
        assert [lam for lam, _ in got] == [lam for lam, _ in want]
        assert all(type(lam) is complex and type(res) is float for lam, res in got)
        scale = 1e-13 * analysis.restricted_norm()
        assert all(abs(a - b) <= scale for (_, a), (_, b) in zip(got, want))

    def test_complex_pair_reported_once(self, quad):
        # a rotation-like map produces a conjugate eigenvalue pair
        T = DynamicsMap.from_strings(["0.5*x2", "-0.5*x1"], 2)
        analysis = InvarianceAnalysis(_atoms("x1", "x2"), quad, T)
        pairs = analysis.residuals()
        assert len(pairs) == 1
        lam, res = pairs[0]
        assert lam.imag > 0
        assert res <= analysis.restricted_norm() * analysis.proximity + 1e-8


# S1-S3 at order 20 and the dict-sweep's degree-6 monomials at its order 40
_SCALING_CASES = {
    **{name: (sources, 20) for name, sources in DICTIONARIES.items()},
    "monomial-6": (bench_module("workloads").sweep_dictionary("monomial", 6), 40),
}
_SCALING_REFERENCES = {}


class TestInvariances:
    def test_basis_independence(self, quad, dynamics, dictionaries):
        atoms = dictionaries["S2"]
        baseline = InvarianceAnalysis(atoms, quad, dynamics).proximity
        rng = np.random.default_rng(6)
        for _ in range(20):
            while True:
                A = rng.standard_normal((4, 4))
                if np.linalg.cond(A) < 1e3:
                    break
            reparam = tuple(FunctionVec(A[i], atoms) for i in range(4))
            value = InvarianceAnalysis(reparam, quad, dynamics).proximity
            assert abs(value - baseline) < 1e-9

    def test_measure_scale_independence(self, quad, dynamics, dictionaries):
        atoms = dictionaries["S3"]
        X = quad.nodes
        Y = dynamics(X)
        baseline = InvarianceAnalysis(
            atoms, EmpiricalSpace(X, Y, weights=quad.weights)
        ).proximity
        for scale in (1e-3, 3.7, 1e4):
            scaled = InvarianceAnalysis(
                atoms, EmpiricalSpace(X, Y, weights=scale * quad.weights)
            ).proximity
            assert abs(scaled - baseline) < 1e-12

    def test_monomial_and_legendre_bases_agree(self, box, dynamics):
        # ill-conditioned monomial spans: a Gram-based rank decision loses
        # image rank at degree 8 and 10 and moves the value by up to 7%
        # dim W counted on R's whole spectrum read 81 and 119 at degree 8 and 10
        space = QuadratureSpace(box, 40)
        for degree, dim, dim_w in ((6, 28, 49), (8, 45, 79), (10, 66, 116)):
            results = [InvarianceAnalysis(_sweep_dictionary(basis, degree), space, dynamics)
                       for basis in ("monomial", "legendre")]
            for analysis in results:
                assert (analysis.dim_s, analysis.dim_ks, analysis.dim_w) == (dim, dim, dim_w)
            assert abs(results[0].proximity - results[1].proximity) <= 1e-10

    @pytest.mark.parametrize("scale", ["1", "1e-6", "1e-11", "1e-13", "1e-30", "1e30"])
    def test_rescaled_atom_keeps_the_span(self, quad, dynamics, scale):
        # a rank cut on the raw block dropped the small column: dims 2/2/2 and
        # 2.8e-16 at 1e-13 and 1e-30, and 0.657 with dims 1/1/2 at 1e30
        analysis = InvarianceAnalysis(_atoms("x1", "x1^2", f"{scale}*x2"), quad, dynamics)
        assert (analysis.dim_s, analysis.dim_ks, analysis.dim_w) == (3, 3, 4)
        assert abs(analysis.proximity - 0.04897911356504775) <= 1e-15
        assert analysis.warnings == []

    @pytest.mark.filterwarnings("ignore:quadrature order")  # k > 10 on the order-10 check
    @pytest.mark.parametrize("rate", ["0.9", "0.5", "0.1", "0.01"])
    def test_linear_contraction_keeps_every_rank(self, rate):
        # span(x, ..., x^k) is invariant under a*x and K is invertible on it;
        # a rank cut on the raw image block, whose columns scale as a^j, gave
        # dim K(S) 10 at a = 0.1, k = 12, and 6 at a = 0.01 from k = 7
        space = QuadratureSpace(Domain(((-1.0, 1.0),)), 20)
        T = DynamicsMap.from_strings([f"{rate}*x1"], 1)
        for k in range(1, 13):
            atoms = tuple(parse(f"x1^{p}", 1) for p in range(1, k + 1))
            analysis = InvarianceAnalysis(atoms, space, T)
            assert (analysis.dim_s, analysis.dim_ks, analysis.dim_w) == (k, k, k), k
            assert analysis.proximity <= 1e-12

    @settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @given(case=st.sampled_from(["S1", "S2", "S3", "monomial-6"]), index=st.integers(0, 27),
           power=st.integers(-30, 30) | st.sampled_from([-300, -155, 155, 300]))
    # the squared length of a column at 1e155 overflowed and at 1e-170
    # vanished, so the column fell out of the span
    @example(case="S2", index=2, power=155)
    @example(case="S2", index=2, power=-155)
    @example(case="S2", index=2, power=300)
    @example(case="S2", index=2, power=-300)
    def test_atom_scale_leaves_the_verdict(self, box, dynamics, case, index, power):
        sources, order = _SCALING_CASES[case]
        space = QuadratureSpace(box, order)
        if case not in _SCALING_REFERENCES:
            _SCALING_REFERENCES[case] = InvarianceAnalysis(_atoms(*sources), space, dynamics)
        reference = _SCALING_REFERENCES[case]
        scaled = list(sources)
        index %= len(sources)
        scaled[index] = f"1e{power}*({sources[index]})"
        analysis = InvarianceAnalysis(_atoms(*scaled), space, dynamics)
        assert analysis.verdict[:2] == reference.verdict[:2]
        assert analysis.dim_w == reference.dim_w
        assert analysis.warnings == reference.warnings
        assert abs(analysis.proximity - reference.proximity) <= 1e-13

    def test_node_snapshots_match_quadrature(self, quad, dynamics, dictionaries):
        X = quad.nodes
        space = EmpiricalSpace(X, dynamics(X), weights=quad.weights)
        for atoms in dictionaries.values():
            via_quad = InvarianceAnalysis(atoms, quad, dynamics).proximity
            via_snap = InvarianceAnalysis(atoms, space).proximity
            assert abs(via_quad - via_snap) < 1e-6


def _reference_trajectory_error(model, dynamics, x0, horizon):
    """One trajectory advanced one row at a time (the per-start loop that
    the batched simulation replaced)."""
    state = np.asarray(x0, dtype=float).reshape(1, -1)
    prediction = model.eval_basis(state)[0]
    errors = np.empty(horizon)
    for k in range(1, horizon + 1):
        state = dynamics(state)
        prediction = model.k_approx @ prediction
        truth = model.eval_basis(state)[0]
        errors[k - 1] = 100.0 * np.linalg.norm(truth - prediction) / np.linalg.norm(truth)
    return errors


class TestTrajectoryError:
    def test_batch_matches_single_trajectories(self, quad, dynamics, dictionaries):
        starts = np.random.default_rng(5).uniform(-1, 1, size=(100, 2))
        for atoms in dictionaries.values():
            model = build_model(atoms, quad, dynamics)
            errors, kept = trajectory_errors(model, dynamics, starts, 10)
            assert kept.all() and errors.shape == (100, 10)
            for reference in (
                np.vstack([trajectory_error(model, dynamics, x0, 10) for x0 in starts]),
                np.vstack([_reference_trajectory_error(model, dynamics, x0, 10)
                           for x0 in starts]),
            ):
                # relative 1e-12, but absolute 1e-12 percentage points below
                # 1%: truth - prediction cancels there (S1 is all round-off)
                assert np.all(np.abs(errors - reference) <= 1e-12 * np.maximum(reference, 1.0))

    def test_vanishing_start_leaves_the_batch(self, quad, dynamics):
        model = build_model(_atoms("x1"), quad, dynamics)
        errors, kept = trajectory_errors(model, dynamics, [[0.0, 0.5], [0.3, 0.5]], 3)
        assert kept.tolist() == [False, True]
        alone, _ = trajectory_errors(model, dynamics, [[0.3, 0.5]], 3)
        assert np.array_equal(errors, alone)


    def test_programs_compile_once_per_object(self, quad, dictionaries, monkeypatch):
        # the model and the map each hold their program: the compile count
        # does not grow with the horizon (it was 3 at horizon 1, 101 at 50)
        compiles = []
        compile_program = expr._compile
        monkeypatch.setattr(expr, "_compile",
                            lambda roots: compiles.append(len(roots)) or compile_program(roots))
        starts = np.random.default_rng(6).uniform(-1, 1, size=(20, 2))
        counts = []
        for horizon in (1, 50):
            dynamics = DynamicsMap.from_strings(DYNAMICS_SOURCES, 2)
            model = build_model(dictionaries["S3"], quad, dynamics)
            compiles.clear()
            trajectory_errors(model, dynamics, starts, horizon)
            counts.append(len(compiles))
        assert counts[0] == counts[1] <= 2

    def test_invariant_subspace_is_exact(self, quad, dynamics, dictionaries):
        model = build_model(dictionaries["S1"], quad, dynamics)
        rng = np.random.default_rng(7)
        for x0 in rng.uniform(-1, 1, size=(20, 2)):
            errors = trajectory_error(model, dynamics, x0, 10)
            assert np.all(errors <= 1e-8)

    def test_zero_horizon(self, quad, dynamics, dictionaries):
        model = build_model(dictionaries["S2"], quad, dynamics)
        assert trajectory_error(model, dynamics, [0.5, 0.5], 0).shape == (0,)

    def test_median_ordering(self, quad, dynamics, dictionaries):
        model2 = build_model(dictionaries["S2"], quad, dynamics)
        model3 = build_model(dictionaries["S3"], quad, dynamics)
        rng = np.random.default_rng(11)
        starts = rng.uniform(-1, 1, size=(100, 2))
        errors2 = np.vstack([trajectory_error(model2, dynamics, x0, 10)
                             for x0 in starts])
        errors3 = np.vstack([trajectory_error(model3, dynamics, x0, 10)
                             for x0 in starts])
        assert np.all(np.median(errors2, axis=0) < np.median(errors3, axis=0))

    def test_overflowing_prediction_raises(self):
        # the model matrix of this bump under x -> x/2 is 1.2649: the
        # prediction grows until its norm overflows, and no error is inf
        space = QuadratureSpace(Domain(((-1.0, 1.0),)), 40)
        dynamics = DynamicsMap.from_strings(["0.5*x1"], 1)
        model = build_model((parse("exp(-50*x1^2)", 1),), space, dynamics)
        with np.errstate(over="ignore"):
            with pytest.raises(NonFiniteValue, match=r"^percent error at step \d+ of the "
                                                     r"trajectory from \[0\.5\] is non-finite"):
                trajectory_error(model, dynamics, [0.5], 4000)
            # the start whose error overflows first is named, not the first start
            with pytest.raises(NonFiniteValue, match=r"trajectory from \[0\.\] "):
                trajectory_errors(model, dynamics, [[0.5], [0.0]], 4000)

    def test_zero_norm_raises(self, quad, dynamics):
        model = build_model(_atoms("x1"), quad, dynamics)
        with pytest.raises(ZeroNorm, match="vanished at step 1$"):
            trajectory_error(model, dynamics, [0.0, 0.5], 3)


class TestQuadratureDiagnostics:
    def test_warns_on_unconverged_order(self, box, dynamics, dictionaries):
        from invprox import QuadratureSpace

        coarse = QuadratureSpace(box, 2)  # far too coarse for sin(x2)
        with pytest.warns(UserWarning, match="not converged"):
            analysis = InvarianceAnalysis(dictionaries["S3"], coarse, dynamics)
        assert analysis.diagnostics()["warnings"]

    def test_warning_names_the_check_order(self, box, dynamics, dictionaries):
        from invprox import QuadratureSpace

        # order q is checked against order ceil(q/2); order 1 has no coarser
        # rule and is checked against order 2
        for order, check_order in ((5, 3), (2, 1), (1, 2)):
            space = QuadratureSpace(box, order)
            with pytest.warns(UserWarning, match=f"at order {check_order}$"):
                analysis = InvarianceAnalysis(dictionaries["S3"], space, dynamics)
            assert all(w.startswith(f"quadrature order {order} not converged")
                       for w in analysis.diagnostics()["warnings"])

    def test_one_warning_names_the_drift_and_the_dimensions(self, box, dynamics, dictionaries):
        with pytest.warns(UserWarning) as caught:
            analysis = InvarianceAnalysis(dictionaries["S3"], QuadratureSpace(box, 5), dynamics)
        assert [str(w.message) for w in caught] == analysis.diagnostics()["warnings"]
        assert len(caught) == 1
        assert re.fullmatch(r"quadrature order 5 not converged: proximity changes by "
                            r"\d\.\d{3}e-0[1-3], dim S 5 -> 5, dim K\(S\) 5 -> 5 at order 3",
                            str(caught[0].message))

    def test_coarse_image_of_higher_rank_moves_the_proximity_to_one(self, box, dynamics):
        # at order 2, 3*x1^2-1 vanishes at the nodes x1 = +-1/sqrt(3), so dim S
        # drops to 1 while K(S) keeps 2: K(S) holds a direction off S, and the
        # check's proximity is 1
        with pytest.warns(UserWarning) as caught:
            analysis = InvarianceAnalysis(_atoms("x1", "3*x1^2-1"), QuadratureSpace(box, 3),
                                          dynamics)
        assert [str(w.message) for w in caught] == [
            "quadrature order 3 not converged: proximity changes by 7.463e-01, "
            "dim S 2 -> 1, dim K(S) 2 -> 2 at order 2"]

    def test_check_matches_the_analysis_at_the_coarse_order(self, box, dynamics, dictionaries):
        # order 5 is checked at order 3: the check's dims and drift are those
        # of a full analysis at order 3
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # order 3 has its own check, at order 2
            coarse = InvarianceAnalysis(dictionaries["S3"], QuadratureSpace(box, 3), dynamics)
        with pytest.warns(UserWarning) as caught:
            analysis = InvarianceAnalysis(dictionaries["S3"], QuadratureSpace(box, 5), dynamics)
        drift = abs(coarse.proximity - analysis.proximity)
        assert [str(w.message) for w in caught] == [
            f"quadrature order 5 not converged: proximity changes by {drift:.3e}, "
            f"dim S {analysis.dim_s} -> {coarse.dim_s}, dim K(S) {analysis.dim_ks} -> "
            f"{coarse.dim_ks} at order 3"]

    @pytest.mark.parametrize("degree", [12, 14, 16])
    def test_sweep_bases_get_the_same_verdict(self, box, dynamics, degree):
        # the entrywise Gram-block drift warned on the Legendre basis at degree
        # 16 (cross block 1.1e-8) and stayed silent on the monomials of the
        # same span (4.7e-15); the spans' proximity moves by about 2e-13. dim W
        # counted on R's whole spectrum differed: 160/161, 204/208, 247/259
        verdicts, drifts, dims_w = [], [], []
        for basis in ("monomial", "legendre"):
            atoms = sweep_atoms(basis, degree)
            analysis = InvarianceAnalysis(atoms, QuadratureSpace(box, 40), dynamics)
            verdicts.append(analysis.diagnostics()["warnings"])
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # order 20 has its own check, at order 10
                coarse = InvarianceAnalysis(atoms, QuadratureSpace(box, 20), dynamics)
            assert (coarse.dim_s, coarse.dim_ks) == (analysis.dim_s, analysis.dim_ks)
            drifts.append(abs(coarse.proximity - analysis.proximity))
            dims_w.append(analysis.dim_w)
        assert verdicts == [[], []]
        assert dims_w[0] == dims_w[1]
        assert max(drifts) <= 10 * min(drifts)

    @pytest.mark.filterwarnings("ignore:quadrature order")
    @settings(max_examples=20, deadline=None, database=None)
    @given(case=st.sampled_from([("S2", 20), ("S3", 20), ("S3", 5), ("S3", 10),
                                 ("legendre", 40)]),
           log_cond=st.floats(0.0, 6.0), seed=st.integers(0, 2**32 - 1))
    def test_recombined_basis_keeps_the_verdict(self, box, dynamics, dictionaries, case,
                                                log_cond, seed):
        name, order = case
        atoms = dictionaries[name] if name in dictionaries else sweep_atoms(name, 8)
        space = QuadratureSpace(box, order)
        rng = np.random.default_rng(seed)
        left, right = (np.linalg.qr(rng.standard_normal((len(atoms),) * 2))[0] for _ in range(2))
        recombination = left * np.logspace(0.0, -log_cond, len(atoms)) @ right.T
        results = [InvarianceAnalysis(basis, space, dynamics) for basis in
                   (atoms, tuple(FunctionVec(row, atoms) for row in recombination))]
        # dim W counted on R's whole spectrum flipped from 81 on the sweep
        assert results[0].dim_w == results[1].dim_w
        if name in dictionaries:
            # rounding the 45 recombined sweep atoms moves their span: at
            # cond(T) near 1e6 the proximity, and with it the check's drift,
            # moves by up to 1.1e-9, which is quad_tol
            assert len({bool(r.diagnostics()["warnings"]) for r in results}) == 1
            assert abs(results[0].proximity - results[1].proximity) <= 1e-9

    def test_silent_at_default_order(self, quad, dynamics, dictionaries):
        analysis = InvarianceAnalysis(dictionaries["S3"], quad, dynamics)
        assert analysis.diagnostics()["warnings"] == []
        assert analysis.diagnostics()["quad_order"] == 20
