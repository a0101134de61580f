import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invprox import (
    Domain,
    DynamicsMap,
    EmpiricalSpace,
    FunctionVec,
    NonFiniteValue,
    QuadratureSpace,
    compose_with_map,
    parse,
    read_snapshots,
    write_snapshots,
)

from invprox import space as space_module
from invprox.space import _AtomProgram, read_weights

from conftest import DYNAMICS_SOURCES, gauss_legendre_2d, snapshot_atoms, sweep_atoms


def _atoms(*sources, n=2):
    return tuple(parse(s, n) for s in sources)


class TestDomain:
    def test_volume_and_dim(self):
        d = Domain(((-1, 1), (0, 2), (3, 6)))
        assert d.state_dim == 3
        assert d.volume == pytest.approx(12.0)

    def test_rejects_bad_intervals(self):
        with pytest.raises(ValueError):
            Domain(((1, 1),))
        with pytest.raises(ValueError):
            Domain(((0, -1),))
        with pytest.raises(ValueError):
            Domain(((0, np.inf),))
        with pytest.raises(ValueError):
            Domain(())

    def test_sampling_stays_inside(self):
        d = Domain(((-1, 1), (2, 5)))
        pts = d.sample(np.random.default_rng(0), 200)
        assert pts.shape == (200, 2)
        assert d.contains(pts).all()


class TestQuadrature:
    def test_weights_positive_and_sum_to_volume(self):
        for bounds, order in [(((-1, 1), (-1, 1)), 20),
                              (((0, 2), (1, 4), (-1, 0)), 7),
                              (((-3, 5),), 1)]:
            space = QuadratureSpace(Domain(bounds), order)
            assert (space.weights > 0).all()
            volume = Domain(bounds).volume
            assert np.sum(space.weights) == pytest.approx(volume, rel=1e-12)

    @pytest.mark.parametrize("first", ["nodes", "weights"])
    def test_full_rule_is_built_once(self, box, monkeypatch, first):
        # nodes and weights each built the whole tensor rule and kept half
        calls = []
        rule = QuadratureSpace._rule
        monkeypatch.setattr(QuadratureSpace, "_rule",
                            lambda space, lo, hi: calls.append((lo, hi)) or rule(space, lo, hi))
        space = QuadratureSpace(box, 6)
        getattr(space, first)
        assert "nodes" in vars(space) and "weights" in vars(space)
        space.gram(_atoms("1", "x1"))
        space.inner_product(*_atoms("x1", "x2"))
        assert calls == [(0, 36)]
        assert np.array_equal(space.nodes, space._rule(0, 36)[0])
        assert np.array_equal(space.weights, space._rule(0, 36)[1])

    def test_order_above_the_maximum_rejected(self, box):
        with pytest.raises(ValueError, match=f"maximum {space_module.MAX_QUAD_ORDER}"):
            QuadratureSpace(box, space_module.MAX_QUAD_ORDER + 1)

    def test_basic_inner_products(self, quad):
        one, x1 = _atoms("1", "x1")
        assert quad.inner_product(one, one) == pytest.approx(4.0, abs=1e-12)
        assert quad.inner_product(one, x1) == pytest.approx(0.0, abs=1e-12)
        assert quad.inner_product(x1, x1) == pytest.approx(4 / 3, abs=1e-12)

    def test_symmetry_and_nonnegativity(self, quad):
        f = parse("sin(x1)+0.2*x2^3", 2)
        g = parse("exp(x1*x2)", 2)
        assert quad.inner_product(f, g) == quad.inner_product(g, f)
        assert quad.inner_product(f, f) >= 0.0

    def test_gram_examples(self, quad):
        G = quad.gram(_atoms("1", "x1"))
        assert np.allclose(G.entries, [[4.0, 0.0], [0.0, 4 / 3]], atol=1e-12)
        G2 = quad.gram(_atoms("x1^2"))
        assert G2.entries[0, 0] == pytest.approx(0.8, abs=1e-12)

    def test_gram_matches_inner_product_bitwise(self, quad, box, dynamics):
        few = _atoms("1", "x1", "sin(x2)", "x1^2*x2")
        # block edges of the Gram kernel's 2**16-element product buffer:
        # order 40 (1600 nodes) holds 40 rows per block, fewer than these
        # 41 atoms; order 300 (90000 nodes) holds a single row per block
        many = _atoms(*[f"x1^{a}*x2^{b}" for a in range(7) for b in range(5)],
                      "sin(x1*x2)", "exp(x2)", "cos(3*x1)", "x1^2*x2",
                      "1/(2+x1)", "sqrt(2+x2)")
        # (space, atoms, rows checked entry by entry against inner_product)
        cases = [(quad, few, range(4)), (QuadratureSpace(box, 40), many, (0, 20, 40)),
                 (QuadratureSpace(box, 300), few[1:], range(3))]
        for space, atoms, rows in cases:
            m = len(atoms)
            G = space.gram(atoms).entries
            g_dict, g_cross, g_image = space.koopman_gram_blocks(atoms, dynamics)
            assert np.array_equal(G, g_dict)
            assert np.array_equal(G, G.T)
            assert np.array_equal(g_image, g_image.T)
            images = [compose_with_map(a, dynamics) for a in atoms]
            for i in rows:
                for j in range(m):
                    assert G[i, j] == space.inner_product(atoms[i], atoms[j])
                    assert g_cross[i, j] == space.inner_product(atoms[i], images[j])
                    assert g_image[i, j] == space.inner_product(images[i], images[j])

    def test_polynomial_exactness_against_closed_form(self):
        # order q integrates degree 2q-1 exactly per dimension
        space = QuadratureSpace(Domain(((-1, 1), (0.5, 2.0))), 6)

        def monomial_integral(a, b):
            ix = 0.0 if a % 2 == 1 else 2.0 / (a + 1)
            iy = (2.0 ** (b + 1) - 0.5 ** (b + 1)) / (b + 1)
            return ix * iy

        atoms = _atoms("1", "x1*x2", "x1^2*x2^2", "x1*x2^2")
        powers = [(0, 0), (1, 1), (2, 2), (1, 2)]
        G = space.gram(atoms)
        for i, (a1, b1) in enumerate(powers):
            for j, (a2, b2) in enumerate(powers):
                expected = monomial_integral(a1 + a2, b1 + b2)
                assert G.entries[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_order_doubling_stability(self, box):
        atoms = _atoms("1", "x1", "x2", "sin(x2)", "x1^2")
        low = QuadratureSpace(box, 20).gram(atoms).entries
        high = QuadratureSpace(box, 40).gram(atoms).entries
        assert np.max(np.abs(high - low)) / np.max(np.abs(high)) < 1e-9

    def test_cauchy_schwarz(self, quad):
        atoms = _atoms("1", "x1", "sin(x1*x2)", "exp(x1)", "x2^3")
        G = quad.gram(atoms).entries
        for i in range(len(atoms)):
            for j in range(len(atoms)):
                assert abs(G[i, j]) <= np.sqrt(G[i, i] * G[j, j]) + 1e-12

    def test_gram_is_positive_semidefinite(self, quad):
        atoms = _atoms("1", "x1", "x2", "x1*x2", "sin(x1)", "x1^2-x2^2")
        G = quad.gram(atoms).entries
        eigenvalues = np.linalg.eigvalsh(G)
        assert eigenvalues.min() >= -1e-10 * np.linalg.norm(G)

    def test_gram_matrix_rejects_asymmetry(self):
        from invprox import GramMatrix

        with pytest.raises(ValueError, match="symmetric"):
            GramMatrix(np.array([[1.0, 2.0], [0.0, 1.0]]), ("a", "b"))

    def test_nonfinite_rejected_with_point(self, quad):
        with pytest.raises(NonFiniteValue) as info:
            quad.inner_product(parse("log(x1)", 2), parse("1", 2))
        assert info.value.point.shape == (2,)
        assert info.value.point[0] < 0  # log of a negative coordinate

    def test_evaluation_memory_is_bounded(self, box):
        # all rows plus np.stack's copy of them peaked at 1.97x the output
        atoms = sweep_atoms("legendre", 10)
        nodes = QuadratureSpace(box, 300).nodes
        tracemalloc.start()
        try:
            values = _AtomProgram(atoms).values(nodes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.shape == (66, 90000)
        assert peak <= 1.5 * values.nbytes

    def test_refined(self, quad):
        assert quad.refined(2).order == 40
        # the convergence check halves the order, rounding up
        assert QuadratureSpace(quad.domain, 5).refined(0.5).order == 3
        assert quad.refined(0.5).order == 10
        box4 = Domain(((-1.0, 1.0),) * 4)
        check = QuadratureSpace(box4, 20).refined(0.5)
        assert check.nodes.shape == (10**4, 4)

    def test_node_budget(self):
        # 4^13 = 2^26 nodes is the largest rule allowed; its nodes are built
        # only on use
        largest = QuadratureSpace(Domain(((-1.0, 1.0),) * 13), 4)
        assert largest.n_nodes == space_module.MAX_QUAD_NODES
        for dim, order, nodes, fit in ((13, 5, 5**13, 4), (8, 20, 20**8, 9), (4, 91, 91**4, 90),
                                       (3, 1000, 10**9, 406)):
            with pytest.raises(ValueError, match=f"{nodes} nodes, .* the largest order that fits "
                                                 f"is {fit}$"):
                QuadratureSpace(Domain(((-1.0, 1.0),) * dim), order)
            assert fit ** dim <= space_module.MAX_QUAD_NODES < (fit + 1) ** dim

    def test_gauss_legendre_rule_is_computed_once_per_order(self, monkeypatch):
        leggauss = np.polynomial.legendre.leggauss
        calls = []
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda order: calls.append(order) or leggauss(order))
        space_module._gauss_legendre.cache_clear()
        box = Domain(((-1.0, 2.0), (0.5, 3.0)))
        spaces = [QuadratureSpace(box, 17), QuadratureSpace(box, 17)]
        assert spaces[0].refined(0.5).order == 9
        assert calls == [17, 9]
        assert not any(a.flags.writeable for a in space_module._gauss_legendre(17))
        # the nodes and weights that one leggauss call per space gave
        t, w = leggauss(17)
        (a1, b1), (a2, b2) = box.bounds
        x1, x2 = 0.5 * (b1 - a1) * t + 0.5 * (a1 + b1), 0.5 * (b2 - a2) * t + 0.5 * (a2 + b2)
        nodes = np.column_stack([np.repeat(x1, 17), np.tile(x2, 17)])
        weights = np.outer(0.5 * (b1 - a1) * w, 0.5 * (b2 - a2) * w).ravel()
        for space in spaces:
            assert np.array_equal(space.nodes, nodes)
            assert np.array_equal(space.weights, weights)


class TestKoopmanBlocks:
    def test_scaled_coordinate(self, quad, dynamics):
        _, g_cross, _ = quad.koopman_gram_blocks(_atoms("x1"), dynamics)
        assert g_cross[0, 0] == pytest.approx(0.9 * 4 / 3, abs=1e-12)

    def test_constant_is_fixed(self, quad, dynamics):
        g_dict, g_cross, g_image = quad.koopman_gram_blocks(_atoms("1"), dynamics)
        for block in (g_dict, g_cross, g_image):
            assert block[0, 0] == pytest.approx(4.0, abs=1e-12)

    def test_image_gram_against_independent_quadrature(self, quad, dynamics):
        # frozen from the independent doubled-order scalar oracle below
        atoms = _atoms("1", "x1", "x1^2")
        _, _, g_image = quad.koopman_gram_blocks(atoms, dynamics)
        oracle = gauss_legendre_2d(lambda x, y: ((0.9 * x) ** 2) ** 2, 40)
        assert oracle == pytest.approx(0.81**2 * 0.8, abs=1e-13)
        assert g_image[2, 2] == pytest.approx(oracle, abs=1e-12)

    def test_full_cross_block_against_oracle(self, quad, dynamics):
        atoms = _atoms("x2", "x1^2")
        _, g_cross, _ = quad.koopman_gram_blocks(atoms, dynamics)

        def k_x2(x, y):
            return 0.4 * (np.sin(y) + x**2) + 0.01 * y**2

        expected = gauss_legendre_2d(lambda x, y: y * k_x2(x, y), 40)
        assert g_cross[0, 0] == pytest.approx(expected, abs=1e-12)

    def test_quadrature_requires_dynamics(self, quad):
        with pytest.raises(ValueError):
            quad.koopman_gram_blocks(_atoms("x1"), None)

    def test_factor_reproduces_gram_blocks(self, quad, box, dynamics):
        # S3 folds 6553 nodes per block: order 20 is one block, the 300x300
        # rule (90000 nodes) is 14 blocks
        atoms = _atoms("1", "x1", "x2", "x1^2", "x2^2")
        X = np.random.default_rng(12).uniform(-1, 1, size=(5000, 2))
        cases = [(quad, dynamics), (QuadratureSpace(box, 300), dynamics),
                 (EmpiricalSpace(X, dynamics(X)), None)]
        for space, dyn in cases:
            R = space.koopman_factor(atoms, dyn)
            assert R.shape == (10, 10)
            assert np.array_equal(R, np.triu(R))
            g_dict, g_cross, g_image = space.koopman_gram_blocks(atoms, dyn)
            reference = np.block([[g_dict, g_cross], [g_cross.T, g_image]])
            scale = np.max(np.abs(reference))
            assert np.max(np.abs(R.T @ R - reference)) <= 1e-12 * scale

    def test_one_block_factor_is_lapack_qr_bitwise(self, quad, dynamics, dictionaries):
        # 400 nodes fit one block: the fold is one QR of sqrt(w) * [Psi, K Psi]
        atoms = dictionaries["S3"]
        X = np.random.default_rng(21).uniform(-1, 1, size=(quad.n_nodes, 2))
        for space, dyn, images in ((quad, dynamics, dynamics(quad.nodes)),
                                   (EmpiricalSpace(X, dynamics(X)), None, dynamics(X))):
            program = _AtomProgram(atoms)
            stacked = np.hstack([program.values(space.nodes).T, program.values(images).T])
            want = np.linalg.qr(np.sqrt(space.weights)[:, None] * stacked, mode="r")
            got = space.koopman_factor(atoms, dyn)
            assert np.array_equal(got.view(np.int64), want.view(np.int64))


def _factor_case(backend, mixed, n):
    """A space of n nodes, its dynamics map (None if empirical) and a
    dictionary of 4 Expr atoms, plus 3 other evaluables if ``mixed``."""
    if backend == "quadrature":  # one dimension, so that the order is n
        d, space = 1, QuadratureSpace(Domain(((-1.0, 2.0),)), n)
        T = dynamics = DynamicsMap.from_strings(["0.9*x1-0.2*x1^2"], 1)
    else:
        d, T, dynamics = 2, DynamicsMap.from_strings(DYNAMICS_SOURCES, 2), None
        X = np.random.default_rng(n).uniform(-1, 1, size=(n, 2))
        space = EmpiricalSpace(X, T(X))
    atoms = _atoms("1", "x1", f"x{d}^2", f"sin(x{d})", n=d)
    if mixed:
        atoms += (FunctionVec([1.0, -0.5], atoms[1:3]), lambda p: np.cos(p[:, 0]),
                  compose_with_map(atoms[3], T))
    return space, dynamics, atoms


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStreamedFactor:
    @settings(max_examples=80, deadline=None, database=None)
    @given(data=st.data())
    def test_matches_gram_blocks_at_any_node_count(self, data):
        backend = data.draw(st.sampled_from(["quadrature", "empirical"]))
        mixed = data.draw(st.booleans())
        # 1 value gives the 2m-row minimum; the module's own size only on
        # snapshots, as a 1-d Gauss rule of order 1e4 costs a 1e4 x 1e4 eigh
        sizes = [1, 48, 200] + [space_module._QR_BLOCK_VALUES] * (backend == "empirical")
        block_values = data.draw(st.sampled_from(sizes))
        m = 7 if mixed else 4
        rows = max(2 * m, block_values // (2 * m))
        n = data.draw(st.one_of(
            st.integers(1, 2 * m - 1),
            st.just(rows),
            st.builds(lambda k, e: k * rows + e, st.integers(1, 4), st.sampled_from([-1, 0, 1])),
            st.integers(1, 6 * rows),
        ), label="n")
        space, dynamics, atoms = _factor_case(backend, mixed, n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(space_module, "_QR_BLOCK_VALUES", block_values)
            R = space.koopman_factor(atoms, dynamics)
        assert R.shape == (min(n, 2 * m), 2 * m)
        assert np.array_equal(R, np.triu(R))
        g_dict, g_cross, g_image = space.koopman_gram_blocks(atoms, dynamics)
        reference = np.block([[g_dict, g_cross], [g_cross.T, g_image]])
        scale = np.max(np.abs(reference))
        assert np.max(np.abs(R.T @ R - reference)) <= 1e-12 * scale

    def test_non_finite_in_a_later_block_of_snapshots(self):
        # 8192 rows per block for 4 atoms. Block 3 of Psi fails in 1/x1 and,
        # at a later point but an earlier atom, in log(x2+1)
        atoms = _atoms("1", "x1", "log(x2+1)", "1/x1")
        rows = space_module._QR_BLOCK_VALUES // 8
        X = np.random.default_rng(13).uniform(0.5, 1.0, size=(3 * rows, 2))
        X[2 * rows + 7] = [0.0, 0.3]
        X[2 * rows + 9] = [0.7, -1.0]

        def failure(bad_image_row):
            Y = np.full_like(X, 0.5)
            if bad_image_row is not None:
                Y[bad_image_row, 0] = 0.0
            with pytest.raises(NonFiniteValue) as info:
                EmpiricalSpace(X, Y).koopman_factor(atoms)
            error = info.value
            atom = atoms[[str(a) for a in atoms].index(error.label.removeprefix("(")
                                                      .removesuffix(") o T"))]
            assert not np.isfinite(atom(error.point[None]))[0]
            return error.label, error.point.tolist()

        psi = ("log(x2+1.0)", X[2 * rows + 9].tolist())
        assert failure(None) == psi
        # K Psi in the same block comes after Psi, even at an earlier point
        assert failure(2 * rows + 1) == psi
        # an earlier block comes first
        assert failure(rows + 3) == ("(1.0/x1) o T", [0.0, 0.5])

    def test_non_finite_in_a_later_block_of_the_rule(self, box, dynamics):
        # 1/(x1 - c) is inf on the last row of the 100 x 100 rule (c its
        # largest x1), nodes 9900.. of 10000: the second of two blocks
        c = float(QuadratureSpace(box, 100).nodes[:, 0].max())
        atoms = _atoms("1", "x1", "x2", f"1/(x1-{c!r})")
        space = QuadratureSpace(box, 100)
        with pytest.raises(NonFiniteValue) as info:
            space.koopman_factor(atoms, dynamics)
        assert info.value.label == f"1.0/(x1-{c!r})"
        assert np.array_equal(info.value.point, [c, -c])
        assert not np.isfinite(atoms[3](info.value.point[None]))[0]
        assert "nodes" not in vars(space)

    def test_snapshot_memory_does_not_grow_with_n(self, dynamics):
        atoms = snapshot_atoms()
        peaks = []
        for n in (20_000, 200_000):
            X = np.random.default_rng(14).uniform(-1, 1, size=(n, 2))
            space = EmpiricalSpace(X, dynamics(X))
            peaks.append(_traced_peak(lambda: space.koopman_factor(atoms)))
        # evaluating all nodes before folding peaked at 5.2 and 51.9 MiB
        assert peaks[1] <= 1.2 * peaks[0]

    def test_quadrature_memory_does_not_grow_with_order(self):
        d = 4
        T = DynamicsMap.from_strings(
            [f"0.9*x{i}+0.1*x{i % d + 1}^2" for i in range(1, d + 1)], d)
        atoms = _atoms("1", *(f"x{i}" for i in range(1, d + 1)),
                       *(f"x{i}^2" for i in range(1, d + 1)), n=d)
        peaks = []
        for order in (12, 24):
            space = QuadratureSpace(Domain(((-1.0, 1.0),) * d), order)
            peaks.append(_traced_peak(lambda: space.koopman_factor(atoms, T)))
            assert "nodes" not in vars(space) and "weights" not in vars(space)
        assert peaks[1] <= 1.2 * peaks[0]


class TestEmpirical:
    def test_single_atom_example(self):
        space = EmpiricalSpace([[1.0, 0.0], [-1.0, 0.0]],
                               [[0.9, 0.4], [-0.9, 0.4]])
        G = space.gram(_atoms("x1"))
        assert G.entries[0, 0] == pytest.approx(1.0, abs=0.0)

    def test_images_from_successors(self, dynamics):
        rng = np.random.default_rng(3)
        X = rng.uniform(-1, 1, size=(50, 2))
        Y = dynamics(X)
        space = EmpiricalSpace(X, Y)
        atoms = _atoms("x1", "x2")
        _, g_cross, g_image = space.koopman_gram_blocks(atoms)
        # <x1, K x1> should equal mean of x1 * 0.9 x1 over the snapshots
        assert g_cross[0, 0] == pytest.approx(np.mean(X[:, 0] * Y[:, 0]), rel=1e-12)
        assert g_image[1, 1] == pytest.approx(np.mean(Y[:, 1] ** 2), rel=1e-12)

    def test_rejects_dynamics(self, dynamics):
        space = EmpiricalSpace([[0.0, 0.0]], [[0.0, 0.0]])
        with pytest.raises(ValueError):
            space.koopman_gram_blocks(_atoms("x1"), dynamics)

    def test_atoms_are_named_only_on_failure(self):
        space = EmpiricalSpace([[1.0, 1.0], [2.0, 2.0]], [[0.0, 1.0], [1.0, 1.0]])
        image_label = "(1.0/x1) o T is non-finite (inf) at point [0. 1.]"
        with pytest.raises(NonFiniteValue, match=re.escape(image_label)):
            space.koopman_factor(_atoms("x2", "1/x1"))

        class Ones:
            def __init__(self, n):
                self.n, self.labels = n, 0

            def __call__(self, points):
                return np.ones(self.n)

            def __str__(self):
                self.labels += 1
                return f"ones({self.n})"

        ones = Ones(2)
        space.koopman_factor((ones, parse("x1", 2)))
        assert ones.labels == 0
        wrong_length = "ones(3) returned 3 values for 2 points"
        with pytest.raises(ValueError, match=re.escape(wrong_length)):
            space.koopman_factor((ones, Ones(3)))
        assert space.gram((ones, parse("x1", 2))).atom_labels == ("ones(2)", "x1")

    def test_validation(self):
        with pytest.raises(ValueError):
            EmpiricalSpace(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            EmpiricalSpace([[np.nan, 0.0]], [[0.0, 0.0]])
        with pytest.raises(ValueError):
            EmpiricalSpace([[0.0, 0.0]], [[0.0, 0.0]], weights=[-1.0])

    def test_weighted_nodes_reproduce_quadrature(self, quad, dynamics):
        # quadrature nodes as snapshots with the rule's weights folded in:
        # the two backends must agree entry for entry
        X = quad.nodes
        space = EmpiricalSpace(X, dynamics(X), weights=quad.weights)
        atoms = _atoms("1", "x1", "x2^2", "sin(x2)")
        G_emp = space.gram(atoms).entries
        G_quad = quad.gram(atoms).entries
        assert np.array_equal(G_emp, G_quad)


class TestSnapshotCSV:
    def test_roundtrip_exact(self, tmp_path, dynamics):
        rng = np.random.default_rng(11)
        X = rng.uniform(-1, 1, size=(40, 2))
        Y = dynamics(X)
        path = tmp_path / "snaps.csv"
        write_snapshots(path, X, Y)
        X2, Y2 = read_snapshots(path)
        assert np.array_equal(X, X2)
        assert np.array_equal(Y, Y2)
        first = path.read_text().splitlines()[0]
        assert first == "x1,x2,y1,y2"

    def test_rejects_wrong_arity(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2,y1,y2\n1.0,2.0,3.0\n")
        with pytest.raises(ValueError, match="expected 4 fields"):
            read_snapshots(path)

    def test_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c,d\n1,2,3,4\n")
        with pytest.raises(ValueError, match="header"):
            read_snapshots(path)

    def test_rejects_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y1\n1.0,fish\n")
        with pytest.raises(ValueError, match="bad.csv:2"):
            read_snapshots(path)

    def test_rejects_empty(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_snapshots(path)

    @pytest.mark.parametrize("body, expected", [
        ("1,2,3,4\n\n5,6,7,8\n", [[1, 2, 3, 4], [5, 6, 7, 8]]),  # blank line
        ('"1",2,"3",4\n', [[1, 2, 3, 4]]),                        # quoted cells
        ("1_0,2,3,4\n", [[10, 2, 3, 4]]),                         # Python float syntax
        (" 1 ,2,3,4\r\n5,6,7,8\r\n", [[1, 2, 3, 4], [5, 6, 7, 8]]),  # CRLF, spaces
        ("1,2,3\n5,6,7\n", ":2: expected 4 fields, got 3"),     # uniform short rows
        ("1,2,3,4,5\n", ":2: expected 4 fields, got 5"),         # uniform long rows
        ("1,2,3,4\n#x\n", ":3: expected 4 fields, got 1"),      # '#' starts no comment
        ("1,2,3,4 # c\n", ":2: could not convert string to float: '4 # c'"),
        ("1,2,3,4\n   \n", ":3: expected 4 fields, got 1"),     # whitespace-only line
        ('"1\n",2,3,4\n5,6,7,x\n', ":4: could not convert string to float: 'x'"),
        ("", ": no snapshot rows"),                              # header only
        (None, ": empty snapshot file"),
    ])
    def test_reader_edge_cases(self, tmp_path, body, expected):
        path = tmp_path / "snaps.csv"
        path.write_text("" if body is None else "x1,x2,y1,y2\n" + body, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(expected, str):
                with pytest.raises(ValueError, match=re.escape(f"{path}{expected}")):
                    read_snapshots(path)
                return
            X, Y = read_snapshots(path)
        rows = np.array(expected, dtype=float)
        for got, want in ((X, rows[:, :2]), (Y, rows[:, 2:])):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("suffix", [".gz", ".bz2", ".xz"])
    def test_plain_text_under_a_compressed_suffix(self, tmp_path, suffix):
        # numpy picks a decompressor by the suffix; the file is read as text
        path = tmp_path / f"snaps.csv{suffix}"
        path.write_text("x1,y1\n0.5,0.25\n")
        X, Y = read_snapshots(path)
        assert X.tolist() == [[0.5]] and Y.tolist() == [[0.25]]

    @pytest.mark.parametrize("text, expected", [
        ("w\n0.5\n\n0.25\n", [0.5, 0.25]),                        # blank line
        ('w\n"0.5"\n', [0.5]),                                    # quoted cell
        ("w\n0.5,0.25\n", ":2: expected 1 fields, got 2"),        # two fields
        ("w\n0.5\nheavy\n", ":3: could not convert string to float: 'heavy'"),
        ("w\n", ": no snapshot rows"),                            # header only
        ("", ": weights file must start with header 'w'"),
        ("\nw\n0.5\n", ": weights file must start with header 'w'"),  # leading blank
        ("w,w\n0.5\n", ": weights file must start with header 'w'"),
    ])
    def test_weights_reader_edge_cases(self, tmp_path, text, expected):
        path = tmp_path / "weights.csv"
        path.write_text(text, newline="")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(expected, str):
                with pytest.raises(ValueError, match=re.escape(f"{path}{expected}")):
                    read_weights(path)
                return
            weights = read_weights(path)
        assert weights.dtype == np.float64 and np.array_equal(weights, expected)
