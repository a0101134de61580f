import numpy as np
import pytest

from invprox import (
    DegenerateSpace,
    NotPSD,
    SubspaceBasis,
    build_isomorphism,
    orthonormalize,
    principal_angles,
)

from bruteforce import BudgetExceeded, principal_angles_bruteforce


def random_orthonormal(rng, ambient, dim):
    q, _ = np.linalg.qr(rng.standard_normal((ambient, dim)))
    return q[:, :dim]


def random_spd(rng, dim, condition=1e3):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigenvalues = np.logspace(0.0, -np.log10(condition), dim)
    return q @ np.diag(eigenvalues) @ q.T


class TestOrthonormalize:
    def test_identity(self):
        B, rank = orthonormalize(np.eye(3))
        assert rank == 3
        assert np.allclose(B, np.eye(3))

    def test_diagonal_scaling(self):
        G = np.diag([4.0, 4 / 3])
        B, rank = orthonormalize(G)
        assert rank == 2
        # columns ordered by descending eigenvalue
        assert np.allclose(B, np.diag([0.5, np.sqrt(3) / 2]), atol=1e-14)
        assert np.allclose(B.T @ G @ B, np.eye(2), atol=1e-14)

    def test_rank_deficiency(self):
        G = np.ones((2, 2))
        B, rank = orthonormalize(G)
        assert rank == 1
        assert np.allclose(B.T @ G @ B, [[1.0]], atol=1e-12)

    def test_orthonormality_contract_random(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            dim = int(rng.integers(2, 9))
            G = random_spd(rng, dim)
            B, rank = orthonormalize(G)
            assert rank == dim
            assert np.max(np.abs(B.T @ G @ B - np.eye(dim))) < 1e-10

    def test_not_psd(self):
        with pytest.raises(NotPSD):
            orthonormalize(np.diag([1.0, -1.0]))

    def test_degenerate(self):
        with pytest.raises(DegenerateSpace):
            orthonormalize(np.zeros((3, 3)))


class TestIsomorphism:
    def test_identity_gram(self):
        iso = build_isomorphism(np.eye(4))
        assert np.allclose(np.abs(iso.embed_matrix), np.eye(4))

    def test_diagonal_example(self):
        iso = build_isomorphism(np.diag([4.0, 4 / 3]))
        e1 = iso.embed([1.0, 0.0])
        e2 = iso.embed([0.0, 1.0])
        assert e1 @ e1 == pytest.approx(4.0, abs=1e-12)
        assert e2 @ e2 == pytest.approx(4 / 3, abs=1e-12)
        assert abs(iso.embed_matrix[0, 0]) == pytest.approx(2.0, abs=1e-12)

    def test_preserves_inner_products_random_spd(self):
        rng = np.random.default_rng(1)
        G = random_spd(rng, 5)
        iso = build_isomorphism(G)
        scale = np.linalg.norm(G)
        for _ in range(100):
            a = rng.standard_normal(5)
            b = rng.standard_normal(5)
            assert abs(a @ G @ b - iso.embed(a) @ iso.embed(b)) < 1e-12 * scale

    def test_injective_on_span(self):
        rng = np.random.default_rng(2)
        G = random_spd(rng, 6)
        iso = build_isomorphism(G)
        assert iso.dim == 6
        assert np.linalg.matrix_rank(iso.embed_matrix) == 6


class TestPrincipalAngles:
    def test_same_subspace(self):
        rng = np.random.default_rng(3)
        Q = random_orthonormal(rng, 5, 2)
        dec = principal_angles(Q, Q)
        assert np.all(dec.angles < 1e-8)

    def test_planted_angle(self):
        theta = 0.3
        qu = np.array([[1.0], [0.0]])
        qv = np.array([[np.cos(theta)], [np.sin(theta)]])
        dec = principal_angles(qu, qv)
        assert dec.angles[0] == pytest.approx(theta, abs=1e-12)

    def test_orthogonal_subspaces(self):
        qu = np.eye(3)[:, :2]
        qv = np.eye(3)[:, 2:]
        dec = principal_angles(qu, qv)
        assert dec.angles[0] == pytest.approx(np.pi / 2, abs=1e-12)
        assert not dec.swapped
        # a smaller first argument is exchanged so that dim(U) >= dim(V)
        assert principal_angles(qv, qu).swapped

    def test_small_angle_accuracy(self):
        for theta in (1e-9, 1e-7, 1e-5):
            qu = np.eye(3)[:, :1]
            qv = np.array([[np.cos(theta)], [np.sin(theta)], [0.0]])
            dec = principal_angles(qu, qv)
            assert dec.angles[0] == pytest.approx(theta, rel=1e-6)

    def test_angles_sorted_and_clamped(self):
        rng = np.random.default_rng(4)
        for _ in range(30):
            qu = random_orthonormal(rng, 6, 3)
            qv = random_orthonormal(rng, 6, 2)
            dec = principal_angles(qu, qv)
            assert np.all(np.diff(dec.angles) >= 0)
            assert np.all((dec.angles >= 0) & (dec.angles <= np.pi / 2))

    def test_swap_symmetry_equal_dims(self):
        rng = np.random.default_rng(5)
        qu = random_orthonormal(rng, 5, 2)
        qv = random_orthonormal(rng, 5, 2)
        a = principal_angles(qu, qv).angles
        b = principal_angles(qv, qu).angles
        assert np.max(np.abs(a - b)) < 1e-12

    def test_rotation_invariance(self):
        rng = np.random.default_rng(6)
        qu = random_orthonormal(rng, 6, 3)
        qv = random_orthonormal(rng, 6, 2)
        rotation = random_orthonormal(rng, 6, 6)
        a = principal_angles(qu, qv).angles
        b = principal_angles(rotation @ qu, rotation @ qv).angles
        assert np.max(np.abs(a - b)) < 1e-10

    def test_vector_invariants(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            ambient = int(rng.integers(2, 7))
            du = int(rng.integers(1, min(3, ambient) + 1))
            dv = int(rng.integers(1, min(3, ambient) + 1))
            qu = random_orthonormal(rng, ambient, du)
            qv = random_orthonormal(rng, ambient, dv)
            dec = principal_angles(qu, qv)
            U, V = dec.u_vectors, dec.v_vectors
            m2 = dec.dim_v
            pairing = U.T @ V
            # <u_i, v_j> = delta_ij cos(theta_i), real nonnegative
            for i in range(m2):
                for j in range(m2):
                    expected = np.cos(dec.angles[i]) if i == j else 0.0
                    assert abs(pairing[i, j] - expected) < 1e-8
            assert np.max(np.abs(U.T @ U - np.eye(m2))) < 1e-8
            assert np.max(np.abs(V.T @ V - np.eye(m2))) < 1e-8
            # paired two-dimensional subspaces are mutually orthogonal
            for i in range(m2):
                for j in range(m2):
                    if i == j:
                        continue
                    for x in (U[:, i], V[:, i]):
                        for y in (U[:, j], V[:, j]):
                            assert abs(x @ y) < 1e-8
            # residual of v against cos(theta) u has norm sin(theta)
            for i in range(m2):
                residual = V[:, i] - np.cos(dec.angles[i]) * U[:, i]
                assert abs(np.linalg.norm(residual) - np.sin(dec.angles[i])) < 1e-8

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            principal_angles(np.eye(3)[:, :1], np.eye(4)[:, :1])


class TestSubspaceBasis:
    def test_accepts_orthonormal(self):
        basis = SubspaceBasis(np.eye(4)[:, :2])
        assert basis.ambient_dim == 4
        assert basis.rank == 2

    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            SubspaceBasis(np.ones((3, 2)))


class TestBruteForceOracle:
    def test_planted_angle(self):
        theta = 0.3
        qu = np.array([[1.0], [0.0]])
        qv = np.array([[np.cos(theta)], [np.sin(theta)]])
        angles = principal_angles_bruteforce(qu, qv)
        assert angles[0] == pytest.approx(theta, abs=1e-6)

    def test_orthogonal(self):
        angles = principal_angles_bruteforce(np.eye(3)[:, :2], np.eye(3)[:, 2:])
        assert angles[0] == pytest.approx(np.pi / 2, abs=1e-6)

    def test_matches_svd_on_random_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            ambient = int(rng.integers(2, 7))
            du = int(rng.integers(1, min(3, ambient) + 1))
            dv = int(rng.integers(1, min(3, ambient) + 1))
            qu = random_orthonormal(rng, ambient, du)
            qv = random_orthonormal(rng, ambient, dv)
            reference = principal_angles(qu, qv).angles
            oracle = principal_angles_bruteforce(qu, qv, seed=0)
            assert np.max(np.abs(np.sort(reference) - np.sort(oracle))) < 1e-6

    def test_budget_exceeded(self):
        rng = np.random.default_rng(9)
        qu = random_orthonormal(rng, 4, 2)
        qv = random_orthonormal(rng, 4, 2)
        with pytest.raises(BudgetExceeded):
            principal_angles_bruteforce(qu, qv, max_iter=0)


class TestComplexField:
    """The geometry layer is exercised over C with synthetic Gram inputs."""

    @staticmethod
    def _function_gram(columns):
        # G[i, j] = <g_i, g_j> with <x, y> = y^H x, i.e. the transpose of C^H C
        return (columns.conj().T @ columns).T

    def test_embedding_preserves_complex_inner_products(self):
        rng = np.random.default_rng(10)
        C = rng.standard_normal((8, 5)) + 1j * rng.standard_normal((8, 5))
        G = self._function_gram(C)
        iso = build_isomorphism(G)
        scale = np.linalg.norm(G)
        for _ in range(50):
            a = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            direct = np.vdot(C @ b, C @ a)  # <f_a, f_b> = (Cb)^H (Ca)
            embedded = np.vdot(iso.embed(b), iso.embed(a))
            assert abs(direct - embedded) < 1e-10 * scale

    def test_orthonormalize_complex(self):
        rng = np.random.default_rng(11)
        C = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
        G = self._function_gram(C)
        B, rank = orthonormalize(G)
        assert rank == 4
        functions = C @ B
        assert np.max(np.abs(functions.conj().T @ functions - np.eye(4))) < 1e-10

    def test_angles_match_direct_computation(self):
        rng = np.random.default_rng(12)
        C = rng.standard_normal((9, 6)) + 1j * rng.standard_normal((9, 6))
        G = self._function_gram(C)
        iso = build_isomorphism(G)
        AU = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
        AV = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        direct = principal_angles(
            np.linalg.qr(C @ AU)[0], np.linalg.qr(C @ AV)[0]
        ).angles
        embedded = principal_angles(
            np.linalg.qr(iso.embed(AU))[0], np.linalg.qr(iso.embed(AV))[0]
        ).angles
        assert np.max(np.abs(direct - embedded)) < 1e-10

    def test_complex_pairing_real_nonnegative(self):
        rng = np.random.default_rng(13)
        qu = np.linalg.qr(rng.standard_normal((6, 3))
                          + 1j * rng.standard_normal((6, 3)))[0]
        qv = np.linalg.qr(rng.standard_normal((6, 2))
                          + 1j * rng.standard_normal((6, 2)))[0]
        dec = principal_angles(qu, qv)
        for i in range(dec.dim_v):
            pairing = np.vdot(dec.v_vectors[:, i], dec.u_vectors[:, i])
            assert abs(pairing.imag) < 1e-10
            assert pairing.real > -1e-10
            assert abs(pairing.real - np.cos(dec.angles[i])) < 1e-8


class TestTwoIsomorphisms:
    """Angles agree under independently constructed coordinate embeddings."""

    def test_eigen_versus_cholesky_embedding(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            G = random_spd(rng, dim)
            embed_eigen = build_isomorphism(G).embed_matrix
            embed_chol = np.linalg.cholesky(G).T  # also satisfies E^T E = G
            assert np.max(np.abs(embed_chol.T @ embed_chol - G)) < 1e-12
            du = int(rng.integers(1, dim))
            dv = int(rng.integers(1, dim))
            AU = rng.standard_normal((dim, du))
            AV = rng.standard_normal((dim, dv))
            angles = []
            for embed in (embed_eigen, embed_chol):
                qu = np.linalg.qr(embed @ AU)[0]
                qv = np.linalg.qr(embed @ AV)[0]
                angles.append(principal_angles(qu, qv).angles)
            assert np.max(np.abs(angles[0] - angles[1])) < 1e-10
