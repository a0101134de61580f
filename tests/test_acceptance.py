"""Acceptance suite: every release criterion, one test each, with a printed
pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s`` to see the
lines as they execute.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from invprox import (
    EmpiricalSpace,
    FunctionVec,
    InvarianceAnalysis,
    build_isomorphism,
    principal_angles,
    proximity_oracle,
)
from invprox.cli import main

from bruteforce import principal_angles_bruteforce
from conftest import DICTIONARIES

CONFIGS_DIR = Path(__file__).resolve().parent.parent / "configs"


def report(number, name, passed):
    print(f"[criterion {number}] {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({name}) failed"


def test_criterion_1_table1_values_and_runtime(tmp_path):
    start = time.perf_counter()
    code = main(["table1", "--out", str(tmp_path)])
    elapsed = time.perf_counter() - start
    rows = (tmp_path / "table1.csv").read_text().splitlines()[1:]
    values = {row.split(",")[0]: float(row.split(",")[1]) for row in rows}
    ok = (
        code == 0
        and values["S1"] <= 1e-8
        and abs(values["S2"] - 0.048) <= 0.002
        and abs(values["S3"] - 0.823) <= 0.005
        and elapsed < 10.0
    )
    report(1, f"benchmark table values at quadrature order 20 ({elapsed:.2f}s)", ok)


def test_criterion_2_oracle_tightness(quad, dynamics, dictionaries):
    start = time.perf_counter()
    ok = True
    for name in ("S2", "S3"):
        atoms = dictionaries[name]
        analysis = InvarianceAnalysis(atoms, quad, dynamics)
        result = proximity_oracle(analysis, n_samples=10000, seed=0)
        closed = analysis.proximity
        ok &= result.max_error <= closed + 1e-8
        ok &= closed - result.max_error <= 0.01 * closed
        # no individual sample may exceed the closed form either
        rng = np.random.default_rng(123)
        samples = rng.standard_normal((10000, analysis.dim_s))
        samples /= np.linalg.norm(samples, axis=1, keepdims=True)
        images = analysis.basis_image_map @ samples.T
        norms = np.linalg.norm(images, axis=0)
        keep = norms > 1e-14
        q = analysis.q_s
        errors = np.linalg.norm(images - q @ (q.T @ images), axis=0)[keep] / norms[keep]
        ok &= bool(np.all(errors <= closed + 1e-8))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    report(2, f"10000-sample oracle within 1% of the closed form ({elapsed:.2f}s)", ok)


def test_criterion_3_isomorphism_suite():
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 9))
        basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        eigenvalues = np.logspace(0.0, -3.0, dim)
        G = basis @ np.diag(eigenvalues) @ basis.T
        G = 0.5 * (G + G.T)
        scale = np.linalg.norm(G)
        embed_eigen = build_isomorphism(G).embed_matrix
        embed_chol = np.linalg.cholesky(G).T
        for _ in range(5):
            a = rng.standard_normal(dim)
            b = rng.standard_normal(dim)
            ok &= abs(a @ G @ b - (embed_eigen @ a) @ (embed_eigen @ b)) <= 1e-10 * scale
            ok &= abs(a @ G @ b - (embed_chol @ a) @ (embed_chol @ b)) <= 1e-10 * scale
        du = int(rng.integers(1, dim))
        dv = int(rng.integers(1, dim))
        AU = rng.standard_normal((dim, du))
        AV = rng.standard_normal((dim, dv))
        angle_sets = []
        for embed in (embed_eigen, embed_chol):
            qu = np.linalg.qr(embed @ AU)[0]
            qv = np.linalg.qr(embed @ AV)[0]
            angle_sets.append(principal_angles(qu, qv).angles)
        ok &= bool(np.max(np.abs(angle_sets[0] - angle_sets[1])) <= 1e-10)
    report(3, "100 random Grams: inner products and angles preserved to 1e-10", ok)


def test_criterion_4_principal_angle_oracle():
    rng = np.random.default_rng(7)
    ok = True
    for trial in range(50):
        ambient = int(rng.integers(2, 7))
        du = int(rng.integers(1, min(3, ambient) + 1))
        dv = int(rng.integers(1, min(3, ambient) + 1))
        qu = np.linalg.qr(rng.standard_normal((ambient, du)))[0]
        qv = np.linalg.qr(rng.standard_normal((ambient, dv)))[0]
        dec = principal_angles(qu, qv)
        brute = principal_angles_bruteforce(qu, qv, seed=trial)
        ok &= bool(np.max(np.abs(np.sort(dec.angles) - np.sort(brute))) <= 1e-6)
        U, V = dec.u_vectors, dec.v_vectors
        m2 = dec.dim_v
        pairing = U.T @ V
        for i in range(m2):
            for j in range(m2):
                expected = np.cos(dec.angles[i]) if i == j else 0.0
                ok &= abs(pairing[i, j] - expected) <= 1e-8
        ok &= bool(np.max(np.abs(U.T @ U - np.eye(m2))) <= 1e-8)
        ok &= bool(np.max(np.abs(V.T @ V - np.eye(m2))) <= 1e-8)
        for i in range(m2):
            for j in range(m2):
                if i != j:
                    for x in (U[:, i], V[:, i]):
                        for y in (U[:, j], V[:, j]):
                            ok &= abs(x @ y) <= 1e-8
            residual = V[:, i] - np.cos(dec.angles[i]) * U[:, i]
            ok &= abs(np.linalg.norm(residual) - np.sin(dec.angles[i])) <= 1e-8
    report(4, "brute-force recursion matches SVD angles on 50 pairs to 1e-6", ok)


def test_criterion_5_basis_and_measure_invariance(quad, dynamics, dictionaries):
    atoms = dictionaries["S2"]
    baseline = InvarianceAnalysis(atoms, quad, dynamics).proximity
    rng = np.random.default_rng(99)
    ok = True
    for _ in range(20):
        while True:
            A = rng.standard_normal((len(atoms), len(atoms)))
            if np.linalg.cond(A) < 1e3:
                break
        reparam = tuple(FunctionVec(row, atoms) for row in A)
        value = InvarianceAnalysis(reparam, quad, dynamics).proximity
        ok &= abs(value - baseline) <= 1e-9
    nodes = quad.nodes
    images = dynamics(nodes)
    unscaled = InvarianceAnalysis(
        atoms, EmpiricalSpace(nodes, images, weights=quad.weights)
    ).proximity
    for scale in (1e-3, 3.7, 1e4):
        scaled = InvarianceAnalysis(
            atoms, EmpiricalSpace(nodes, images, weights=scale * quad.weights)
        ).proximity
        ok &= abs(scaled - unscaled) <= 1e-9
    report(5, "proximity invariant under 20 re-parameterizations and weight scaling", ok)


def test_criterion_6_prediction_error_ordering(tmp_path):
    outputs = {}
    ok = True
    for name in ("s1", "s2", "s3"):
        out = tmp_path / name
        ok &= main(["predict", "--config", str(CONFIGS_DIR / f"{name}.json"),
                    "--out", str(out), "--seed", "2024"]) == 0
        outputs[name] = json.loads((out / "predict.json").read_text())["steps"]
    ok &= all(len(outputs[name]) == 10 for name in outputs)
    ok &= all(step["max"] <= 1e-8 for step in outputs["s1"])
    for a, b in zip(outputs["s2"], outputs["s3"]):
        ok &= a["median"] < b["median"]
    report(6, "100 seeded trajectories: S1 exact, S2 median below S3 at all steps", ok)


def test_criterion_7_residual_bound(quad, dynamics, dictionaries):
    ok = True
    for atoms in dictionaries.values():
        analysis = InvarianceAnalysis(atoms, quad, dynamics)
        bound = analysis.restricted_norm() * analysis.proximity
        for _, residual in analysis.residuals():
            ok &= residual <= bound + 1e-8
    rng = np.random.default_rng(2024)
    X = rng.uniform(-1, 1, size=(500, 2))
    space = EmpiricalSpace(X, dynamics(X))
    for atoms in dictionaries.values():
        analysis = InvarianceAnalysis(atoms, space)
        bound = analysis.restricted_norm() * analysis.proximity
        for _, residual in analysis.residuals():
            ok &= residual <= bound + 1e-8
    report(7, "eigenpair residuals below restricted-norm bound, both backends", ok)


def test_criterion_8_error_expansion_identity(quad, dynamics, dictionaries):
    ok = True
    for atoms in dictionaries.values():
        analysis = InvarianceAnalysis(atoms, quad, dynamics)
        v_vectors = analysis.decomposition.v_vectors
        sines_sq = np.sin(analysis.angles) ** 2
        rng = np.random.default_rng(8)
        checked = 0
        while checked < 200:
            coeffs = rng.standard_normal(len(atoms))
            image = analysis.image_coords(coeffs)
            if np.linalg.norm(image) < 1e-12:
                continue
            checked += 1
            alphas_sq = (v_vectors.T @ image) ** 2
            expected_sq = np.sum(alphas_sq * sines_sq) / np.sum(alphas_sq)
            ok &= abs(analysis.relative_error(coeffs) ** 2 - expected_sq) <= 1e-8
    report(8, "squared error equals its principal-angle expansion on 200 draws", ok)


def test_criterion_9_empirical_quadrature_consistency(quad, dynamics, dictionaries):
    nodes = quad.nodes
    space = EmpiricalSpace(nodes, dynamics(nodes), weights=quad.weights)
    ok = True
    for atoms in dictionaries.values():
        via_quadrature = InvarianceAnalysis(atoms, quad, dynamics).proximity
        via_snapshots = InvarianceAnalysis(atoms, space).proximity
        ok &= abs(via_quadrature - via_snapshots) <= 1e-6
    report(9, "node-as-snapshot construction reproduces quadrature proximity", ok)
