"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS line (visible with ``pytest -s`` or in the
captured output); the directional-replication case is the long one and
budgets ten minutes.
"""

import random
import time

import numpy as np
import pytest

from slemap.config import PipelineConfig
from slemap.dataset import Dataset
from slemap.dictionary import build_dictionary
from slemap.errors import KTooLarge
from slemap.estimator import estimate_batch
from slemap.evaluation import cross_validate, prepare_dataset, run_methods
from slemap.laplacian import (
    build_laplacian,
    descend_eigenmap,
    objective_phi,
    phi_gradient,
    solve_eigenmap,
)
from slemap.logistic import (
    LabeledFeatures,
    LearnerParams,
    grad_embedding,
    grad_theta,
    loss,
)
from slemap.lsi import TermDocumentMatrix, fit_lsi, reconstruction
from slemap.metrics import ConfusionCounts, compute_auc, compute_mcc
from slemap.cli import main as cli_main
from slemap.similarity import SimilarityComputer
from slemap.sle import SleConfig, fit_sle
from slemap.synth import GeneratorSpec, generate_arrays
from slemap.text import Statement
from slemap.transforms import TransformWeights, statement_similarity

from oracles import (
    OracleRules,
    canonical_statements,
    oracle_document_similarity,
    oracle_statement_similarity,
)
from test_text_similarity import random_dictionary, random_weights


def _report(n, text):
    print(f"PASS criterion {n}: {text}")


def test_c01_statement_similarity_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(20240917)
    for trial in range(200):
        pool, groups, acronyms, abbreviations = random_dictionary(rng)
        dct = build_dictionary(groups, acronyms, abbreviations)
        rules = OracleRules(groups, acronyms, abbreviations)
        weights = random_weights(rng) if trial % 2 else TransformWeights.default()
        a = tuple(rng.choice(pool) for _ in range(rng.randint(1, 5)))
        b = tuple(rng.choice(pool) for _ in range(rng.randint(1, 5)))
        got = statement_similarity(Statement(a), Statement(b), weights, dct)
        want = oracle_statement_similarity(a, b, weights.values, rules)
        assert got == want, (a, b, got, want)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"
    _report(1, f"200 random pairs, subset DP == exhaustive enumeration ({elapsed:.1f}s)")


def test_c02_document_pairing_oracle_equivalence():
    rng = random.Random(71)
    pool = ["chest", "pain", "heart", "racing", "dizzy", "faint", "sob", "cp",
            "tight", "pressure", "sharp", "burn"]
    comp = SimilarityComputer()
    from slemap.text import Document
    for _ in range(100):
        def make_doc(tag):
            stmts = tuple(
                Statement(tuple(rng.choice(pool) for _ in range(rng.randint(1, 3))))
                for _ in range(rng.randint(1, 4)))
            return Document(id=tag, statements=stmts)
        d1, d2 = make_doc("a"), make_doc("b")
        got = comp.document_similarity(d1, d2)
        s1, s2 = canonical_statements(d1, d2)
        sims = [[comp.statement_similarity(Statement(x), Statement(y)) for y in s2] for x in s1]
        want = oracle_document_similarity(sims, len(s1), len(s2))
        assert got == want
    _report(2, "100 random document pairs, matcher == exhaustive pairing enumeration")


def test_c03_worked_transform_example():
    dct = build_dictionary(synonym_groups=[["exercise", "activity"]])
    val = statement_similarity(
        Statement(("cp", "with", "activity")),
        Statement(("exercise", "induced", "chest", "pain")),
        TransformWeights.default(), dct)
    assert val == 0.5
    _report(3, "'cp with activity' vs 'exercise induced chest pain' scores 0.5")


def test_c04_gradient_suite():
    start = time.monotonic()
    rng = np.random.default_rng(99)
    h = 1e-6
    for _ in range(20):
        m = int(rng.integers(4, 16))
        dims = int(rng.integers(1, 4))
        a = rng.random((m, m))
        s = (a + a.T) / 2.0
        np.fill_diagonal(s, 1.0)
        lap = build_laplacian(s)
        x = rng.standard_normal((m, dims))
        grad = phi_gradient(x, lap)
        fd = np.zeros_like(x)
        for i in range(m):
            for j in range(dims):
                xp = x.copy(); xp[i, j] += h
                xm = x.copy(); xm[i, j] -= h
                fd[i, j] = (objective_phi(xp, lap) - objective_phi(xm, lap)) / (2 * h)
        scale = max(np.abs(grad).max(), 1e-12)
        assert np.abs(grad - fd).max() / scale < 1e-5

        n_num = int(rng.integers(1, 4))
        data = LabeledFeatures(rng.standard_normal((m, n_num + dims)),
                               rng.integers(0, 2, m), slice(n_num, n_num + dims))
        params = LearnerParams(rng.standard_normal(n_num + dims),
                               float(rng.standard_normal()), 0.1)
        gw, gb = grad_theta(params, data)
        fd_w = np.zeros_like(gw)
        for j in range(gw.shape[0]):
            wp = params.weights.copy(); wp[j] += h
            wm = params.weights.copy(); wm[j] -= h
            fd_w[j] = (loss(LearnerParams(wp, params.bias, 0.1), data)
                       - loss(LearnerParams(wm, params.bias, 0.1), data)) / (2 * h)
        fd_b = (loss(LearnerParams(params.weights, params.bias + h, 0.1), data)
                - loss(LearnerParams(params.weights, params.bias - h, 0.1), data)) / (2 * h)
        scale = max(np.abs(gw).max(), abs(gb), 1e-12)
        assert np.abs(gw - fd_w).max() / scale < 1e-5
        assert abs(gb - fd_b) / scale < 1e-5

        ge = grad_embedding(params, data)
        xe = data.embedding
        fd_e = np.zeros_like(ge)
        for i in range(m):
            for j in range(dims):
                up = xe.copy(); up[i, j] += h
                dn = xe.copy(); dn[i, j] -= h
                fd_e[i, j] = (loss(params, data.with_embedding(up))
                              - loss(params, data.with_embedding(dn))) / (2 * h)
        scale = max(np.abs(ge).max(), 1e-12)
        assert np.abs(ge - fd_e).max() / scale < 1e-5
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"took {elapsed:.1f}s"
    _report(4, f"three gradients match finite differences on 20 instances ({elapsed:.1f}s)")


def test_c05_descent_matches_eigensolver():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        a = rng.random((50, 50))
        s = (a + a.T) / 2.0
        np.fill_diagonal(s, 1.0)
        lap = build_laplacian(s)
        target = objective_phi(solve_eigenmap(lap, 5), lap)
        out = descend_eigenmap(lap, 5, rng.standard_normal((50, 5)), steps=5000)
        achieved = objective_phi(out, lap)
        assert achieved <= target + 1e-6 * abs(target)
        gram = out.T @ (lap.degrees[:, None] * out)
        assert np.linalg.norm(gram - np.eye(5)) <= 1e-8
    _report(5, "descent reaches the eigensolver objective to 1e-6 relative, 10 matrices")


def test_c06_sle_monotone_trace_and_lambda_zero_fixed_point():
    for seed in range(10):
        spec = GeneratorSpec(m=120, numeric_dim=5, clusters=6, text_weight=0.6, noise=0.05)
        ids, labels, numeric, texts, _ = generate_arrays(spec, seed=seed)
        ds = Dataset(ids=ids, labels=labels, numeric=numeric, texts=texts)
        prepared = prepare_dataset(ds, PipelineConfig(), True)
        s = prepared.similarity.values
        cfg = SleConfig(dims=3, max_outer_iters=6, inner_theta_steps=6,
                        inner_embedding_steps=4, seed=seed)
        model = fit_sle((numeric - numeric.mean(0)) / np.where(numeric.std(0) > 0, numeric.std(0), 1),
                        s, labels, cfg)
        trace = model.objective_trace
        assert all(trace[i + 1] <= trace[i] for i in range(len(trace) - 1))
    spec = GeneratorSpec(m=80, numeric_dim=4, clusters=4, text_weight=0.6, noise=0.05)
    ids, labels, numeric, texts, _ = generate_arrays(spec, seed=123)
    ds = Dataset(ids=ids, labels=labels, numeric=numeric, texts=texts)
    prepared = prepare_dataset(ds, PipelineConfig(), True)
    lap = build_laplacian(prepared.similarity.values)
    xe0 = solve_eigenmap(lap, 3)
    cfg0 = SleConfig(dims=3, lam=0.0, max_outer_iters=5, inner_theta_steps=5,
                     inner_embedding_steps=5, seed=0)
    model0 = fit_sle(numeric, prepared.similarity.values, labels, cfg0, lap=lap, xe0=xe0)
    assert np.abs(model0.embedding - xe0).max() < 1e-8
    _report(6, "joint objective non-increasing on 10 runs; lambda=0 embedding fixed to 1e-8")


def test_c07_directional_replication():
    start = time.monotonic()
    spec = GeneratorSpec(m=2000, numeric_dim=30, clusters=16, text_weight=0.5, noise=0.05)
    means = {m: [] for m in ("numeric", "le", "sle")}
    for seed in range(10):
        ids, labels, numeric, texts, _ = generate_arrays(spec, seed=seed)
        ds = Dataset(ids=ids, labels=labels, numeric=numeric, texts=texts)
        cfg = PipelineConfig(dims=10, lambda_ratio=0.2, max_outer_iters=4,
                             inner_theta_steps=10, inner_embedding_steps=4, seed=seed)
        prepared = prepare_dataset(ds, cfg, True)
        reports = run_methods(ds, ["numeric", "le", "sle"], cfg, prepared=prepared)
        for m in means:
            means[m].append(reports[m].mean_auc)
    numeric_auc = float(np.mean(means["numeric"]))
    le_auc = float(np.mean(means["le"]))
    sle_auc = float(np.mean(means["sle"]))
    elapsed = time.monotonic() - start
    assert sle_auc >= le_auc >= numeric_auc, (sle_auc, le_auc, numeric_auc)
    assert sle_auc - le_auc >= 0.005, f"gap {sle_auc - le_auc:.4f}"
    assert elapsed < 600.0, f"took {elapsed:.0f}s"
    _report(7, f"mean AUC sle {sle_auc:.4f} >= le {le_auc:.4f} >= numeric {numeric_auc:.4f}, "
               f"gap {sle_auc - le_auc:+.4f} ({elapsed:.0f}s)")


def test_c08_knn_estimator_properties():
    def estimates(idx, sims, xe):
        """(average, weighted) from the neighbors idx; the rest score 0."""
        row = np.zeros((1, xe.shape[0]))
        row[0, list(idx)] = sims
        return tuple(estimate_batch(row, xe, len(idx), weighted)[0][0]
                     for weighted in (False, True))

    rng = np.random.default_rng(5)
    for _ in range(100):
        n, dims = 12, 3
        xe = rng.standard_normal((n, dims))
        k = int(rng.integers(1, 7))
        idx = tuple(int(i) for i in rng.choice(n, size=k, replace=False))
        c = float(rng.random() * 0.9 + 0.05)
        average, weighted = estimates(idx, (c,) * k, xe)
        assert np.array_equal(weighted, average)
        sims = np.sort(rng.random(k) + 0.01)[::-1]
        rows = xe[list(idx)]
        for est in estimates(idx, sims, xe):
            assert np.all(est >= rows.min(axis=0) - 1e-12)
            assert np.all(est <= rows.max(axis=0) + 1e-12)
    est, zero_rho = estimate_batch(np.zeros((1, 3)), np.ones((3, 4)), 2)
    assert np.array_equal(est[0], np.zeros(4)) and zero_rho == 1
    # ties go to the lower training index
    est, _ = estimate_batch(np.array([[0.5, 0.9, 0.5, 0.1]]), np.eye(4), 2, weighted=False)
    assert np.array_equal(est[0], [0.5, 0.5, 0.0, 0.0])
    with pytest.raises(KTooLarge):
        estimate_batch(np.ones((1, 3)), np.ones((3, 4)), 4)
    _report(8, "weighted==average under equal similarities; rho=0 gives 0; hull bounds hold; "
               "ties to the lower index; k > n rejected")


def test_c09_metric_unit_suite():
    assert compute_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == 0.75
    assert compute_mcc(ConfusionCounts(tp=30, fp=0, tn=50, fn=0)) == 1.0
    assert compute_mcc(ConfusionCounts(tp=25, fp=25, tn=25, fn=25)) == 0.0
    rng = np.random.default_rng(17)
    for _ in range(20):
        tp, fp, tn, fn = (int(v) for v in rng.integers(1, 40, 4))
        assert compute_mcc(ConfusionCounts(tp, fp, tn, fn)) == pytest.approx(
            -compute_mcc(ConfusionCounts(tp=fp, fp=tp, tn=fn, fn=tn)), abs=1e-14)
    aucs = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        m = 150
        ds = Dataset(ids=[str(i) for i in range(m)],
                     labels=rng.integers(0, 2, m),
                     numeric=rng.standard_normal((m, 4)),
                     texts=["chest pain"] * m)
        report = cross_validate(ds, "numeric", PipelineConfig(seed=seed))
        aucs.append(report.mean_auc)
    assert 0.4 <= float(np.mean(aucs)) <= 0.6
    _report(9, f"AUC/MCC identities hold; permutation-null mean AUC {np.mean(aucs):.3f}")


def test_c10_lsi_beats_random_factorizations():
    rng = np.random.default_rng(31)
    for _ in range(10):
        m, v, dims = 12, 15, 3
        mat = rng.random((m, v))
        tdm = TermDocumentMatrix(tuple(f"t{j}" for j in range(v)), mat)
        model = fit_lsi(tdm, dims)
        err = np.linalg.norm(reconstruction(model) - mat)
        for _ in range(20):
            a = rng.standard_normal((m, dims))
            b = rng.standard_normal((dims, v))
            assert err <= np.linalg.norm(a @ b - mat) + 1e-12
    _report(10, "rank-l SVD beats 20 random rank-l factorizations on 10 matrices")


def test_c11_evaluate_reports_byte_identical(tmp_path):
    spec = tmp_path / "spec.txt"
    spec.write_text("m = 90\nnumeric_dim = 4\nclusters = 6\ntext_weight = 0.6\nnoise = 0.05\n")
    data = tmp_path / "data.csv"
    assert cli_main(["synth", "--spec", str(spec), "--seed", "11", "--out", str(data)]) == 0
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("embedding.dims = 3\ncv.folds = 3\nsle.max_outer_iters = 3\n"
                   "sle.inner_theta_steps = 5\nsle.inner_embedding_steps = 3\n")
    outs = []
    for tag in ("r1", "r2"):
        rep = tmp_path / tag
        assert cli_main(["evaluate", "--method", "sle", "--input", str(data),
                         "--config", str(cfg), "--seed", "7", "--report", str(rep),
                         "--dump-predictions"]) == 0
        outs.append(rep)
    for name in ("report.txt", "report.csv", "config.txt", "predictions.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
    _report(11, "repeated evaluate runs produce byte-identical reports")
