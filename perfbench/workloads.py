"""The benchmark workloads: inputs from a seed, one timed pass, output checks.

Every workload runs the c07 configuration of the acceptance suite.  The
corpus itself is generated with a fixed generator seed so that the amount of
similarity work (distinct documents and statement pairs) is the same on every
run; the workload seed sets ``PipelineConfig.seed`` (fold split, classifier
and SLE initial parameters) and, in ``train_predict``, how a fixed set of
unseen records is grouped into requests.  At seed 0 ``cv_text`` is exactly
the fixed workload of ROADMAP aim 1.

* ``cv_text``: m=2000, 16 clusters.  Similarity of diverse text dominates,
  with a warm statement cache; the eigensolve is the second share.
* ``sweep_dims``: the same generator with 4 clusters, so the text repeats and
  similarity shrinks, while the dense m x m layers (Laplacian, eigensolve,
  SLE, kNN) cost what they cost in ``cv_text``; LSI is exercised as well.
  ``compare_methods`` runs dims 10 (the c07 value) and 40, so every fold's
  eigenproblem is solved twice although one solve at 40 would serve both.
* ``train_predict``: ``train_model("sle")`` on m=600, save and load, then a
  closed loop with one client sending 3-record requests of unseen records
  to ``predict_model``.  Every request builds a fresh ``SimilarityComputer``,
  so the statement cache is cold; training (write) and prediction (read) are
  timed apart.
"""

from __future__ import annotations

import hashlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from slemap import evaluation, model_io
from slemap.config import PipelineConfig
from slemap.dataset import Dataset, load_dataset, write_dataset_csv
from slemap.metrics import compute_auc
from slemap.similarity import SimilarityComputer
from slemap.synth import GeneratorSpec, generate_arrays

CORPUS_SEED = 0          # generator seed of every training corpus
UNSEEN_SEED = 1          # generator seed of the pool the requests are drawn from
C07 = dict(dims=10, lambda_ratio=0.2, max_outer_iters=4, inner_theta_steps=10,
           inner_embedding_steps=4)
# Per-request cost is set by the unseen statements times the training
# corpus's distinct statements; 3 records keep 100 requests near 20 s.
REQUEST_RECORDS = 3
# toy corpora: big enough for 5 stratified folds, small enough that a toy pass
# doubles as the warm-up of a full run
TOY_M = 60


class Checks:
    """Output checks; each checked output is one attempted operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def op(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{name}: {'; '.join(problems)}")


def unit_interval(name: str, values) -> list[str]:
    v = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(v)):
        return [f"{name} has non-finite values"]
    if v.size and (v.min() < 0.0 or v.max() > 1.0):
        return [f"{name} outside [0, 1]: min {v.min()!r} max {v.max()!r}"]
    return []


def similarity_problems(s: np.ndarray) -> list[str]:
    problems = unit_interval("S", s)
    if not np.array_equal(s, s.T):
        problems.append("S is not exactly symmetric")
    if not np.all(np.diag(s) == 1.0):
        problems.append("S diagonal is not exactly 1")
    return problems


def mcc_problems(name: str, mcc: float) -> list[str]:
    return [] if math.isfinite(mcc) and -1.0 <= mcc <= 1.0 else [f"{name} mcc {mcc!r}"]


@contextmanager
def captured_matrices():
    """Collect every similarity matrix built inside the block, for the checks."""
    original = SimilarityComputer.matrix
    sink: list = []

    def matrix(self, corpus):
        result = original(self, corpus)
        sink.append(result)
        return result

    SimilarityComputer.matrix = matrix
    try:
        yield sink
    finally:
        SimilarityComputer.matrix = original


def csv_round_trip(path: Path, ids, labels, numeric, texts) -> Dataset:
    write_dataset_csv(path, ids, labels, numeric, texts)
    dataset, diagnostics = load_dataset(path, strict=True)
    if diagnostics:
        raise ValueError(f"{path}: {diagnostics[:3]}")
    return dataset


def dataset_digest(ds: Dataset) -> str:
    h = hashlib.sha256()
    h.update(repr((ds.ids, ds.texts)).encode())
    h.update(ds.labels.tobytes())
    h.update(ds.numeric.tobytes())
    return h.hexdigest()


@dataclass
class PassResult:
    """What one timed pass produced: outputs, captured matrices, phase times."""

    outputs: object
    matrices: list
    wall_s: float
    cpu_s: float
    phases: dict


class Workload:
    name = ""
    # layers a traced pass must reach; one left uncalled fails the run loudly
    layers: tuple[str, ...] = ()
    # untraced passes a run makes at least; more follow while --seconds allows
    min_passes = 1

    def __init__(self, seed: int, toy: bool, work_dir: Path):
        self.seed = seed
        self.toy = toy
        self.work_dir = work_dir
        self.config = PipelineConfig(**C07, seed=seed)
        self.passes = 0

    def setup(self) -> str:
        """Build the inputs (generate, CSV round trip); returns their digest."""
        raise NotImplementedError

    def run(self) -> PassResult:
        self.passes += 1
        with captured_matrices() as matrices:
            start, cpu_start = time.perf_counter(), time.process_time()
            outputs, phases = self.run_pass()
            wall, cpu = time.perf_counter() - start, time.process_time() - cpu_start
        return PassResult(outputs, list(matrices), wall, cpu, phases)

    def run_pass(self):
        raise NotImplementedError

    def check(self, result: PassResult, checks: Checks) -> None:
        for k, sim in enumerate(result.matrices):
            checks.op(f"similarity matrix {k}", similarity_problems(sim.values))
        self.check_outputs(result.outputs, checks)

    def check_outputs(self, outputs, checks: Checks) -> None:
        raise NotImplementedError

    def digest(self, result: PassResult) -> str:
        h = hashlib.sha256()
        for sim in result.matrices:
            h.update(sim.values.tobytes())
        for line in self.output_lines(result.outputs):
            h.update(line.encode())
            h.update(b"\n")
        return h.hexdigest()

    def output_lines(self, outputs):
        raise NotImplementedError

    def metrics(self, results: list[PassResult]) -> dict[str, tuple[float, str]]:
        raise NotImplementedError

    def _spec(self, **kw) -> GeneratorSpec:
        return GeneratorSpec(numeric_dim=30, text_weight=0.5, noise=0.05, **kw)


def pass_times(results: list[PassResult]) -> dict[str, tuple[float, str]]:
    return {"wall_s": (float(np.median([r.wall_s for r in results])), "s"),
            "cpu_s": (float(np.median([r.cpu_s for r in results])), "s")}


def _fold_checks(reports, checks: Checks) -> None:
    for method, rep in reports.items():
        by_fold: dict[int, list[float]] = {}
        for fold, _, _, score in rep.predictions or ():
            by_fold.setdefault(fold, []).append(score)
        for f in rep.folds:
            problems = (unit_interval("auc", [f.auc, f.train_auc])
                        + mcc_problems("fold", f.mcc)
                        + unit_interval("scores", by_fold.get(f.fold, [])))
            if rep.predictions is not None and not by_fold.get(f.fold):
                problems.append("no test predictions")
            checks.op(f"{method} fold {f.fold}", problems)


class CvText(Workload):
    name = "cv_text"
    methods = ("numeric", "le", "sle")
    # the host's speed changes from one 20 s pass to the next; the median of
    # two passes cuts the run-to-run spread of wall_s
    min_passes = 2
    layers = ("text.normalize", "transforms.statement_similarity", "similarity.matrix",
              "laplacian.build_laplacian", "laplacian.solve_eigenmap", "sle.fit_sle",
              "logistic.train", "estimator.estimate_batch", "evaluation.prepare_dataset",
              "evaluation.run_methods")

    def setup(self) -> str:
        spec = self._spec(m=TOY_M if self.toy else 2000, clusters=16)
        self.dataset = csv_round_trip(self.work_dir / "corpus.csv",
                                      *generate_arrays(spec, CORPUS_SEED)[:4])
        return dataset_digest(self.dataset)

    def run_pass(self):
        prepared = evaluation.prepare_dataset(self.dataset, self.config, True)
        reports = evaluation.run_methods(self.dataset, list(self.methods), self.config,
                                         prepared=prepared, collect_predictions=True)
        return reports, {}

    def check_outputs(self, reports, checks: Checks) -> None:
        _fold_checks(reports, checks)

    def output_lines(self, reports):
        for method, rep in reports.items():
            yield from rep.to_csv_rows()
            for fold, rid, label, score in rep.predictions:
                yield f"{method},{fold},{rid},{label},{score!r}"

    def metrics(self, results):
        reports = results[0].outputs
        sle, le = reports["sle"].mean_auc, reports["le"].mean_auc
        return {**pass_times(results),
                "auc_sle": (sle, "auc"), "auc_le": (le, "auc"),
                "auc_numeric": (reports["numeric"].mean_auc, "auc"),
                "auc_gap_sle_le": (sle - le, "auc")}


class SweepDims(Workload):
    name = "sweep_dims"
    methods = ("le", "sle", "lsi")
    layers = ("text.normalize", "transforms.statement_similarity", "similarity.matrix",
              "laplacian.build_laplacian", "laplacian.solve_eigenmap", "sle.fit_sle",
              "logistic.train", "estimator.estimate_batch", "lsi.fit_lsi",
              "evaluation.prepare_dataset", "evaluation.run_methods",
              "evaluation.compare_methods")

    def setup(self) -> str:
        spec = self._spec(m=TOY_M if self.toy else 2000, clusters=4)
        self.dims = [2, 4] if self.toy else [10, 40]
        self.dataset = csv_round_trip(self.work_dir / "corpus.csv",
                                      *generate_arrays(spec, CORPUS_SEED)[:4])
        return dataset_digest(self.dataset)

    def run_pass(self):
        rows = evaluation.compare_methods(self.dataset, list(self.methods), self.dims,
                                          self.config)
        return rows, {}

    def check_outputs(self, rows, checks: Checks) -> None:
        for row in rows:
            checks.op(f"{row['method']} dims {row['dims']}",
                      unit_interval("auc", [row["auc"]]) + mcc_problems("mean", row["mcc"]))
        expected = len(self.methods) * len(self.dims)
        checks.op("compare rows", [] if len(rows) == expected else [f"expected {expected} rows"])

    def output_lines(self, rows):
        for row in rows:
            yield f"{row['method']},{row['dims']},{row['auc']!r},{row['mcc']!r}"

    def _mean_auc(self, rows, method):
        return float(np.mean([r["auc"] for r in rows if r["method"] == method]))

    def metrics(self, results):
        rows = results[0].outputs
        sle, le = self._mean_auc(rows, "sle"), self._mean_auc(rows, "le")
        return {**pass_times(results),
                "auc_sle": (sle, "auc"), "auc_le": (le, "auc"),
                "auc_lsi": (self._mean_auc(rows, "lsi"), "auc"),
                "auc_gap_sle_le": (sle - le, "auc")}


class TrainPredict(Workload):
    name = "train_predict"
    layers = ("text.normalize", "transforms.statement_similarity", "similarity.matrix",
              "similarity.rows", "laplacian.build_laplacian", "laplacian.solve_eigenmap",
              "sle.fit_sle", "logistic.train", "estimator.estimate_batch",
              "model_io.train_model", "model_io.save_model", "model_io.load_model",
              "model_io.predict_model")

    def setup(self) -> str:
        m = TOY_M if self.toy else 600
        # p90 must have at least ten samples beyond it
        self.n_requests = 4 if self.toy else 100
        self.train = csv_round_trip(self.work_dir / "train.csv",
                                    *generate_arrays(self._spec(m=m, clusters=16),
                                                     CORPUS_SEED)[:4])
        # the same unseen records for every seed, so the predict work is fixed;
        # the seed only decides how they are grouped into requests
        ids, labels, numeric, texts, _ = generate_arrays(
            self._spec(m=self.n_requests * REQUEST_RECORDS, clusters=16), UNSEEN_SEED)
        order = np.random.default_rng(self.seed).permutation(len(ids))
        unseen = csv_round_trip(self.work_dir / "unseen.csv", [ids[i] for i in order],
                                labels[order], numeric[order], [texts[i] for i in order])
        self.requests = [
            Dataset(ids=unseen.ids[k:k + REQUEST_RECORDS],
                    labels=unseen.labels[k:k + REQUEST_RECORDS],
                    numeric=unseen.numeric[k:k + REQUEST_RECORDS],
                    texts=unseen.texts[k:k + REQUEST_RECORDS])
            for k in range(0, unseen.m, REQUEST_RECORDS)]
        return dataset_digest(self.train) + dataset_digest(unseen)

    def run_pass(self):
        clock = time.perf_counter
        model_dir = self.work_dir / f"model-{self.passes}"
        t0 = clock()
        model = model_io.train_model(self.train, "sle", self.config)
        model_io.save_model(model, model_dir)
        t1 = clock()
        loaded = model_io.load_model(model_dir)
        t2 = clock()
        scores, latencies = [], []
        for request in self.requests:   # closed loop, one client
            start = clock()
            scores.append(model_io.predict_model(loaded, request))
            latencies.append(clock() - start)
        return (model, scores), {"train_s": t1 - t0, "load_s": t2 - t1,
                                 "latencies": latencies}

    def check_outputs(self, outputs, checks: Checks) -> None:
        model, scores = outputs
        checks.op("train", unit_interval("train scores", model.train_scores)
                  + unit_interval("train auc", [model.train_auc]))
        # the in-memory model must score a probe batch bitwise like the
        # saved-and-loaded one did in the timed loop
        probe = model_io.predict_model(model, self.requests[0])
        same = probe.dtype == scores[0].dtype and probe.tobytes() == scores[0].tobytes()
        checks.op("save/load/predict round trip",
                  [] if same else ["loaded model predicts differently from the in-memory one"])
        for k, (request, sc) in enumerate(zip(self.requests, scores)):
            problems = unit_interval("scores", sc)
            if sc.shape != (request.m,):
                problems.append(f"score shape {sc.shape}")
            checks.op(f"request {k}", problems)
        checks.op("predict auc", unit_interval("auc", [self._auc(scores)]))

    def _auc(self, scores) -> float:
        labels = np.concatenate([r.labels for r in self.requests])
        return compute_auc(np.concatenate(scores), labels)

    def output_lines(self, outputs):
        model, scores = outputs
        yield repr([float(v) for v in model.train_scores])
        for sc in scores:
            yield repr([float(v) for v in sc])

    def metrics(self, results):
        latencies = np.concatenate([r.phases["latencies"] for r in results])
        records = len(latencies) * REQUEST_RECORDS
        auc = self._auc(results[0].outputs[1])

        def median(key: str) -> float:
            return float(np.median([r.phases[key] for r in results]))
        return {**pass_times(results),
                "train_s": (median("train_s"), "s"),
                "load_s": (median("load_s"), "s"),
                "predict_p50_ms": (float(np.percentile(latencies, 50)) * 1e3, "ms"),
                "predict_p90_ms": (float(np.percentile(latencies, 90)) * 1e3, "ms"),
                "predict_samples": (len(latencies), "count"),
                "predict_records_per_s": (records / float(latencies.sum()), "1/s"),
                # the model is an sle model, so its held-out AUC is auc_sle
                "auc_sle": (auc, "auc"), "auc_predict": (auc, "auc")}


WORKLOADS = {w.name: w for w in (CvText, SweepDims, TrainPredict)}
