"""Per-layer timing by wrapping the names the pipeline modules import.

The benchmark never edits the program.  For one traced pass it replaces names
such as ``slemap.evaluation.solve_eigenmap`` or ``SimilarityComputer.matrix``
with timing wrappers and puts the originals back afterwards.  Each wrapper
keeps, per layer, the number of calls, the busy time (outermost calls only)
and the self time (duration minus the time of wrapped calls made inside it).
Counters are read from the arguments and results at the same boundaries.

A name that no longer exists makes entering ``Tracer`` raise ``MissingLayer``,
so a refactor that moves a layer fails the traced run loudly instead of
reporting zero for it.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from dataclasses import dataclass


class MissingLayer(RuntimeError):
    """A wrapped name is absent, or a layer the workload needs was never called."""


@dataclass
class LayerStats:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    depth: int = 0


def doc_key(doc) -> tuple:
    """Identity of a document for similarity: its multiset of statements."""
    return tuple(sorted(st.tokens for st in doc.statements))


def distinct_sizes(docs) -> dict[tuple, int]:
    """Statement count of each distinct non-empty document; empty documents
    score 0 without any pairing."""
    return {key: len(key) for key in (doc_key(d) for d in docs if not d.is_sentinel)}


def statement_pairs(sizes) -> int:
    """Statement pairs held by the pairs of distinct documents of these sizes."""
    total = sum(sizes)
    return (total * total - sum(r * r for r in sizes)) // 2


# Similarity counters are sums over calls of quantities fixed by the inputs,
# so they repeat exactly and do not depend on how the similarity layer is
# implemented: distinct documents, unordered pairs of distinct documents, and
# the statement pairs those document pairs hold (r_i * r_j for documents with
# r_i and r_j statements).  The last is how many statement lookups the
# pairing makes when it computes each document pair once.
def _count_matrix(tracer, args, kwargs, result):
    sizes = distinct_sizes(args[1])
    n = len(sizes)
    tracer.counters["similarity.unique_docs"] += n
    tracer.counters["similarity.doc_pairs"] += n * (n - 1) // 2
    tracer.counters["similarity.stmt_lookups"] += statement_pairs(sizes.values())


def _count_rows(tracer, args, kwargs, result):
    new, corpus = distinct_sizes(args[1]), distinct_sizes(args[2])
    # two documents that are both new and in the corpus form one pair, not two
    both = [r for key, r in new.items() if key in corpus]
    tracer.counters["similarity.unique_docs"] += len(new.keys() | corpus.keys())
    tracer.counters["similarity.doc_pairs"] += (len(new) * len(corpus)
                                                - len(both) * (len(both) - 1) // 2)
    tracer.counters["similarity.stmt_lookups"] += (sum(new.values()) * sum(corpus.values())
                                                   - statement_pairs(both))


def _count_fit_sle(tracer, args, kwargs, model):
    tracer.counters["sle.outer_iters"] += len(model.objective_trace) - 1
    tracer.counters["sle.degenerate_fits"] += int(model.degenerate)


def _count_estimate(tracer, args, kwargs, result):
    tracer.counters["estimator.zero_rho_rows"] += int(result[1])


def _count_run_methods(tracer, args, kwargs, reports):
    tracer.counters["evaluation.retrain_attempts"] += sum(
        f.attempts for rep in reports.values() for f in rep.folds)


def _count_train_model(tracer, args, kwargs, model):
    tracer.counters["evaluation.retrain_attempts"] += model.attempts


# layer name -> (places the name is imported or defined, counter hook).
# A place is "module:attribute" or "module:Class.method".
LAYERS: dict[str, tuple[tuple[str, ...], object]] = {
    "text.normalize": (("slemap.evaluation:normalize", "slemap.model_io:normalize"), None),
    "transforms.statement_similarity": (("slemap.similarity:statement_similarity",), None),
    "similarity.matrix": (("slemap.similarity:SimilarityComputer.matrix",), _count_matrix),
    "similarity.rows": (("slemap.similarity:SimilarityComputer.rows",), _count_rows),
    "laplacian.build_laplacian": (("slemap.evaluation:build_laplacian",
                                   "slemap.model_io:build_laplacian",
                                   "slemap.sle:build_laplacian"), None),
    "laplacian.solve_eigenmap": (("slemap.evaluation:solve_eigenmap",
                                  "slemap.model_io:solve_eigenmap",
                                  "slemap.sle:solve_eigenmap"), None),
    "sle.fit_sle": (("slemap.evaluation:fit_sle", "slemap.model_io:fit_sle"), _count_fit_sle),
    "logistic.train": (("slemap.evaluation:train", "slemap.model_io:train",
                        "slemap.sle:train"), None),
    "estimator.estimate_batch": (("slemap.evaluation:estimate_batch",
                                  "slemap.model_io:estimate_batch"), _count_estimate),
    "lsi.build_tfidf": (("slemap.evaluation:build_tfidf", "slemap.model_io:build_tfidf"), None),
    "lsi.fit_lsi": (("slemap.evaluation:fit_lsi", "slemap.model_io:fit_lsi"), None),
    "evaluation.prepare_dataset": (("slemap.evaluation:prepare_dataset",), None),
    "evaluation.run_methods": (("slemap.evaluation:run_methods",), _count_run_methods),
    "evaluation.compare_methods": (("slemap.evaluation:compare_methods",), None),
    "model_io.train_model": (("slemap.model_io:train_model",), _count_train_model),
    "model_io.save_model": (("slemap.model_io:save_model",), None),
    "model_io.load_model": (("slemap.model_io:load_model",), None),
    "model_io.predict_model": (("slemap.model_io:predict_model",), None),
}

def _resolve(place: str) -> tuple[object, str]:
    module_name, attr_path = place.split(":")
    owner = importlib.import_module(module_name)
    *owners, attr = attr_path.split(".")
    try:
        for name in owners:
            owner = getattr(owner, name)
        getattr(owner, attr)
    except AttributeError:
        raise MissingLayer(f"traced name {place} no longer exists") from None
    return owner, attr


class Tracer:
    """Aggregated spans and counters for the calls made while installed."""

    def __init__(self) -> None:
        self.layers = {name: LayerStats() for name in LAYERS}
        self.counters: Counter = Counter()
        self.top_s = 0.0      # time inside spans that have no traced parent
        self.hook_s = 0.0     # time spent computing counters
        self._stack: list[list[float]] = []   # [start, child seconds] per open span
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        """Wrap every layer; all names are resolved before any is replaced."""
        resolved = [(layer, _resolve(place)) for layer, (places, _) in LAYERS.items()
                    for place in places]
        for layer, (owner, attr) in resolved:
            self._patch(owner, attr, self._span(layer, getattr(owner, attr), LAYERS[layer][1]))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _span(self, layer: str, fn, hook):
        stats = self.layers[layer]
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            stats.depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                stats.depth -= 1
                stats.calls += 1
                stats.self_s += duration - frame[1]
                if stats.depth == 0:
                    stats.busy_s += duration
                if stack:
                    stack[-1][1] += duration
                else:
                    self.top_s += duration
            if hook is not None:
                start = clock()
                hook(self, args, kwargs, result)
                spent = clock() - start
                self.hook_s += spent
                if stack:   # keep counter work out of the caller's self time
                    stack[-1][1] += spent
            return result
        return wrapper

    def require_called(self, layers) -> None:
        idle = [name for name in layers if self.layers[name].calls == 0]
        if idle:
            raise MissingLayer(f"layers never called in the traced pass: {', '.join(idle)}")

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every layer's calls/busy_s/self_s plus the counters, as (value, unit)."""
        out: dict[str, tuple[float, str]] = {}
        for name, st in self.layers.items():
            out[f"{name}.calls"] = (st.calls, "count")
            out[f"{name}.busy_s"] = (st.busy_s, "s")
            out[f"{name}.self_s"] = (st.self_s, "s")
        for name in ("similarity.unique_docs", "similarity.doc_pairs",
                     "similarity.stmt_lookups", "sle.outer_iters", "sle.degenerate_fits",
                     "estimator.zero_rho_rows", "evaluation.retrain_attempts"):
            out[name] = (self.counters[name], "count")
        lookups = self.counters["similarity.stmt_lookups"]
        misses = self.layers["transforms.statement_similarity"].calls
        out["similarity.stmt_cache.hit_ratio"] = (
            (lookups - misses) / lookups if lookups else 0.0, "ratio")
        out["similarity.self_s"] = (self.layers["similarity.matrix"].self_s
                                    + self.layers["similarity.rows"].self_s, "s")
        out["trace.hook_s"] = (self.hook_s, "s")
        return out
