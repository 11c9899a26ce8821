"""The token relation index against ``pair_kinds``, the reference.

The index finds a token's related tokens by lookup and checks only those
with ``pair_kinds``; every entry of its table must still be the bitmask that
``pair_kinds`` gives.  The property test over random vocabularies, add and
forget sequences is in test_similarity_properties.py.
"""

from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from slemap import similarity
from slemap.config import PipelineConfig
from slemap.dataset import Dataset
from slemap.model_io import predict_model, train_model
from slemap.similarity import _TokenRelations
from slemap.synth import GeneratorSpec, generate_arrays
from slemap.text import normalize
from slemap.transforms import MIN_AFFIX_LENGTH, pair_kinds

CFG = PipelineConfig()


def mask(x, y, dct):
    return sum(1 << kind for kind in pair_kinds(x, y, dct))


def statements(texts):
    return [st.tokens for k, text in enumerate(texts)
            for st in normalize(text, CFG.normalization(), doc_id=str(k)).statements]


def benchmark_statements():
    """The statements of the benchmark corpora at seed 0 (m=2000 with 16 and
    with 4 clusters, m=600 with 16), then of the 300 unseen records that
    train_predict's requests are drawn from (seed 1)."""
    batches = []
    for m, clusters, seed in ((2000, 16, 0), (2000, 4, 0), (600, 16, 0), (300, 16, 1)):
        spec = GeneratorSpec(m=m, numeric_dim=30, clusters=clusters, text_weight=0.5,
                             noise=0.05)
        batches.append(statements(generate_arrays(spec, seed)[3]))
    return batches


def dictionary_tokens(dct):
    return sorted({*dct.synonym_group, *dct.abbreviations, *dct.abbreviations.values(),
                   *dct.acronyms, *(tok for seq in dct.acronyms.values() for tok in seq)})


BATCHES = benchmark_statements()


def assert_table_is_pair_kinds(relations):
    tokens, n = relations.tokens, len(relations.tokens)
    kinds = relations.kinds
    assert np.all(kinds[n:] == -1) and np.all(kinds[:, n:] == -1)
    assert all(kinds[i, i] == 1 for i in range(n))
    for i, j in combinations(range(n), 2):
        want = mask(tokens[i], tokens[j], relations.dictionary)
        assert kinds[i, j] == kinds[j, i] == want, (tokens[i], tokens[j])


@pytest.mark.parametrize("min_token_length", [2, 4])
@pytest.mark.parametrize("cap", [0, 1, 2, 3])
def test_benchmark_vocabularies_equal_pair_kinds(cap, min_token_length):
    """Every entry over the benchmark vocabularies and the packaged
    dictionary's own tokens is the pair_kinds bitmask, and forgetting the
    request tokens leaves the lookups of an index that never saw them."""
    dct = replace(CFG.load_dictionary(), max_edit_distance=cap,
                  min_token_length=min_token_length)
    relations = _TokenRelations(dct)
    for batch in BATCHES[:3]:
        relations.add(batch)
    held = len(relations.tokens)
    relations.add(BATCHES[3])
    relations.add([dictionary_tokens(dct)])
    assert len(relations.tokens) > held
    assert_table_is_pair_kinds(relations)

    kept = relations.kinds[:held, :held].copy()
    relations.forget(held)
    fresh = _TokenRelations(dct)
    for batch in BATCHES[:3]:
        fresh.add(batch)
    assert np.array_equal(relations.kinds[:held, :held], kept)
    assert np.all(relations.kinds[held:] == -1) and np.all(relations.kinds[:, held:] == -1)
    for name in ("tokens", "ids", "forward", "backward", "synonyms", "deletions"):
        assert getattr(relations, name) == getattr(fresh, name), name


def shares_a_lookup(x, y, dct):
    """Whether some lookup of the index can pair x and y: a synonym group, an
    abbreviation, an affix of at least MIN_AFFIX_LENGTH characters, or, for
    long enough tokens, a common variant with at most cap deletions."""
    def deleted(tok):
        out = level = {tok}
        for _ in range(dct.max_edit_distance):
            level = {v[:k] + v[k + 1:] for v in level for k in range(len(v))}
            out = out | level
        return out

    shorter, longer = sorted((x, y), key=len)
    return (dct.same_synonym_set(x, y)
            or dct.abbreviations.get(x) == y or dct.abbreviations.get(y) == x
            or len(shorter) >= MIN_AFFIX_LENGTH
            and (longer.startswith(shorter) or longer.endswith(shorter))
            or dct.max_edit_distance >= 1 and len(shorter) >= dct.min_token_length
            and not deleted(x).isdisjoint(deleted(y)))


def test_pair_kinds_runs_on_candidates_only(monkeypatch):
    """Over training and then prediction, pair_kinds runs only on pairs the
    index's lookups can produce, each training pair once; a request whose
    tokens the model already knows makes no call."""
    spec = GeneratorSpec(m=60, numeric_dim=3, clusters=4)
    ds = Dataset(*generate_arrays(spec, 0)[:4])
    unseen = Dataset(*generate_arrays(spec, 1)[:4])
    cfg = PipelineConfig(max_outer_iters=2, inner_theta_steps=4, inner_embedding_steps=2,
                         dims=3)
    calls = []

    def counted(x, y, dct):
        calls.append((x, y))
        return pair_kinds(x, y, dct)

    monkeypatch.setattr(similarity, "pair_kinds", counted)
    model = train_model(ds, "sle", cfg)
    predict_model(model, unseen)
    dct = model.corpus()[1].dictionary
    assert calls
    assert all(shares_a_lookup(x, y, dct) for x, y in calls)
    # two training tokens are paired once, when the later of them gets its id
    vocabulary = {tok for st in statements(ds.texts) for tok in st}
    trained = [(x, y) for x, y in calls if x in vocabulary and y in vocabulary]
    assert trained and len(trained) == len({frozenset(pair) for pair in trained})

    calls.clear()
    known = Dataset(ids=unseen.ids[:3], labels=unseen.labels[:3], numeric=unseen.numeric[:3],
                    texts=list(reversed(ds.texts[:3])))
    predict_model(model, known)
    assert calls == []
