from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from slemap.config import KEYS, PipelineConfig
from slemap.dataset import Dataset, ingest_csv, load_dataset, write_dataset_csv
from slemap.dictionary import MAX_EDIT_DISTANCE, build_dictionary
from slemap.errors import ConfigError, FoldTooSmall, InvalidSpec, ParseError, SchemaError
from slemap.evaluation import prepare_dataset, run_methods, stratified_folds
from slemap.synth import GeneratorSpec, generate_arrays, generate_synthetic, parse_generator_spec
from slemap.transforms import TransformKind


class TestConfig:
    def test_defaults_echo_round_trip(self):
        cfg = PipelineConfig()
        parsed = PipelineConfig.from_mapping({
            k.strip(): v.strip()
            for k, v in (line.split("=", 1) for line in cfg.echo().splitlines()
                         if line and not line.startswith("#"))
        })
        assert parsed == cfg

    def test_every_key_round_trips(self, tmp_path):
        cfg = PipelineConfig(
            delimiters=",;", stop_words=("a", "the"), max_statements=5, max_tokens=9,
            weights=(1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2), dictionary_dir="dicts",
            max_edit_distance=2, min_token_length=3, dims=7, lam=0.125, lambda_ratio=0.3,
            l2=0.01, max_outer_iters=9, inner_theta_steps=8, inner_embedding_steps=7,
            sle_tol=1e-5, knn_k=4, knn_weighted=False, folds=3, seed=11, lsi_joint=True)
        assert set(KEYS.values()) == {f.name for f in fields(PipelineConfig)}
        changed = set(cfg.echo().splitlines()) - set(PipelineConfig().echo().splitlines())
        # every key but weights.equal, which is fixed at 1, differs from the default
        assert {line.split(" = ")[0] for line in changed} == set(KEYS) - {"weights.equal"}
        p = tmp_path / "cfg.txt"
        p.write_text(cfg.echo())
        assert PipelineConfig.load(p) == cfg

    @pytest.mark.parametrize("change", [
        {"folds": 1}, {"dims": 0}, {"knn_k": 0}, {"seed": -1}, {"max_tokens": 13},
        {"l2": -1.0},
        {"weights": (0.5,) + PipelineConfig().weights[1:]},
    ], ids=lambda change: next(iter(change)))
    def test_checked_on_construction(self, change):
        with pytest.raises(ConfigError):
            replace(PipelineConfig(), **change)
        with pytest.raises(ConfigError):
            PipelineConfig(**change)

    def test_load_file(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("# comment\nembedding.dims = 7\nknn.weighted = false\n"
                     "weights.missing = 0.25\nsle.lambda = 2.5\n")
        cfg = PipelineConfig.load(p)
        assert cfg.dims == 7
        assert cfg.knn_weighted is False
        assert cfg.weights[TransformKind.MISSING] == 0.25
        assert cfg.lam == 2.5

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("embedding.dimz = 7\n")
        with pytest.raises(ConfigError):
            PipelineConfig.load(p)

    def test_retired_keys_load_and_are_not_echoed(self, tmp_path):
        """The retired retrain-rule keys of older config files load, are
        ignored, and are left out of the echo."""
        p = tmp_path / "cfg.txt"
        p.write_text("embedding.dims = 7\ncv.retrain_auc = 0.65\ncv.max_retrains = 5\n")
        cfg = PipelineConfig.load(p)
        assert cfg == PipelineConfig(dims=7)
        assert "retrain" not in cfg.echo()
        with pytest.raises(ConfigError):
            PipelineConfig.from_mapping({"cv.retrain": "1"})

    def test_bad_value_rejected(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("embedding.dims = many\n")
        with pytest.raises(ConfigError):
            PipelineConfig.load(p)

    def test_bad_weight_rejected(self, tmp_path):
        p = tmp_path / "cfg.txt"
        p.write_text("weights.equal = 0.5\n")
        with pytest.raises(ConfigError):
            PipelineConfig.load(p)

    @pytest.mark.parametrize("key", ["normalize.max_tokens", "normalize.max_statements"])
    def test_caps_bounded(self, key):
        for ok in ("1", "12"):
            PipelineConfig.from_mapping({key: ok})
        for bad in ("0", "13"):
            with pytest.raises(ConfigError):
                PipelineConfig.from_mapping({key: bad})

    @pytest.mark.parametrize("key", ["misspelling.max_edit_distance",
                                     "misspelling.min_token_length"])
    def test_misspelling_settings_non_negative(self, key):
        assert getattr(PipelineConfig.from_mapping({key: "0"}), KEYS[key]) == 0
        with pytest.raises(ConfigError):
            PipelineConfig.from_mapping({key: "-1"})

    def test_misspelling_cap_bounded(self):
        for cap in range(MAX_EDIT_DISTANCE + 1):
            assert PipelineConfig(max_edit_distance=cap).load_dictionary().max_edit_distance == cap
        with pytest.raises(ConfigError):
            PipelineConfig(max_edit_distance=MAX_EDIT_DISTANCE + 1)
        for bad in (-1, MAX_EDIT_DISTANCE + 1):
            with pytest.raises(ValueError, match="max_edit_distance"):
                build_dictionary(max_edit_distance=bad)

    def test_readme_config_block_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        p = tmp_path / "cfg.txt"
        p.write_text(block)
        assert PipelineConfig.load(p) == PipelineConfig()

    def test_loads_packaged_dictionary(self):
        dct = PipelineConfig().load_dictionary()
        assert dct.same_synonym_set("exercise", "activity")
        assert dct.acronyms["cp"] == ("chest", "pain")


class TestIngest:
    def write(self, tmp_path, body):
        p = tmp_path / "data.csv"
        p.write_text(body)
        return p

    def test_well_formed(self, tmp_path):
        p = self.write(tmp_path, 'id,label,f1,f2,text\na,1,0.5,1.5,"chest pain"\n'
                                 'b,0,0.25,2.5,"dizzy"\nc,1,1.0,0.0,"sob"\n')
        records, diags = ingest_csv(p)
        assert len(records) == 3 and not diags
        assert records[0].features == (0.5, 1.5)

    def test_quoted_commas(self, tmp_path):
        p = self.write(tmp_path, 'id,label,f1,text\na,1,0.5,"chest pain, dizzy"\n')
        records, _ = ingest_csv(p)
        assert records[0].text == "chest pain, dizzy"

    def test_missing_label_skipped_with_line_number(self, tmp_path):
        p = self.write(tmp_path, 'id,label,f1,text\na,1,0.5,"x"\nb,,0.5,"y"\nc,0,1.5,"z"\n')
        records, diags = ingest_csv(p)
        assert len(records) == 2
        assert len(diags) == 1 and ":3:" in diags[0]

    def test_bad_numeric_skipped(self, tmp_path):
        p = self.write(tmp_path, 'id,label,f1,text\na,1,abc,"x"\nb,0,0.5,"y"\n')
        records, diags = ingest_csv(p)
        assert len(records) == 1 and len(diags) == 1

    def test_strict_aborts(self, tmp_path):
        p = self.write(tmp_path, 'id,label,f1,text\na,1,abc,"x"\n')
        with pytest.raises(ParseError):
            ingest_csv(p, strict=True)

    def test_bad_header(self, tmp_path):
        p = self.write(tmp_path, 'identifier,label,f1,text\na,1,0.5,"x"\n')
        with pytest.raises(SchemaError):
            ingest_csv(p)

    def test_round_trip(self, tmp_path):
        p = tmp_path / "out.csv"
        write_dataset_csv(p, ["a", "b"], [1, 0], np.array([[0.5, 1.0], [2.0, 3.0]]),
                          ["chest pain, dizzy", "sob"])
        ds, diags = load_dataset(p)
        assert not diags
        assert ds.texts[0] == "chest pain, dizzy"
        assert np.array_equal(ds.numeric, [[0.5, 1.0], [2.0, 3.0]])


class TestStratifiedFolds:
    def test_class_balance(self):
        rng = np.random.default_rng(0)
        labels = (rng.random(103) < 0.3).astype(int)
        folds = stratified_folds(labels, 5, seed=1)
        assert sorted(i for f in folds for i in f) == list(range(103))
        per_fold_pos = [labels[f].sum() for f in folds]
        assert max(per_fold_pos) - min(per_fold_pos) <= 1

    def test_missing_class_detected(self):
        labels = np.array([0] * 10 + [1])
        with pytest.raises(FoldTooSmall):
            stratified_folds(labels, 3, seed=0)

    def test_seeded(self):
        labels = np.arange(40) % 2
        a = stratified_folds(labels, 4, seed=7)
        b = stratified_folds(labels, 4, seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestGenerator:
    def test_deterministic_files(self, tmp_path):
        spec = GeneratorSpec(m=40, numeric_dim=5, clusters=4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        generate_synthetic(spec, seed=3, out_path=a)
        generate_synthetic(spec, seed=3, out_path=b)
        assert a.read_bytes() == b.read_bytes()

    def test_different_seeds_differ(self, tmp_path):
        spec = GeneratorSpec(m=40, numeric_dim=5, clusters=4)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        generate_synthetic(spec, seed=3, out_path=a)
        generate_synthetic(spec, seed=4, out_path=b)
        assert a.read_bytes() != b.read_bytes()

    def test_invalid_spec(self):
        with pytest.raises(InvalidSpec):
            GeneratorSpec(m=1)
        with pytest.raises(InvalidSpec):
            GeneratorSpec(text_weight=1.5)
        with pytest.raises(InvalidSpec):
            GeneratorSpec(clusters=100)

    def test_spec_file_parsing(self, tmp_path):
        p = tmp_path / "spec.txt"
        p.write_text("m = 50\nclusters = 4\ntext_weight = 0.8\nnoise = 0.0\n")
        spec = parse_generator_spec(p)
        assert spec.m == 50 and spec.clusters == 4 and spec.text_weight == 0.8

    def test_spec_file_unknown_key(self, tmp_path):
        p = tmp_path / "spec.txt"
        p.write_text("m = 50\nshape = weird\n")
        with pytest.raises(InvalidSpec):
            parse_generator_spec(p)

    def test_spec_file_duplicate_key(self, tmp_path):
        p = tmp_path / "spec.txt"
        p.write_text("m = 50\nclusters = 4\nm = 60\n")
        with pytest.raises(InvalidSpec, match="spec.txt:3: duplicate key 'm'"):
            parse_generator_spec(p)

    def test_readme_spec_block_loads(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n")[2].split("```", 1)[0]
        p = tmp_path / "spec.txt"
        p.write_text(block)
        assert parse_generator_spec(p) == GeneratorSpec()

    def test_text_only_labels_cluster_similarity(self):
        # pure text signal, no noise: same-cluster documents are more similar
        spec = GeneratorSpec(m=120, numeric_dim=4, clusters=8, text_weight=1.0, noise=0.0)
        _, labels, _, texts, clusters = generate_arrays(spec, seed=0)
        ds = Dataset(ids=[str(i) for i in range(120)], labels=labels,
                     numeric=np.zeros((120, 4)), texts=texts)
        prepared = prepare_dataset(ds, PipelineConfig(), True)
        s = prepared.similarity.values
        same, cross = [], []
        for i in range(120):
            for j in range(i + 1, 120):
                (same if clusters[i] == clusters[j] else cross).append(s[i, j])
        assert np.mean(same) > np.mean(cross)

    def test_numeric_only_signal(self):
        # no text signal, crisp labels: numeric-only classification is nearly
        # perfect and the embedding adds nothing
        spec = GeneratorSpec(m=240, numeric_dim=8, clusters=4,
                             text_weight=0.0, noise=0.0, alpha=12.0)
        aucs_numeric, aucs_le = [], []
        for seed in range(3):
            ids, labels, numeric, texts, _ = generate_arrays(spec, seed=seed)
            ds = Dataset(ids=ids, labels=labels, numeric=numeric, texts=texts)
            cfg = PipelineConfig(dims=4, folds=3, seed=seed, max_outer_iters=3,
                                 inner_theta_steps=5, inner_embedding_steps=3)
            reports = run_methods(ds, ["numeric", "le"], cfg)
            aucs_numeric.append(reports["numeric"].mean_auc)
            aucs_le.append(reports["le"].mean_auc)
        assert np.mean(aucs_numeric) > 0.95
        assert abs(np.mean(aucs_le) - np.mean(aucs_numeric)) <= 0.03

    def test_perturbations_cover_every_transform_kind(self):
        from oracles import OracleRules, oracle_best_vector
        from slemap.synth import PHRASE_BANKS, _perturb_statement
        from slemap.text import normalize
        cfg = PipelineConfig()
        rules = OracleRules.from_dictionary(cfg.load_dictionary())
        rng = np.random.default_rng(0)
        seen: set[int] = set()
        templates = [t for _, _, bank in PHRASE_BANKS for t in bank]
        for template in templates:
            base = normalize(template, cfg.normalization())
            for _ in range(12):
                variant = normalize(_perturb_statement(template, rng), cfg.normalization())
                if base.is_sentinel or variant.is_sentinel:
                    continue
                vec = oracle_best_vector(base.statements[0].tokens, variant.statements[0].tokens,
                                         cfg.transform_weights().values, rules)
                seen.update(u for u in range(9) if vec[u])
        assert seen == set(range(9)), sorted(TransformKind(u).name for u in seen)
