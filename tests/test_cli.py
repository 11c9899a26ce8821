import csv
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import slemap
from slemap.cli import main
from slemap.config import PipelineConfig
from slemap.dataset import load_dataset
from slemap.model_io import load_model, predict_model, save_model, train_model


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    spec = d / "spec.txt"
    spec.write_text("m = 80\nnumeric_dim = 4\nclusters = 6\ntext_weight = 0.6\nnoise = 0.05\n")
    data = d / "data.csv"
    assert main(["synth", "--spec", str(spec), "--seed", "5", "--out", str(data)]) == 0
    return data


@pytest.fixture(scope="module")
def small_config(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "cfg.txt"
    p.write_text("embedding.dims = 3\ncv.folds = 3\nsle.max_outer_iters = 3\n"
                 "sle.inner_theta_steps = 5\nsle.inner_embedding_steps = 3\n")
    return p


class TestSynth:
    def test_deterministic(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("m = 30\nnumeric_dim = 3\nclusters = 4\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["synth", "--spec", str(spec), "--seed", "1", "--out", str(a)]) == 0
        assert main(["synth", "--spec", str(spec), "--seed", "1", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_bad_spec_exits_2(self, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("m = 1\n")
        assert main(["synth", "--spec", str(spec), "--seed", "1",
                     "--out", str(tmp_path / "x.csv")]) == 2


class TestSimilarityCommand:
    def test_matrix_csv(self, small_dataset, tmp_path):
        out = tmp_path / "S.csv"
        assert main(["similarity", "--input", str(small_dataset), "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))
        header, body = rows[0], rows[1:]
        assert len(body) == 80 and len(header) == 81
        vals = np.array([[float(v) for v in r[1:]] for r in body])
        assert np.array_equal(vals, vals.T)
        assert np.all(np.diag(vals) == 1.0)


class TestEmbedCommand:
    @pytest.mark.parametrize("method", ["le", "lsi"])
    def test_shapes(self, small_dataset, tmp_path, method):
        out = tmp_path / f"{method}.csv"
        assert main(["embed", "--method", method, "--dims", "3",
                     "--input", str(small_dataset), "--out", str(out)]) == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["id", "e1", "e2", "e3"]
        assert len(rows) == 81


class TestTrainPredict:
    @pytest.mark.parametrize("method", ["numeric", "le", "sle", "lsi"])
    def test_round_trip(self, small_dataset, small_config, tmp_path, method):
        model_dir = tmp_path / f"model-{method}"
        scores_path = tmp_path / f"scores-{method}.csv"
        assert main(["train", "--method", method, "--input", str(small_dataset),
                     "--config", str(small_config), "--out", str(model_dir)]) == 0
        assert (model_dir / "model.json").exists()
        assert (model_dir / "config.txt").exists()
        assert (model_dir / "train_scores.csv").exists()
        assert main(["predict", "--model", str(model_dir), "--input", str(small_dataset),
                     "--out", str(scores_path)]) == 0
        with (model_dir / "train_scores.csv").open() as fh:
            stored = {r[0]: float(r[1]) for r in list(csv.reader(fh))[1:]}
        with scores_path.open() as fh:
            predicted = {r[0]: float(r[1]) for r in list(csv.reader(fh))[1:]}
        assert stored.keys() == predicted.keys()
        for rid in stored:
            assert abs(stored[rid] - predicted[rid]) <= 1e-10

    def test_sle_artifacts(self, small_dataset, small_config, tmp_path):
        model_dir = tmp_path / "model-sle2"
        assert main(["train", "--method", "sle", "--input", str(small_dataset),
                     "--config", str(small_config), "--out", str(model_dir)]) == 0
        assert (model_dir / "xe_train.csv").exists()
        assert (model_dir / "objective_trace.csv").exists()
        assert (model_dir / "train_corpus.csv").exists()

    def test_in_memory_equals_loaded(self, small_dataset, small_config, tmp_path):
        ds, _ = load_dataset(small_dataset)
        from slemap.config import PipelineConfig
        cfg = PipelineConfig.load(small_config)
        model = train_model(ds, "le", cfg)
        in_memory = predict_model(model, ds)
        save_model(model, tmp_path / "m")
        loaded = load_model(tmp_path / "m")
        reloaded = predict_model(loaded, ds)
        assert np.abs(in_memory - reloaded).max() <= 1e-10

    def test_width_mismatch_is_data_error(self, small_dataset, small_config, tmp_path):
        model_dir = tmp_path / "model-n"
        assert main(["train", "--method", "numeric", "--input", str(small_dataset),
                     "--config", str(small_config), "--out", str(model_dir)]) == 0
        bad = tmp_path / "bad.csv"
        bad.write_text('id,label,f1,text\na,1,0.5,"chest pain"\n')
        assert main(["predict", "--model", str(model_dir), "--input", str(bad),
                     "--out", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize("extra", ["no equals sign here\n", "knn.k = 7\n"],
                             ids=["no-equals", "duplicate-key"])
    def test_corrupt_model_config_is_data_error(self, small_dataset, small_config, tmp_path,
                                                extra):
        model_dir = tmp_path / "model-c"
        assert main(["train", "--method", "numeric", "--input", str(small_dataset),
                     "--config", str(small_config), "--out", str(model_dir)]) == 0
        with (model_dir / "config.txt").open("a", encoding="utf-8") as fh:
            fh.write(extra)
        assert main(["predict", "--model", str(model_dir), "--input", str(small_dataset),
                     "--out", str(tmp_path / "s.csv")]) == 2

    @pytest.mark.parametrize("damage", [
        lambda meta: "{",
        lambda meta: json.dumps({k: v for k, v in meta.items() if k != "feature_scale"}),
        lambda meta: json.dumps({**meta, "params": {**meta["params"], "bias": "abc"}}),
    ], ids=["invalid-json", "missing-key", "non-numeric"])
    def test_corrupt_model_json_is_data_error(self, small_dataset, small_config, tmp_path,
                                              capsys, damage):
        model_dir = tmp_path / "model-j"
        assert main(["train", "--method", "numeric", "--input", str(small_dataset),
                     "--config", str(small_config), "--out", str(model_dir)]) == 0
        meta_path = model_dir / "model.json"
        meta_path.write_text(damage(json.loads(meta_path.read_text(encoding="utf-8"))),
                             encoding="utf-8")
        capsys.readouterr()
        assert main(["predict", "--model", str(model_dir), "--input", str(small_dataset),
                     "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "model.json" in err


@pytest.fixture(scope="module")
def trained_models(small_dataset, small_config, tmp_path_factory):
    """A saved model directory per method, trained once for the damage cases."""
    root = tmp_path_factory.mktemp("models")
    for method in ("numeric", "sle", "lsi"):
        assert main(["train", "--method", method, "--input", str(small_dataset),
                     "--config", str(small_config), "--out", str(root / method)]) == 0
    return root


def _edit_csv(path, edit):
    with path.open(newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with path.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def _set_cell(row, col, value):
    def edit(rows):
        rows[row][col] = value
    return edit


def _edit_meta(edit):
    def damage(path):
        meta = json.loads(path.read_text(encoding="utf-8"))
        edit(meta)
        path.write_text(json.dumps(meta), encoding="utf-8")
    return damage


def _drop_weight(meta):
    meta["params"]["weights"].pop()


class TestDamagedModelDir:
    @pytest.mark.parametrize("method,name,damage", [
        ("sle", "xe_train.csv", lambda p: _edit_csv(p, _set_cell(2, 1, "abc"))),
        ("sle", "objective_trace.csv", lambda p: _edit_csv(p, _set_cell(1, 1, "abc"))),
        ("lsi", "lsi_vocabulary.csv", lambda p: _edit_csv(p, _set_cell(1, 1, "abc"))),
        ("lsi", "lsi_components.csv", lambda p: _edit_csv(p, _set_cell(1, 0, "abc"))),
        ("sle", "train_scores.csv", lambda p: _edit_csv(p, _set_cell(3, 1, "abc"))),
        ("sle", "train_corpus.csv", lambda p: _edit_csv(p, lambda rows: rows.pop(5))),
        ("sle", "model.json", _edit_meta(lambda meta: meta.update(method="foo"))),
        ("numeric", "model.json", _edit_meta(_drop_weight)),
        ("sle", "model.json", _edit_meta(_drop_weight)),
        ("lsi", "model.json", _edit_meta(lambda m: m["params"]["weights"].append("0.5"))),
        ("sle", "model.json", _edit_meta(lambda m: m["numeric_std"].pop())),
        ("lsi", "lsi_vocabulary.csv", lambda p: _edit_csv(p, lambda rows: rows.pop(5))),
    ], ids=["xe-train-value", "trace-value", "lsi-idf-value", "lsi-component-value",
            "train-score-value", "corpus-missing-id", "unknown-method",
            "numeric-weights", "sle-weights", "lsi-weights",
            "numeric-std-length", "lsi-vocabulary-length"])
    def test_is_data_error_naming_the_file(self, trained_models, small_dataset, tmp_path,
                                           capsys, method, name, damage):
        model_dir = tmp_path / "model"
        shutil.copytree(trained_models / method, model_dir)
        damage(model_dir / name)
        capsys.readouterr()
        assert main(["predict", "--model", str(model_dir), "--input", str(small_dataset),
                     "--out", str(tmp_path / "s.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error:") and name in err

class TestEvaluateCommand:
    def test_report_files_and_determinism(self, small_dataset, small_config, tmp_path):
        r1, r2 = tmp_path / "rep1", tmp_path / "rep2"
        for rep in (r1, r2):
            assert main(["evaluate", "--method", "le", "--input", str(small_dataset),
                         "--config", str(small_config), "--seed", "3",
                         "--report", str(rep), "--dump-predictions"]) == 0
        for name in ("report.txt", "report.csv", "config.txt", "predictions.csv"):
            assert (r1 / name).exists()
            assert (r1 / name).read_bytes() == (r2 / name).read_bytes()

    def test_report_matches_library(self, small_dataset, small_config, tmp_path):
        rep = tmp_path / "rep"
        assert main(["evaluate", "--method", "numeric", "--input", str(small_dataset),
                     "--config", str(small_config), "--seed", "3",
                     "--report", str(rep)]) == 0
        from slemap.config import PipelineConfig
        from slemap.evaluation import cross_validate
        ds, _ = load_dataset(small_dataset)
        cfg = replace(PipelineConfig.load(small_config), seed=3)
        report = cross_validate(ds, "numeric", cfg)
        text = (rep / "report.csv").read_text()
        mean_row = [r for r in text.splitlines() if r.startswith("mean")][0]
        assert mean_row.split(",")[1] == repr(report.mean_auc)

    def test_fold_without_both_classes_is_data_error(self, small_config, tmp_path):
        p = tmp_path / "onecls.csv"
        rows = ["id,label,f1,text"] + [f'r{i},1,0.5,"chest pain"' for i in range(12)]
        p.write_text("\n".join(rows) + "\n")
        assert main(["evaluate", "--method", "numeric", "--input", str(p),
                     "--config", str(small_config), "--report", str(tmp_path / "r")]) == 2


class TestCompareCommand:
    def test_row_per_method_dims(self, small_dataset, small_config, tmp_path):
        rep = tmp_path / "cmp"
        assert main(["compare", "--methods", "numeric,lsi", "--dims", "2,3",
                     "--input", str(small_dataset), "--config", str(small_config),
                     "--report", str(rep)]) == 0
        with (rep / "compare.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["method", "dims", "auc", "mcc"]
        combos = {(r[0], r[1]) for r in rows[1:]}
        assert combos == {("numeric", "2"), ("numeric", "3"), ("lsi", "2"), ("lsi", "3")}

    def test_dims_range_syntax(self, small_dataset, small_config, tmp_path):
        rep = tmp_path / "cmp2"
        assert main(["compare", "--methods", "numeric", "--dims", "2..4",
                     "--input", str(small_dataset), "--config", str(small_config),
                     "--report", str(rep)]) == 0
        with (rep / "compare.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert [r[1] for r in rows[1:]] == ["2", "3", "4"]


    @pytest.mark.parametrize("dims", ["2..x", "x", "2,3.5", "..3"])
    def test_bad_dims_is_config_error(self, small_dataset, tmp_path, capsys, dims):
        assert main(["compare", "--methods", "numeric", "--dims", dims,
                     "--input", str(small_dataset), "--report", str(tmp_path / "cmp")]) == 2
        err = capsys.readouterr().err
        assert "bad dims list" in err and "Traceback" not in err

    @pytest.mark.parametrize("methods", ["foo", ",", "numeric,foo"])
    def test_bad_methods_is_usage_error(self, small_dataset, tmp_path, capsys, methods):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--methods", methods, "--dims", "2",
                  "--input", str(small_dataset), "--report", str(tmp_path / "cmp")])
        assert exc.value.code == 1
        assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("command", [["evaluate", "--method", "numeric"],
                                     ["compare", "--methods", "numeric", "--dims", "2..3"]],
                         ids=["evaluate", "compare"])
def test_report_config_loads_back(small_dataset, small_config, tmp_path, command):
    rep = tmp_path / "rep"
    assert main([*command, "--input", str(small_dataset), "--config", str(small_config),
                 "--seed", "4", "--report", str(rep)]) == 0
    expected = replace(PipelineConfig.load(small_config), seed=4)
    assert PipelineConfig.load(rep / "config.txt") == expected


class TestConfigErrors:
    @pytest.mark.parametrize("line", [
        "normalize.max_tokens = 0", "normalize.max_statements = 0",
        "sle.max_outer_iters = 0", "sle.l2 = -1", "sle.inner_theta_steps = -1",
        "sle.tol = -1", "sle.lambda = -1",
        "misspelling.max_edit_distance = -1", "misspelling.max_edit_distance = 4",
        "misspelling.min_token_length = -1",
    ])
    def test_bad_value_exits_2(self, small_dataset, tmp_path, monkeypatch, line):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.txt").write_text(line + "\n")
        command = (["similarity", "--out", "S.csv"] if line.startswith("normalize.")
                   else ["evaluate", "--method", "sle", "--report", "rep"])
        assert main([*command, "--input", str(small_dataset), "--config", "cfg.txt"]) == 2


    @pytest.mark.parametrize("flags", [
        ["evaluate", "--method", "numeric", "--folds", "0"],
        ["evaluate", "--method", "numeric", "--folds", "1"],
        ["evaluate", "--method", "numeric", "--seed", "-1"],
        ["embed", "--method", "le", "--dims", "0"],
    ], ids=["folds-0", "folds-1", "seed-negative", "dims-0"])
    def test_bad_flag_exits_2(self, small_dataset, tmp_path, monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        out = ["--out", "e.csv"] if flags[0] == "embed" else ["--report", "rep"]
        assert main([*flags, *out, "--input", str(small_dataset)]) == 2

    @pytest.mark.parametrize("where", ["flag", "config"])
    def test_missing_dictionary_dir_exits_2(self, small_dataset, tmp_path, capsys, where):
        missing = tmp_path / "no-such-dir"
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(f"dictionary.dir = {missing}\n" if where == "config" else "")
        flag = ["--dict-dir", str(missing)] if where == "flag" else []
        assert main(["similarity", "--input", str(small_dataset), "--out", str(tmp_path / "S.csv"),
                     "--config", str(cfg), *flag]) == 2
        assert str(missing) in capsys.readouterr().err


    @pytest.mark.parametrize("name, line", [
        ("acronyms.txt", "cp chest pain"), ("acronyms.txt", "cp = chest"),
        ("abbreviations.txt", "min minute"), ("synonyms.txt", "faint"),
    ])
    def test_malformed_dictionary_line_exits_2(self, small_dataset, tmp_path, capsys,
                                               name, line):
        dct = tmp_path / "dict"
        dct.mkdir()
        (dct / name).write_text("# comment\n" + line + "\n")
        assert main(["similarity", "--input", str(small_dataset), "--dict-dir", str(dct),
                     "--out", str(tmp_path / "S.csv")]) == 2
        err = capsys.readouterr().err
        assert f"{dct / name}:2:" in err and "Traceback" not in err


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_missing_required(self):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--method", "numeric"])
        assert exc.value.code == 1

    def test_missing_input_file_is_data_error(self, tmp_path):
        assert main(["similarity", "--input", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "s.csv")]) == 2


def test_import_leaves_scipy_unloaded():
    # scipy.linalg alone adds about 0.3 s and 28 MB to every command's start-up
    src = os.path.dirname(os.path.dirname(slemap.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, slemap, slemap.cli; "
            "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
