"""Command-line interface.

Subcommands: similarity, embed, train, predict, evaluate, compare, synth.
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from . import errors
from .config import PipelineConfig
from .dataset import load_dataset, write_csv
from .evaluation import (METHODS, Split, check_methods, check_widths, compare_methods,
                         prepare_dataset, run_methods)
from .model_io import load_model, predict_model, save_model, train_model
from .synth import GeneratorSpec, generate_synthetic, parse_generator_spec

_DATA_ERRORS = (errors.SchemaError, errors.ParseError, errors.InvalidSpec,
                errors.KTooLarge, errors.FoldTooSmall, errors.SingleClass, errors.EmptyVocabulary, errors.ConfigError,
                errors.TokenCapExceeded, FileNotFoundError)
_NUMERIC_ERRORS = (errors.NonFiniteValue, errors.RankDeficient,
                   errors.NonSymmetricInput, errors.DimensionMismatch)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _resolved_config(args) -> PipelineConfig:
    """The --config file (or the defaults) overridden by the flags given.

    A flag overrides the PipelineConfig field its argparse dest names.
    """
    cfg = PipelineConfig.load(args.config) if args.config else PipelineConfig()
    given = {f.name: getattr(args, f.name) for f in fields(PipelineConfig)
             if getattr(args, f.name, None) is not None}
    return replace(cfg, **given)


def _load(args):
    dataset, diagnostics = load_dataset(args.input, strict=getattr(args, "strict", False))
    for line in diagnostics:
        print(f"skipped: {line}", file=sys.stderr)
    return dataset


def _cmd_similarity(args) -> int:
    cfg = _resolved_config(args)
    dataset = _load(args)
    sim = prepare_dataset(dataset, cfg, need_similarity=True).similarity

    def row(i: int) -> list[str]:
        values = sim.block[sim.keys[i], sim.keys]
        values[i] = 1.0     # the unit diagonal, blank records' too
        return [sim.ids[i]] + [repr(float(v)) for v in values]

    write_csv(args.out, ["id"] + list(sim.ids), map(row, range(sim.m)))
    print(f"wrote {args.out} ({sim.m}x{sim.m})")
    return 0


def _cmd_embed(args) -> int:
    cfg = _resolved_config(args)
    dataset = _load(args)
    prepared = prepare_dataset(dataset, cfg, need_similarity=args.method == "le")
    everything = np.arange(dataset.m)
    split = Split(dataset, everything, everything, prepared.docs, (cfg.dims,),
                  similarity=prepared.similarity)
    if args.method == "le":
        vectors, _ = split.eigenmap(cfg)
    else:
        vectors = split.lsi_model(cfg).doc_embedding
    write_csv(args.out, ["id"] + [f"e{j + 1}" for j in range(vectors.shape[1])],
              ([row_id] + [repr(float(v)) for v in row] for row_id, row in zip(dataset.ids, vectors)))
    print(f"wrote {args.out} ({vectors.shape[0]}x{vectors.shape[1]})")
    return 0


def _cmd_train(args) -> int:
    cfg = _resolved_config(args)
    dataset = _load(args)
    model = train_model(dataset, args.method, cfg)
    save_model(model, args.out)
    print(f"trained {args.method} on {dataset.m} records "
          f"(train AUC {model.train_auc:.4f}); saved to {args.out}")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    dataset = _load(args)
    scores = predict_model(model, dataset)
    write_csv(args.out, ["id", "score"],
              ([i, repr(float(s))] for i, s in zip(dataset.ids, scores)))
    print(f"wrote {args.out} ({len(scores)} scores)")
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _resolved_config(args)
    dataset = _load(args)
    report = run_methods(dataset, [args.method], cfg,
                         collect_predictions=args.dump_predictions)[args.method]
    out = Path(args.report)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(report.to_text(), encoding="utf-8")
    (out / "report.csv").write_text("\n".join(report.to_csv_rows()) + "\n", encoding="utf-8")
    (out / "config.txt").write_text(cfg.echo(), encoding="utf-8")
    if args.dump_predictions:
        write_csv(out / "predictions.csv", ["fold", "id", "label", "score"],
                  ([fold, rid, label, repr(score)]
                   for fold, rid, label, score in report.predictions))
    print(f"{args.method}: mean AUC {report.mean_auc:.4f}, mean MCC {report.mean_mcc:.4f}; "
          f"report in {out}")
    return 0


def _methods_list(text: str) -> list[str]:
    methods = [m.strip() for m in text.split(",") if m.strip()]
    try:
        check_methods(methods)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad methods list {text!r}: {exc}") from None
    return methods


def _parse_dims_list(text: str) -> list[int]:
    dims = []
    try:
        for part in text.split(","):
            part = part.strip()
            if ".." in part:
                lo, hi = part.split("..", 1)
                span = range(int(lo), int(hi) + 1)
                if not span:
                    raise ValueError(f"empty range {part!r}")
                dims.extend(span)
            elif part:
                dims.append(int(part))
        check_widths(dims)
    except ValueError as exc:   # not an integer, an empty range, or a width compare refuses
        raise errors.ConfigError(f"bad dims list {text!r}: {exc}") from None
    return dims


def _cmd_compare(args) -> int:
    cfg = _resolved_config(args)
    dataset = _load(args)
    rows = compare_methods(dataset, args.methods, _parse_dims_list(args.dims_list), cfg)
    out = Path(args.report)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "compare.csv", ["method", "dims", "auc", "mcc"],
              ([row["method"], row["dims"], repr(row["auc"]), repr(row["mcc"])] for row in rows))
    (out / "config.txt").write_text(cfg.echo(), encoding="utf-8")
    print(f"wrote {out / 'compare.csv'} ({len(rows)} rows)")
    return 0


def _cmd_synth(args) -> int:
    spec = parse_generator_spec(args.spec) if args.spec else GeneratorSpec()
    generate_synthetic(spec, args.seed, args.out)
    print(f"wrote {args.out} ({spec.m} records, {spec.clusters} clusters)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="slemap",
                     description="Supervised Laplacian eigenmaps for short clinical text")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="pipeline config file")
        p.add_argument("--dict-dir", dest="dictionary_dir", metavar="DICT_DIR",
                       help="directory with synonyms/acronyms/abbreviations files")

    p = sub.add_parser("similarity", help="write the document similarity matrix")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_similarity)

    p = sub.add_parser("embed", help="write an unsupervised embedding")
    p.add_argument("--method", choices=("le", "lsi"), required=True)
    p.add_argument("--dims", type=int)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    common(p)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("train", help="train a model and save it to a directory")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int)
    common(p)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="score new records with a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("evaluate", help="cross-validated evaluation of one method")
    p.add_argument("--method", choices=METHODS, required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--folds", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--report", required=True)
    p.add_argument("--dump-predictions", action="store_true")
    common(p)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("compare", help="sweep methods over embedding dimensions")
    p.add_argument("--methods", required=True, type=_methods_list,
                   help="comma-separated subset of numeric,le,sle,lsi")
    # its own dest, so the sweep list never enters PipelineConfig.dims
    p.add_argument("--dims", dest="dims_list", metavar="DIMS", required=True,
                   help="list like 5,10,20 or range like 1..50")
    p.add_argument("--input", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--folds", type=int)
    p.add_argument("--report", required=True)
    common(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--spec", help="generator spec file (defaults used when omitted)")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DATA_ERRORS as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
