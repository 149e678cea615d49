"""Command-line interface.

Subcommands: synth, tokenizer train/encode, train, predict, eval,
baseline. Exit codes: 0 success, 2 validation error, 3 training
divergence; `run` maps errors to them for this CLI and every script.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import corpus, evaluation, pipeline
from .tensor import TrainingDivergence
from .tokenizer import encode as encode_words, read_table, save_table

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_DIVERGENCE = 3

# encoder shape for a config file without model keys
DEFAULT_SHAPE = dict(num_layers=2, hidden_size=32, num_heads=2, ffn_size=64)


def read_records(path: str | Path, scheme=None):
    return corpus.parse_records(corpus.read_text(path), scheme=scheme)


def read_scheme(path: str | Path | None):
    if path is None:
        return None
    return corpus.load_scheme(corpus.read_text(path))


def write_out(text: str, out: str | Path | None) -> None:
    """Write text to the file out, or to stdout when out is not given."""
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_synth(args) -> int:
    scheme = read_scheme(args.scheme) or corpus.default_synthetic_scheme()
    rs = corpus.generate_synthetic(args.n, scheme, args.seed)
    write_out(corpus.serialize_records(rs, scheme), args.out)
    return EXIT_OK


def _cmd_tokenizer_train(args) -> int:
    rs, _ = read_records(args.input)
    table = pipeline.fit_tokenizer(rs, args.num_merges, args.lowercase)
    save_table(table, args.out)
    print(f"trained {len(table.merges)} merges, vocab size {len(table.pieces)}")
    return EXIT_OK


def _cmd_tokenizer_encode(args) -> int:
    table = read_table(args.table)
    rs, _ = read_records(args.input)
    lines = []
    for rec in rs.records:
        for w, seq in enumerate(encode_words(rec.words, table, args.max_len)):
            ids = " ".join(str(i) for i in seq.token_ids)
            pieces = " ".join(seq.pieces)
            lines.append(f"{rec.id}\t{w}\t{ids}\t{pieces}\n")
    write_out("".join(lines), args.out)
    return EXIT_OK


def _cmd_train(args) -> int:
    if args.tokenizer and args.model == "crf":
        raise ValueError("--tokenizer serves the encoder; the CRF reads words")
    config, model_kw = pipeline.load_train_config(args.config)
    config = replace(config, kind=args.model)
    if args.pretrained:
        config = replace(config, pretrained=args.pretrained)
    scheme = read_scheme(args.scheme)
    train_rs, scheme = read_records(args.train, scheme=scheme)
    valid_rs, _ = read_records(args.valid, scheme=scheme)

    table = model_config = None
    if args.model == "encoder":
        if args.tokenizer:
            table = read_table(args.tokenizer)
        else:
            table = pipeline.fit_tokenizer(train_rs, config.num_merges, config.lowercase)
        model_config = pipeline.derive_model_config(
            {**DEFAULT_SHAPE, **model_kw}, table, scheme, config)
    checkpoint, metrics = pipeline.train_model(
        train_rs, valid_rs, scheme, config, model_config, table
    )
    checkpoint.save(args.out)
    for m in metrics:
        f1 = "n/a" if m["val_macro_f1"] is None else f"{m['val_macro_f1']:.4f}"
        converged = f" converged {m['converged']}" if "converged" in m else ""
        print(f"epoch {m['epoch']}: train_loss {m['train_loss']:.4f} val_macro_f1 {f1}"
              f"{converged}")
    print(f"checkpoint written to {args.out}")
    return EXIT_OK


def _cmd_predict(args) -> int:
    checkpoint = pipeline.Checkpoint.load(args.checkpoint)
    rs, _ = read_records(args.input, scheme=checkpoint.scheme)
    pred = pipeline.predict(checkpoint, rs)
    write_out(corpus.serialize_records(pred, checkpoint.scheme), args.out)
    return EXIT_OK


def _cmd_eval(args) -> int:
    scheme = read_scheme(args.scheme)
    train_rs, scheme = read_records(args.train, scheme=scheme)
    gold, _ = read_records(args.gold, scheme=scheme)
    pred, _ = read_records(args.pred, scheme=scheme)
    evaluated = corpus.evaluated_classes(train_rs, scheme)
    counts = evaluation.confusion_counts(gold, pred, scheme)
    report = evaluation.build_report(counts, scheme, evaluated,
                                     include_na=not args.exclude_na)
    write_out(evaluation.emit_report(report, counts, args.format, scheme), args.out)
    return EXIT_OK


def _cmd_baseline(args) -> int:
    scheme = read_scheme(args.scheme)
    train_rs, scheme = read_records(args.train, scheme=scheme)
    rs, _ = read_records(args.input, scheme=scheme)
    if args.kind == "random":
        evaluated = corpus.evaluated_classes(train_rs, scheme)
        pred = evaluation.baseline_random(rs, args.seed, evaluated)
    else:
        label = (scheme.index(args.majority_label) if args.majority_label
                 else evaluation.majority_label(train_rs, scheme))
        pred = evaluation.baseline_majority(rs, label)
    write_out(corpus.serialize_records(pred, scheme), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="handover-ie",
        description="Sequence labeling for clinical handover form filling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    defaults = pipeline.TrainConfig()

    p = sub.add_parser("synth", help="generate a deterministic synthetic corpus")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scheme")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_synth)

    tok = sub.add_parser("tokenizer", help="subword tokenizer commands")
    tok_sub = tok.add_subparsers(dest="tok_command", required=True)
    p = tok_sub.add_parser("train", help="learn a merge table from a TSV corpus")
    p.add_argument("--input", required=True)
    p.add_argument("--num-merges", type=int, default=defaults.num_merges)
    p.add_argument("--lowercase", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_tokenizer_train)
    p = tok_sub.add_parser("encode", help="tokenize a TSV corpus")
    p.add_argument("--table", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--max-len", type=int, default=defaults.max_len)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_tokenizer_encode)

    p = sub.add_parser("train", help="train a token classifier")
    p.add_argument("--model", choices=pipeline.MODEL_KINDS, required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--valid", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pretrained")
    p.add_argument("--scheme")
    p.add_argument("--tokenizer")
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("predict", help="label records with a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_predict)

    p = sub.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--gold", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--format", choices=evaluation.FORMATS, default="table")
    p.add_argument("--exclude-na", action="store_true",
                   help="drop the N.A. class from the macro average")
    p.add_argument("--scheme")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("baseline", help="random or majority-class predictions")
    p.add_argument("--kind", choices=("random", "majority"), required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--majority-label")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scheme")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_baseline)
    return parser


VALIDATION_ERRORS = (ValueError, OSError, IndexError)


def run(fn, *args) -> int:
    """fn(*args)'s exit code, or the code of the error it raised, with one
    `error: ...` line on stderr; any other error propagates."""
    try:
        return fn(*args)
    except (TrainingDivergence, *VALIDATION_ERRORS) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGENCE if isinstance(err, TrainingDivergence) else EXIT_VALIDATION


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return run(args.fn, args)


if __name__ == "__main__":
    sys.exit(main())
