"""Build and save label-base's checkpoint: a seeded encoder with a fitted head.

The encoder weights are seeded, not trained. The classifier head is fitted
by ridge regression of one-hot labels on the encoder's hidden states over
the first words of the probe records (a linear probe), so predictions are
better than chance and the label-base macro F1 means something. Runs as a
child process of the benchmark, so that neither the time nor the memory
of building the model counts toward the serving measurement:

    python3 -m perfbench.fixture --tokenizer DIR --probe FILE.tsv --out DIR \
        --seed N --shape LAYERS,HIDDEN,HEADS,FFN --max-len 128 --probe-words 500
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from handover_ie import encoder, pipeline, tokenizer  # noqa: E402
from handover_ie.corpus import default_synthetic_scheme, parse_records  # noqa: E402
from handover_ie.encoder import EncoderModel, ModelConfig  # noqa: E402

RIDGE = 1.0


def fit_head(model: EncoderModel, table, words, labels, max_len: int) -> None:
    """Set the classifier to the ridge fit of one-hot labels on hidden states."""
    feats, gold = [], []
    for seq in tokenizer.encode(words, table, max_len):
        hidden = encoder.encode(encoder.embed(seq, model), model).data
        for w, pos in seq.first_subtoken_of.items():
            feats.append(hidden[pos])
            gold.append(labels[w])
    x = np.array(feats)
    y = np.eye(model.config.num_labels)[gold]
    x_mean, y_mean = x.mean(axis=0), y.mean(axis=0)
    xc = x - x_mean
    w = np.linalg.solve(xc.T @ xc + RIDGE * np.eye(x.shape[1]), xc.T @ (y - y_mean))
    model.cls_w.data = w
    model.cls_b.data = y_mean - x_mean @ w


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tokenizer", required=True, help="directory with merges.txt and vocab.txt")
    parser.add_argument("--probe", required=True, help="TSV records for the head fit")
    parser.add_argument("--probe-words", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--shape", required=True)
    parser.add_argument("--max-len", type=int, required=True)
    args = parser.parse_args()

    tok = Path(args.tokenizer)
    table = tokenizer.load_table((tok / "merges.txt").read_text(encoding="utf-8"),
                                 (tok / "vocab.txt").read_text(encoding="utf-8"))
    scheme = default_synthetic_scheme()
    layers, hidden, heads, ffn = (int(v) for v in args.shape.split(","))
    model_config = ModelConfig(layers, hidden, heads, ffn, len(table.pieces),
                               max(512, args.max_len), len(scheme.labels))
    train_config = pipeline.TrainConfig(kind="encoder", seed=args.seed, max_len=args.max_len,
                                        num_merges=len(table.merges))
    with open(args.probe, encoding="utf-8") as fh:
        probe, _ = parse_records(fh, scheme=scheme)
    words = [w for r in probe.records for w in r.words][:args.probe_words]
    labels = [lab for r in probe.records for lab in r.labels][:args.probe_words]
    model = EncoderModel(model_config, seed=args.seed)
    fit_head(model, table, words, labels, args.max_len)
    pipeline.Checkpoint(
        kind="encoder", scheme=scheme, train_config=train_config, model_config=model_config,
        model=model, table=table,
    ).save(args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
