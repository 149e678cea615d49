#!/usr/bin/env python3
"""End-to-end experiment on synthetic data.

Generates train/validation/test splits, trains the BPE tokenizer, the
transformer token classifier, and the CRF baseline, runs the trivial
baselines, evaluates everything on the test split, and writes per-method
reports plus a leaderboard into the work directory.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from handover_ie import pipeline
from handover_ie.cli import run, write_out
from handover_ie.corpus import (
    default_synthetic_scheme,
    dump_scheme,
    generate_synthetic,
    serialize_records,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-train", type=int, default=60)
    parser.add_argument("--n-valid", type=int, default=20)
    parser.add_argument("--n-test", type=int, default=30)
    parser.add_argument("--epochs", type=int, default=40)
    parser.add_argument("--learning-rate", type=float, default=3e-3)
    parser.add_argument("--batch-size", type=int, default=4)
    parser.add_argument("--num-merges", type=int, default=80)
    parser.add_argument("--hidden-size", type=int, default=32)
    parser.add_argument("--num-layers", type=int, default=2)
    parser.add_argument("--num-heads", type=int, default=2)
    args = parser.parse_args()

    scheme = default_synthetic_scheme()
    splits = {name: generate_synthetic(n, scheme, seed=args.seed + offset)
              for name, n, offset in (("train", args.n_train, 0),
                                      ("validation", args.n_valid, 1),
                                      ("test", args.n_test, 2))}
    # made only once every split is generated, so a rejected run leaves nothing
    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    for name, rs in splits.items():
        write_out(serialize_records(rs, scheme), work / f"{name}.tsv")
    write_out(dump_scheme(scheme), work / "labels.txt")

    base = pipeline.TrainConfig(
        kind="encoder", learning_rate=args.learning_rate, batch_size=args.batch_size,
        epochs=args.epochs, seed=args.seed, max_len=64, num_merges=args.num_merges,
    )
    model_kw = dict(num_layers=args.num_layers, hidden_size=args.hidden_size,
                    num_heads=args.num_heads, ffn_size=2 * args.hidden_size)
    leaderboard = pipeline.run_experiment(
        splits["train"], splits["validation"], splits["test"], scheme, base, model_kw,
        (), work,
    )
    print(pipeline.leaderboard_text(leaderboard), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(run(main))
