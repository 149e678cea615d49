#!/usr/bin/env python3
"""Full pipeline on the public nursing-handover dataset.

Needs the dataset converted to TSV (train.tsv / validation.tsv /
test.tsv plus labels.txt, see scripts/convert_standoff.py) and,
for the fine-tuned encoder run, a pretrained weight archive produced by
scripts/import_pretrained.py. Runs the tokenizer, an optional
hyperparameter grid over learning rate / batch size / epochs, the CRF
baseline, and the trivial baselines, then writes test-set reports.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from handover_ie import pipeline
from handover_ie.cli import read_records, read_scheme, run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", required=True,
                        help="directory with train.tsv, validation.tsv, test.tsv, labels.txt")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--pretrained", help="model archive from scripts/import_pretrained.py")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-len", type=int, default=128)
    parser.add_argument("--num-merges", type=int, default=2000)
    parser.add_argument("--num-layers", type=int, default=12)
    parser.add_argument("--hidden-size", type=int, default=768)
    parser.add_argument("--num-heads", type=int, default=12)
    parser.add_argument("--ffn-size", type=int, default=3072)
    parser.add_argument("--skip-grid", action="store_true",
                        help="train once with the base config instead of searching")
    args = parser.parse_args()

    data = Path(args.data_dir)
    scheme = read_scheme(data / "labels.txt")
    splits = {name: read_records(data / f"{name}.tsv", scheme)[0]
              for name in ("train", "validation", "test")}

    base = pipeline.TrainConfig(
        kind="encoder", seed=args.seed, max_len=args.max_len,
        num_merges=args.num_merges, pretrained=args.pretrained or "",
    )
    model_kw = dict(num_layers=args.num_layers, hidden_size=args.hidden_size,
                    num_heads=args.num_heads, ffn_size=args.ffn_size, max_positions=512)
    leaderboard = pipeline.run_experiment(
        splits["train"], splits["validation"], splits["test"], scheme, base, model_kw,
        () if args.skip_grid else pipeline.default_grid(base), args.workdir,
    )
    print(pipeline.leaderboard_text(leaderboard), end="")
    return 0


if __name__ == "__main__":
    raise SystemExit(run(main))
