#!/usr/bin/env python3
"""Convert externally exported encoder weights into a loadable archive.

Inputs: a tensor archive of externally named weights (export each named
tensor from its source ecosystem into the TARCH1 format first), a
name-mapping TSV (`external<TAB>internal`, see README for the internal
naming scheme), and the shared `key=value` config file: its model keys
give the shape and its `seed` (or HANDOVER_IE_SEED, as in `handover-ie
train`) seeds the tensors the mapping does not cover. Writes a full model
archive usable with `handover-ie train --pretrained`.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from handover_ie.cli import run
from handover_ie.encoder import EncoderModel, import_pretrained, save_model
from handover_ie.pipeline import build_model_config, load_train_config


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--archive", required=True, help="external-name tensor archive")
    parser.add_argument("--mapping", required=True, help="external<TAB>internal names")
    parser.add_argument("--config", required=True, help="train+model config key=value file")
    parser.add_argument("--out", required=True, help="output model archive")
    args = parser.parse_args()

    train_config, model_kw = load_train_config(args.config)
    model = EncoderModel(build_model_config(model_kw), seed=train_config.seed)
    imported = import_pretrained(model, args.archive, args.mapping)
    save_model(model, args.out)
    print(f"imported {len(imported)} tensors; wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(run(main))
