"""Golden run: one tiny seeded pipeline.run_experiment, pinned file by file.

The outputs committed under tests/data/golden_run/ came from run_golden
below. A rerun must give every text file back byte for byte: reports,
leaderboard, labels, configs, merges/vocab and the CRF features file.
Tensor archives are compared entry by entry (same names, same shapes,
values within ARCHIVE_TOL), which admits a reordered floating-point sum
but not a changed prediction, since every report is compared exactly.

Re-pin with ``PYTHONPATH=src python tests/test_golden_run.py`` and name
every changed file, with the reason it changed, in CHANGES.md.
"""
from __future__ import annotations

import shutil
import sys
from pathlib import Path

import numpy as np

from handover_ie import pipeline
from handover_ie.corpus import Record, RecordSet, default_synthetic_scheme, generate_synthetic
from handover_ie.tensor import load_archive

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_run"
SEED = 5
# max abs difference allowed between a rerun's archive entries and the pinned ones
ARCHIVE_TOL = 1e-9


def ragged(n: int, seed: int, split: str) -> RecordSet:
    """n synthetic notes cut to lengths cycling through 1..20 words."""
    records = generate_synthetic(n, default_synthetic_scheme(), seed=seed).records
    cut = []
    for i, rec in enumerate(records):
        k = 1 + (7 * i + seed) % 20
        cut.append(Record(id=rec.id, words=rec.words[:k], labels=rec.labels[:k]))
    return RecordSet(split=split, records=tuple(cut))


def run_golden(workdir: Path) -> None:
    base = pipeline.TrainConfig(kind="encoder", learning_rate=3e-3, batch_size=4, epochs=3,
                                seed=SEED, max_len=16, num_merges=40)
    model_kw = dict(num_layers=1, hidden_size=16, num_heads=2, ffn_size=32)
    pipeline.run_experiment(
        ragged(36, SEED, "train"), ragged(12, SEED + 1, "validation"),
        ragged(24, SEED + 2, "test"), default_synthetic_scheme(), base, model_kw, (), workdir,
    )


def files(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def test_golden_run_reproduces_pinned_outputs(tmp_path):
    run_golden(tmp_path)
    assert files(tmp_path) == files(GOLDEN)
    for name in files(GOLDEN):
        want, got = GOLDEN / name, tmp_path / name
        if name.endswith(".tarch"):
            a, b = load_archive(str(want)), load_archive(str(got))
            assert list(a) == list(b), name
            for key in a:
                assert a[key].shape == b[key].shape, (name, key)
                diff = float(np.abs(a[key] - b[key]).max()) if a[key].size else 0.0
                assert diff <= ARCHIVE_TOL, (name, key, diff)
        else:
            assert got.read_bytes() == want.read_bytes(), name


if __name__ == "__main__":
    shutil.rmtree(GOLDEN, ignore_errors=True)
    run_golden(GOLDEN)
    print("\n".join(files(GOLDEN)), file=sys.stderr)
