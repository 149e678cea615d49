"""The same bytes at any BLAS thread count.

OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy loads it, so each
count runs the same fits in a process of its own, and the test compares
what the two processes wrote byte for byte: a CRF checkpoint (L-BFGS dot
products over more than 10,000 weights), an encoder checkpoint, the CRF
posteriors at a shape where OpenBLAS splits a product across threads, and
one encoder training step at the width of the paper's encoder.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CHILD = r"""
import hashlib
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from handover_ie import crf, encoder, pipeline, tensor as T
from handover_ie.corpus import default_synthetic_scheme, generate_synthetic

out = Path(sys.argv[1])
scheme = default_synthetic_scheme()
train = generate_synthetic(60, scheme, seed=11)
valid = generate_synthetic(10, scheme, seed=12)

config = pipeline.TrainConfig(kind="crf", max_iters=30)
ckpt, _ = pipeline.train_crf(train, valid, scheme, config)
assert ckpt.crf.weights.size > 10_000, ckpt.crf.weights.size
ckpt.save(out / "crf")

config = pipeline.TrainConfig(kind="encoder", learning_rate=3e-3, batch_size=4, epochs=2,
                              seed=3, max_len=32, num_merges=40)
table = pipeline.fit_tokenizer(train, config.num_merges, config.lowercase)
model_config = pipeline.derive_model_config(
    dict(num_layers=1, hidden_size=16, num_heads=2, ffn_size=32), table, scheme, config)
ckpt, _ = pipeline.fine_tune(train, valid, scheme, table, config, model_config)
ckpt.save(out / "encoder")

# 600 notes at |Y| = 37: each forward and backward step, and the pair sum,
# is a product large enough for OpenBLAS to thread
rng = np.random.default_rng(5)
starts = np.concatenate(([0], np.cumsum(rng.integers(5, 30, 600))))
pk = crf.pack(starts)
unary = rng.normal(0.0, 3.0, (int(starts[-1]), 37))
node, pair, log_z = crf._packed_posteriors(unary[pk.perm], pk, rng.normal(0.0, 3.0, (37, 37)))
(out / "posteriors.bin").write_bytes(node.tobytes() + pair.tobytes() + log_z.tobytes())

# one recorded step and one Adam step at the width of the paper's encoder:
# 2 layers of 768, 12 heads, FFN 3072, one 128-token window at dropout 0.1
config = encoder.ModelConfig(num_layers=2, hidden_size=768, num_heads=12, ffn_size=3072,
                             vocab_size=200, max_positions=128, num_labels=37, dropout=0.1)
model = encoder.EncoderModel(config, seed=7)
optimizer = pipeline.Adam(model.parameters(), lr=3e-5, weight_decay=0.01)
rng = np.random.default_rng(8)
window = SimpleNamespace(token_ids=rng.integers(0, config.vocab_size, 128).tolist())
labels = rng.integers(0, config.num_labels, 128).tolist()
with T.recording():
    log_probs = encoder.run_token_classifier(model, [window], rng)
    T.backward(encoder.token_loss(log_probs, labels, [128]))
optimizer.step()
(out / "wide-log-probs.bin").write_bytes(log_probs.data.tobytes())
# the store's digest: its four buffers hold about 460 MB
store = hashlib.sha256()
for buffer in (optimizer.data, optimizer.grad, optimizer.m, optimizer.v):
    store.update(buffer.tobytes())
(out / "wide-adam.sha256").write_text(store.hexdigest(), encoding="utf-8")
"""


def files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


def test_outputs_are_byte_equal_at_one_and_two_blas_threads(tmp_path):
    written = []
    for threads in (1, 2):
        out = tmp_path / f"threads-{threads}"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join(filter(None, (str(SRC),
                                                           os.environ.get("PYTHONPATH"))))}
        subprocess.run([sys.executable, "-c", CHILD, str(out)], env=env, check=True,
                       timeout=300)
        written.append(files(out))
    one, two = written
    assert {"crf/crf_weights.tarch", "posteriors.bin", "wide-adam.sha256"} <= set(one)
    assert sorted(one) == sorted(two)
    for name in one:
        assert one[name] == two[name], name
