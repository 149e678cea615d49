"""Which processes import scipy: only the encoder's GELU needs it, for erf,
so a process imports it on its first GELU and not before.
Each check runs in a fresh interpreter, since the test process itself has
scipy loaded."""
import json
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# prints the names of the scipy modules loaded
LOADED = "\nprint(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')))\n"


def _child(source: str, *args: str, cwd=None):
    """Run source in a fresh interpreter; the JSON of its last output line."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + source, *args],
                          capture_output=True, text=True, encoding="utf-8", timeout=120,
                          env=env, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _scipy_left_by(source: str, cwd=None) -> list[str]:
    return _child(source + LOADED, cwd=cwd)


def test_importing_the_cli_leaves_scipy_out():
    assert _scipy_left_by("import handover_ie.cli") == []


def test_crf_commands_run_without_scipy(tmp_path):
    (tmp_path / "crf.cfg").write_text("max_iters=5\nseed=1\n", encoding="utf-8")
    commands = [
        ["synth", "--n", "10", "--seed", "1", "--out", "train.tsv"],
        ["synth", "--n", "4", "--seed", "2", "--out", "valid.tsv"],
        ["tokenizer", "train", "--input", "train.tsv", "--num-merges", "20", "--out", "tok"],
        ["train", "--model", "crf", "--config", "crf.cfg", "--train", "train.tsv",
         "--valid", "valid.tsv", "--out", "ck"],
        ["predict", "--checkpoint", "ck", "--input", "valid.tsv", "--out", "pred.tsv"],
        ["eval", "--gold", "valid.tsv", "--pred", "pred.tsv", "--train", "train.tsv",
         "--out", "report.txt"],
        ["baseline", "--kind", "majority", "--input", "valid.tsv", "--train", "train.tsv",
         "--out", "majority.tsv"],
    ]
    source = ("from handover_ie import cli\n"
              f"for argv in {commands!r}:\n"
              "    assert cli.main(argv) == 0, argv\n")
    assert _scipy_left_by(source, cwd=tmp_path) == []
    assert (tmp_path / "report.txt").read_text(encoding="utf-8")


def test_the_first_encoder_forward_imports_scipy():
    source = """
from handover_ie.encoder import EncoderModel, ModelConfig, encode, embed
model = EncoderModel(ModelConfig(num_layers=1, hidden_size=4, num_heads=2, ffn_size=8,
                                 vocab_size=10, max_positions=8, num_labels=3))
assert 'scipy.special' not in sys.modules
encode(embed([1, 2, 3], model), model)
"""
    assert "scipy.special" in _scipy_left_by(source)


# one FFN sub-layer at each precision, run without a model; with "warm" the
# child imports scipy first and reports a second run of the block
FFN_BITS = """
import hashlib
from types import SimpleNamespace
import numpy as np
if sys.argv[1] == "warm":
    import scipy.special
from handover_ie import tensor as T
from handover_ie.encoder import LAYER_LAYOUT, ModelConfig, initial_value, parameter_layout

config = ModelConfig(num_layers=1, hidden_size=8, num_heads=2, ffn_size=16,
                     vocab_size=10, max_positions=8, num_labels=3)
rng = np.random.Generator(np.random.PCG64(5))
shapes = dict(parameter_layout(config))
digests = {}
for dtype in (np.float64, np.float32):
    layer = SimpleNamespace(**{attr: T.Parameter(
        initial_value(f"layer0.{name}", shapes[f"layer0.{name}"], rng).astype(dtype), name)
        for attr, name, _ in LAYER_LAYOUT})
    x = T.Tensor(rng.normal(0.0, 3.0, size=(6, 8)).astype(dtype))
    for _ in range(2 if sys.argv[1] == "warm" else 1):
        out = T.ffn_block(x, layer, None).data
    digests[str(out.dtype)] = hashlib.sha256(out.tobytes()).hexdigest()
print(json.dumps(digests))
"""


def test_ffn_block_without_a_model_gives_the_same_bits():
    fresh = _child(FFN_BITS, "fresh")
    assert set(fresh) == {"float64", "float32"}
    assert fresh == _child(FFN_BITS, "warm")
