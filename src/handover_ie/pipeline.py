"""Training loops, hyperparameter search, checkpoint bundles, prediction,
and the experiment that compares the encoder with the CRF and baselines.

A checkpoint directory is self-contained: weights, model and training
configuration, tokenizer files, and the label scheme, so prediction needs
nothing else. All randomness flows from the run seed, making checkpoints
and reports byte-identical across repeated runs.
"""
from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import crf as crf_mod
from . import encoder as enc
from . import tensor as T
from .corpus import (
    LabelScheme,
    RecordSet,
    dump_scheme,
    evaluated_classes,
    load_scheme,
    read_lines,
    read_text,
    validate_against_scheme,
)
from .encoder import CompatibilityError, EncoderModel, ModelConfig
from .evaluation import (
    baseline_majority,
    baseline_random,
    build_report,
    confusion_counts,
    emit_report,
    majority_label,
)
from .tokenizer import (
    MergeTable,
    TokenizedSequence,
    align_labels,
    encode as encode_words,
    read_table,
    save_table,
    train_bpe,
    word_frequencies,
)

SEED_ENV_VAR = "HANDOVER_IE_SEED"
MODEL_KINDS = ("encoder", "crf")
_TRAIN_LEAST = {"batch_size": 1, "epochs": 1, "seed": 0, "max_len": 3, "num_merges": 0,
                "feature_cutoff": 1}

# the most rows x ffn_size elements one packed group holds, in training and in
# inference alike: a group's activations grow with its rows, and an unrecorded
# group keeps no tape but still holds each layer's [rows, ffn_size] activation
# at once, so the same limit bounds it; at the 12x768 base shape a 128-token
# window (393,216) stays a group of one
PACK_ELEMENTS = 1 << 16

DEFAULT_GRID_LEARNING_RATES = (5e-5, 3e-5, 2e-5)
DEFAULT_GRID_BATCH_SIZES = (8, 16)
DEFAULT_GRID_EPOCHS = (3, 4, 5)


@dataclass(frozen=True, slots=True)
class TrainConfig:
    kind: str = "encoder"
    learning_rate: float = 3e-5
    batch_size: int = 8
    epochs: int = 3
    seed: int = 0
    max_len: int = 128
    pretrained: str = ""
    num_merges: int = 200
    lowercase: bool = False
    weight_decay: float = 0.0
    l2_lambda: float = 1.0
    max_iters: int = 100
    grad_tol: float = 1e-5
    feature_cutoff: int = 1

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"kind must be one of {MODEL_KINDS}")
        for key, least in _TRAIN_LEAST.items():
            if (value := getattr(self, key)) < least:
                raise ValueError(f"{key} must be >= {least}, got {value}")
        # a zero learning rate is allowed so a null-update run stays expressible
        for key in ("learning_rate", "weight_decay", "l2_lambda", "max_iters", "grad_tol"):
            value = getattr(self, key)
            if value < 0 or not math.isfinite(value):    # NaN and inf fail too
                raise ValueError(f"{key} must be >= 0 and finite")
        # config.txt holds one key=value line per key, and its reader strips each value
        if self.pretrained != self.pretrained.strip() or {"\n", "\r"} & set(self.pretrained):
            raise ValueError("pretrained must hold no line break and neither start nor end "
                             f"with whitespace, got {self.pretrained!r}")


_TRAIN_FIELD_TYPES = {f.name: f.type for f in fields(TrainConfig)}
_MODEL_FIELD_TYPES = {f.name: f.type for f in fields(ModelConfig)}
_REQUIRED_MODEL_KEYS = tuple(f.name for f in fields(ModelConfig) if f.default is MISSING)


def _convert(type_name: str, value: str):
    if type_name == "bool":
        if value in ("True", "true", "1"):
            return True
        if value in ("False", "false", "0"):
            return False
        raise ValueError(f"expected a boolean, got {value!r}")
    return {"int": int, "float": float, "str": str}[type_name](value)


def dump_config(*configs) -> str:
    """One key=value line per field of each config, in field order."""
    return "".join(f"{f.name}={getattr(c, f.name)}\n" for c in configs for f in fields(c))


def parse_config_text(text: str) -> tuple[dict, dict]:
    """Split a flat key=value file, each key at most once, into TrainConfig
    and ModelConfig kwargs."""
    train_kw: dict = {}
    model_kw: dict = {}
    for line_no, line in enumerate(read_lines(text), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected key=value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in train_kw or key in model_kw:
            raise ValueError(f"config line {line_no}: duplicate key {key!r}")
        if key in _TRAIN_FIELD_TYPES:
            kw, type_name = train_kw, _TRAIN_FIELD_TYPES[key]
        elif key in _MODEL_FIELD_TYPES:
            kw, type_name = model_kw, _MODEL_FIELD_TYPES[key]
        else:
            raise ValueError(f"config line {line_no}: unknown key {key!r}")
        try:
            kw[key] = _convert(type_name, value)
        except ValueError as err:
            raise ValueError(f"config line {line_no}: key {key!r}: {err}") from None
    return train_kw, model_kw


def build_model_config(model_kw: dict) -> ModelConfig:
    """ModelConfig from parsed model keys; a missing required key is a
    ValueError that names it."""
    missing = [key for key in _REQUIRED_MODEL_KEYS if key not in model_kw]
    if missing:
        raise ValueError(f"config lacks model key(s): {', '.join(missing)}")
    return ModelConfig(**model_kw)


def load_train_config(path: str) -> tuple[TrainConfig, dict]:
    """Read a config file; HANDOVER_IE_SEED overrides the configured seed."""
    train_kw, model_kw = parse_config_text(read_text(path))
    env = os.environ.get(SEED_ENV_VAR)
    if env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise ValueError(f"{SEED_ENV_VAR}: expected an integer, got {env!r}") from None
        if seed < (least := _TRAIN_LEAST["seed"]):
            raise ValueError(f"{SEED_ENV_VAR}: seed must be >= {least}, got {seed}")
        train_kw["seed"] = seed
    return TrainConfig(**train_kw), model_kw


def check_checkpoint(kind: str, config: TrainConfig, scheme: LabelScheme,
                     model_config: Optional[ModelConfig] = None,
                     table: Optional[MergeTable] = None) -> None:
    """Raise CompatibilityError unless every fact a checkpoint of this kind
    states twice agrees: the kind with the config's, and for the encoder
    the table's lowercasing with the config's, the model's vocab_size with
    the table's pieces and its num_labels with the scheme's labels."""
    # the saved config's kind is what loading reads the model back by
    if config.kind != kind:
        raise CompatibilityError(f"a checkpoint of kind {kind!r} got a config of kind "
                                 f"{config.kind!r}")
    if kind == "crf":
        return
    # the table's tokenizer.txt and the config's lowercase state it twice
    if table.lowercase != config.lowercase:
        raise CompatibilityError(f"a merge table with lowercase={table.lowercase} does not "
                                 f"match the config's lowercase={config.lowercase}")
    if model_config.vocab_size != len(table.pieces):
        raise CompatibilityError(f"model vocab_size {model_config.vocab_size} does not match "
                                 f"the {len(table.pieces)} pieces of the merge table")
    if model_config.num_labels != len(scheme.labels):
        raise CompatibilityError(f"model num_labels {model_config.num_labels} does not match "
                                 f"the {len(scheme.labels)} labels of the scheme")


# every file a checkpoint directory may hold; an encoder's is a tokenizer directory too
CHECKPOINT_FILES = frozenset({"config.txt", "labels.txt", "merges.txt", "vocab.txt",
                              "tokenizer.txt", "model.tarch", "crf_features.tsv",
                              "crf_weights.tarch"})


@dataclass
class Checkpoint:
    """Everything needed to predict: model + tokenizer + scheme + configs."""

    kind: str
    scheme: LabelScheme
    train_config: TrainConfig
    model_config: Optional[ModelConfig] = None
    model: Optional[EncoderModel] = None
    table: Optional[MergeTable] = None
    crf: Optional[crf_mod.CrfModel] = None

    def __post_init__(self) -> None:
        check_checkpoint(self.kind, self.train_config, self.scheme, self.model_config, self.table)

    def save(self, directory: str | Path) -> None:
        """Write every file into a sibling staging directory, then rename it
        into place: a save that fails leaves no partial checkpoint behind
        and keeps the checkpoint already at the target, if any.

        The target is replaced whole, so it may hold checkpoint files only,
        and it may not be the working directory.
        """
        target = Path(directory).resolve()
        if target.exists():
            if not target.is_dir():
                raise ValueError(f"{target} is not a directory")
            foreign = sorted(p.name for p in target.iterdir() if p.name not in CHECKPOINT_FILES)
            if foreign:
                raise ValueError(f"{target} holds files that are not part of a checkpoint: "
                                 + ", ".join(foreign))
            if target == Path.cwd():
                raise ValueError(f"{target} is the working directory")
        target.parent.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=f".{target.name}.", dir=target.parent))
        new, old = staging / "new", staging / "old"
        try:
            new.mkdir()
            self._write_files(new)
            if target.exists():
                target.rename(old)
            try:
                new.rename(target)
            except OSError:
                if old.exists():
                    old.rename(target)
                raise
        finally:
            # if the old checkpoint could not be moved back, it stays in staging
            if target.exists() or not old.exists():
                shutil.rmtree(staging)

    def _write_files(self, d: Path) -> None:
        configs = [c for c in (self.train_config, self.model_config) if c is not None]
        (d / "config.txt").write_text(dump_config(*configs), encoding="utf-8")
        (d / "labels.txt").write_text(dump_scheme(self.scheme), encoding="utf-8")
        if self.kind == "encoder":
            save_table(self.table, d)
            enc.save_model(self.model, str(d / "model.tarch"))
        else:
            crf_mod.save_crf(self.crf, str(d / "crf_features.tsv"), str(d / "crf_weights.tarch"))

    @classmethod
    def load(cls, directory: str | Path) -> "Checkpoint":
        d = Path(directory)
        train_kw, model_kw = parse_config_text(read_text(d / "config.txt"))
        train_config = TrainConfig(**train_kw)
        scheme = load_scheme(read_text(d / "labels.txt"))
        if train_config.kind == "encoder":
            model_config = build_model_config(model_kw)
            table = read_table(d)
            check_checkpoint("encoder", train_config, scheme, model_config, table)
            model = enc.load_model(model_config, str(d / "model.tarch"))
            return cls(
                kind="encoder", scheme=scheme, train_config=train_config,
                model_config=model_config, model=model, table=table,
            )
        crf = crf_mod.load_crf(str(d / "crf_features.tsv"), str(d / "crf_weights.tarch"), scheme)
        return cls(kind="crf", scheme=scheme, train_config=train_config, crf=crf)


class Adam:
    """Adam with bias correction and decoupled optional weight decay, over
    one flat store.

    Building it packs the parameters, one at a time, into one C-ordered
    buffer, `data`, and rebinds each `Parameter.data` to its view of it;
    each `Parameter.grad` is bound to its view of one zeroed buffer,
    `grad`. Every buffer takes the parameters' one dtype, so the model
    alone decides the precision; mixed dtypes are a ValueError. Backward
    adds into the gradient views, so a gradient under Adam is written
    into, never rebound: an array assigned to `p.grad` is one Adam does
    not see. `zero_grad` zeroes every gradient at once, and a parameter
    backward did not reach keeps a zero gradient.
    """

    b1, b2, eps = 0.9, 0.999, 1e-8
    BLOCK = 1 << 15     # elements updated per pass; keeps the temporaries in cache

    def __init__(self, params: Sequence[T.Parameter], lr: float, weight_decay: float):
        self.lr = lr
        self.weight_decay = weight_decay
        self.t = 0
        dtypes = {p.data.dtype for p in params}
        if len(dtypes) > 1:
            raise ValueError(f"parameters of mixed dtypes: {', '.join(sorted(map(str, dtypes)))}")
        dtype = dtypes.pop() if dtypes else np.float64
        size = sum(p.data.size for p in params)
        self.data = np.empty(size, dtype)
        self.grad = np.zeros(size, dtype)
        self.m = np.zeros(size, dtype)
        self.v = np.zeros(size, dtype)
        stop = size
        for p in reversed(params):
            # one parameter at a time, and newest first: the allocator returns
            # freed memory only from the top of its heap, so packing oldest first
            # would keep the whole unpacked model resident until the last one
            start = stop - p.data.size
            view = self.data[start:stop].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            p.grad = self.grad[start:stop].reshape(view.shape)
            stop = start
        self._tmp = np.empty((2, min(size, self.BLOCK)), dtype)

    def zero_grad(self) -> None:
        """Zero every parameter's gradient in place."""
        self.grad.fill(0.0)

    def step(self) -> None:
        self.t += 1
        b1, b2 = self.b1, self.b2
        c1, c2 = 1.0 - b1 ** self.t, 1.0 - b2 ** self.t
        for start in range(0, self.data.size, self.BLOCK):
            block = slice(start, start + self.BLOCK)
            p, g, m, v = self.data[block], self.grad[block], self.m[block], self.v[block]
            tmp, update = self._tmp[:, :p.size]
            # the ufuncs of m += (1 - b1) * g and v += (1 - b2) * g * g, in their
            # order, so the result is bit-equal to the per-parameter expressions
            m *= b1
            np.multiply(g, 1.0 - b1, out=tmp)
            m += tmp
            v *= b2
            np.multiply(g, 1.0 - b2, out=tmp)
            tmp *= g
            v += tmp
            # update = (m / c1) / (sqrt(v / c2) + eps) [+ weight_decay * p]
            np.divide(v, c2, out=tmp)
            np.sqrt(tmp, out=tmp)
            tmp += self.eps
            np.divide(m, c1, out=update)
            update /= tmp
            if self.weight_decay:
                np.multiply(p, self.weight_decay, out=tmp)
                update += tmp
            update *= self.lr
            p -= update


def _predict_encoder(model: EncoderModel, records: RecordSet,
                     windows: list[list[TokenizedSequence]]) -> RecordSet:
    """Label each record from its windows. The windows of all records, in
    order, run as the packed groups of _pack_groups, one unrecorded forward
    each; a word seen by several windows takes its label from the one where
    it sits farthest from an edge."""
    flat = [seq for seqs in windows for seq in seqs]
    lengths = [len(seq.token_ids) for seq in flat]
    tops: list[list[int]] = []   # per window, the argmax label of each position
    for group in _pack_groups(lengths, model.config.ffn_size):
        log_probs = enc.run_token_classifier(model, flat[group.start:group.stop])
        top = log_probs.data.argmax(axis=1).tolist()
        start = 0
        for t in lengths[group.start:group.stop]:
            tops.append(top[start:start + t])
            start += t
    window_tops = iter(tops)
    labels = []
    for rec, seqs in zip(records.records, windows):
        best: dict[int, tuple[int, int]] = {}   # word -> (distance, label)
        for seq in seqs:
            top = next(window_tops)
            lo, hi = seq.word_span
            for w, pos in seq.first_subtoken_of.items():
                dist = min(w - lo, hi - 1 - w)
                if w not in best or dist > best[w][0]:
                    best[w] = (dist, top[pos])
        labels.append([best[w][1] for w in range(len(rec.words))])
    return records.relabel(labels)


def validation_macro_f1(pred: RecordSet, gold: RecordSet, scheme: LabelScheme,
                        evaluated: frozenset[int]) -> float:
    counts = confusion_counts(gold, pred, scheme)
    return build_report(counts, scheme, evaluated).macro_f1


def _pack_groups(lengths: Sequence[int], ffn_size: int) -> list[range]:
    """Cut windows, in order, into consecutive groups of at most PACK_ELEMENTS
    rows x ffn_size; a window over the limit is a group of one, and no
    windows make no group."""
    groups: list[range] = []
    first = rows = 0
    for i, t in enumerate(lengths):
        if i > first and (rows + t) * ffn_size > PACK_ELEMENTS:
            groups.append(range(first, i))
            first, rows = i, 0
        rows += t
    if lengths:
        groups.append(range(first, len(lengths)))
    return groups


def _batch_gradient(model: EncoderModel, batch: Sequence[tuple[TokenizedSequence, list[int]]],
                    rng: np.random.Generator) -> float:
    """Add the gradient of the batch's mean window loss into every parameter's
    grad, one recorded forward and one backward per packed group; return the
    sum of the window losses. A group whose loss is not finite ends the
    batch before its backward, and its loss is returned."""
    total = 0.0
    for group in _pack_groups([len(seq.token_ids) for seq, _ in batch],
                              model.config.ffn_size):
        with T.recording():
            log_probs = enc.run_token_classifier(model, [batch[i][0] for i in group], rng=rng)
            loss = enc.token_loss(log_probs, [lab for i in group for lab in batch[i][1]],
                                  [len(batch[i][1]) for i in group])
            total += float(loss.data)
            if not math.isfinite(total):
                return total
            T.backward(loss, seed=1.0 / len(batch))
    return total


def fine_tune(
    train: RecordSet,
    valid: RecordSet,
    scheme: LabelScheme,
    table: MergeTable,
    config: TrainConfig,
    model_config: ModelConfig,
) -> tuple[Checkpoint, list[dict]]:
    """Mini-batch Adam on the token cross-entropy; keeps the epoch with the
    best validation macro F1. Deterministic for a fixed seed."""
    check_checkpoint("encoder", config, scheme, model_config, table)
    if not train.records or not valid.records:
        raise ValueError("train and validation sets must be nonempty")

    if config.pretrained:
        model = enc.load_model(model_config, config.pretrained)
    else:
        model = EncoderModel(model_config, seed=config.seed)
    rng = np.random.Generator(np.random.PCG64(config.seed + 1))
    optimizer = Adam(model.parameters(), lr=config.learning_rate,
                     weight_decay=config.weight_decay)
    # every record is encoded here once; the epochs reuse its windows
    examples = [(seq, align_labels(seq, rec.labels))
                for rec in train.records
                for seq in encode_words(rec.words, table, config.max_len)]
    valid_windows = [encode_words(rec.words, table, config.max_len) for rec in valid.records]
    evaluated = evaluated_classes(train, scheme)

    # macro F1 is never below 0, so the first epoch always fills best_state
    best_f1 = -1.0
    best_state = np.empty_like(optimizer.data)
    metrics: list[dict] = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(examples))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            optimizer.zero_grad()
            loss = _batch_gradient(model, [examples[j] for j in
                                          order[start:start + config.batch_size]], rng)
            if not math.isfinite(loss):
                raise T.TrainingDivergence(f"non-finite loss at epoch {epoch}, batch start {start}")
            epoch_loss += loss
            optimizer.step()
        val_pred = _predict_encoder(model, valid, valid_windows)
        val_f1 = validation_macro_f1(val_pred, valid, scheme, evaluated)
        metrics.append({
            "epoch": epoch,
            "train_loss": epoch_loss / max(len(examples), 1),
            "val_macro_f1": val_f1,
        })
        if val_f1 > best_f1:
            best_f1 = val_f1
            np.copyto(best_state, optimizer.data)
    np.copyto(optimizer.data, best_state)
    # the model keeps its views of the weights and drops those of the gradients
    T.zero_grad(model.parameters())
    checkpoint = Checkpoint(
        kind="encoder", scheme=scheme, train_config=config,
        model_config=model_config, model=model, table=table,
    )
    return checkpoint, metrics


def train_crf(
    train: RecordSet,
    valid: RecordSet,
    scheme: LabelScheme,
    config: TrainConfig,
) -> tuple[Checkpoint, list[dict]]:
    """Quasi-Newton CRF fit; validation macro F1 and whether L-BFGS
    converged are reported once at the end."""
    check_checkpoint("crf", config, scheme)
    if config.pretrained:
        raise CompatibilityError(f"the CRF starts from no weights, got pretrained="
                                 f"{config.pretrained!r}")
    model = crf_mod.CrfModel.build(train, scheme, config.feature_cutoff)
    fitted, history, converged = crf_mod.train(
        model, train, config.l2_lambda, config.max_iters, config.grad_tol)
    checkpoint = Checkpoint(kind="crf", scheme=scheme, train_config=config, crf=fitted)
    metrics = [{"epoch": 0, "train_loss": history[-1], "val_macro_f1": None,
                "converged": converged}]
    if valid.records:
        pred = predict(checkpoint, valid)
        metrics[0]["val_macro_f1"] = validation_macro_f1(
            pred, valid, scheme, evaluated_classes(train, scheme)
        )
    return checkpoint, metrics


def fit_tokenizer(records: RecordSet, num_merges: int, lowercase: bool) -> MergeTable:
    """BPE merge table learned from the words of one split."""
    freqs = word_frequencies(r.words for r in records.records)
    return train_bpe(freqs, num_merges, lowercase=lowercase)


def derive_model_config(model_kw: dict, table: MergeTable, scheme: LabelScheme,
                        config: TrainConfig) -> ModelConfig:
    """ModelConfig from shape keys plus the fields the data decides: the
    vocabulary size, the label count, and room for max_len positions."""
    return build_model_config({
        **model_kw,
        "vocab_size": len(table.pieces),
        "num_labels": len(scheme.labels),
        "max_positions": max(model_kw.get("max_positions", 0), config.max_len),
    })


def train_model(
    train: RecordSet,
    valid: RecordSet,
    scheme: LabelScheme,
    config: TrainConfig,
    model_config: Optional[ModelConfig],
    table: Optional[MergeTable],
) -> tuple[Checkpoint, list[dict]]:
    """Fit the kind config names; model_config and table serve the encoder."""
    if config.kind == "encoder":
        return fine_tune(train, valid, scheme, table, config, model_config)
    return train_crf(train, valid, scheme, config)


def predict(checkpoint: Checkpoint, records: RecordSet) -> RecordSet:
    """Label records word-for-word; inference is dropout-free."""
    validate_against_scheme(records, checkpoint.scheme)
    if checkpoint.kind == "encoder":
        max_len = checkpoint.train_config.max_len
        windows = [encode_words(rec.words, checkpoint.table, max_len) for rec in records.records]
        return _predict_encoder(checkpoint.model, records, windows)
    return records.relabel(
        crf_mod.predict_labels(checkpoint.crf, (r.words for r in records.records)))


def grid_search(
    grid: Sequence[TrainConfig],
    train: RecordSet,
    valid: RecordSet,
    scheme: LabelScheme,
    model_config: Optional[ModelConfig],
    table: Optional[MergeTable],
) -> tuple[TrainConfig, list[dict]]:
    """Evaluate every config; ties go to smaller learning rate, then epochs.

    Configs that differ only in epochs share one run at their largest
    epoch count: training reads epochs only as its loop bound, so a
    config's epochs are the first rows of that run's metrics.
    """
    if not grid:
        raise ValueError("empty hyperparameter grid")
    # the config text tells 0.0 from -0.0, which == and hash do not
    keys = [dump_config(replace(config, epochs=1)) for config in grid]
    longest: dict[str, TrainConfig] = {}
    for key, config in zip(keys, grid):
        if key not in longest or config.epochs > longest[key].epochs:
            longest[key] = config
    runs: dict[str, list[dict]] = {}
    rows = []
    for i, (key, config) in enumerate(zip(keys, grid)):
        if key not in runs:
            _, runs[key] = train_model(train, valid, scheme, longest[key], model_config, table)
        best = max((m["val_macro_f1"] or 0.0) for m in runs[key][:config.epochs])
        rows.append({"config": config, "val_macro_f1": best, "order": i})
    rows.sort(key=lambda r: (-r["val_macro_f1"], r["config"].learning_rate,
                             r["config"].epochs, r["order"]))
    leaderboard = [{"config": r["config"], "val_macro_f1": r["val_macro_f1"]} for r in rows]
    return rows[0]["config"], leaderboard


def default_grid(base: TrainConfig) -> list[TrainConfig]:
    return [
        replace(base, learning_rate=lr, batch_size=bs, epochs=ep)
        for lr in DEFAULT_GRID_LEARNING_RATES
        for bs in DEFAULT_GRID_BATCH_SIZES
        for ep in DEFAULT_GRID_EPOCHS
    ]


def run_experiment(
    train: RecordSet,
    valid: RecordSet,
    test: RecordSet,
    scheme: LabelScheme,
    base: TrainConfig,
    model_kw: dict,
    grid: Sequence[TrainConfig],
    workdir: str | Path,
) -> list[dict]:
    """The method comparison: the fine-tuned encoder (its config picked by a
    grid search when a grid is given), the CRF, and the random and majority
    baselines, each scored on the test split.

    Writes both checkpoints, a JSON and a text report per method,
    leaderboard.json, and grid_leaderboard.json when a grid ran; returns the
    leaderboard rows, best macro F1 first.
    """
    work = Path(workdir)
    work.mkdir(parents=True, exist_ok=True)
    table = fit_tokenizer(train, base.num_merges, base.lowercase)
    model_config = derive_model_config(model_kw, table, scheme, base)
    best = base
    if grid:
        best, board = grid_search(grid, train, valid, scheme, model_config, table)
        (work / "grid_leaderboard.json").write_text(json.dumps(
            [{"learning_rate": r["config"].learning_rate,
              "batch_size": r["config"].batch_size,
              "epochs": r["config"].epochs,
              "val_macro_f1": r["val_macro_f1"]} for r in board],
            indent=2) + "\n", encoding="utf-8")
    enc_ckpt, _ = fine_tune(train, valid, scheme, table, best, model_config)
    crf_ckpt, _ = train_crf(train, valid, scheme, replace(base, kind="crf", pretrained=""))
    evaluated = evaluated_classes(train, scheme)
    predictions = {
        "encoder": predict(enc_ckpt, test),
        "crf": predict(crf_ckpt, test),
        "random": baseline_random(test, base.seed, evaluated),
        "majority": baseline_majority(test, majority_label(train, scheme)),
    }
    enc_ckpt.save(work / "encoder_checkpoint")
    crf_ckpt.save(work / "crf_checkpoint")
    leaderboard = []
    for method, pred in predictions.items():
        counts = confusion_counts(test, pred, scheme)
        report = build_report(counts, scheme, evaluated)
        for fmt, suffix in (("json", "json"), ("table", "txt")):
            (work / f"report_{method}.{suffix}").write_text(
                emit_report(report, counts, fmt, scheme), encoding="utf-8")
        leaderboard.append({
            "method": method,
            "macro_precision": report.macro_precision,
            "macro_recall": report.macro_recall,
            "macro_f1": report.macro_f1,
        })
    leaderboard.sort(key=lambda row: -row["macro_f1"])
    (work / "leaderboard.json").write_text(
        json.dumps(leaderboard, indent=2) + "\n", encoding="utf-8")
    return leaderboard


def leaderboard_text(rows: Sequence[dict]) -> str:
    """One line of macro P/R/F1 per leaderboard row."""
    return "".join(f"{r['method']:<10} macro P {r['macro_precision']:.4f}  "
                   f"macro R {r['macro_recall']:.4f}  macro F1 {r['macro_f1']:.4f}\n"
                   for r in rows)
