"""The three benchmark workloads and the output checks they run.

Every workload is a closed loop driven by one thread: it sets up
``setup_reps`` times, then runs rounds, each of which starts after the
previous one ends, until the measuring time is spent. A round repeats the
same protocol on the same inputs, so every round must reproduce the first
round's predictions exactly; a prediction that differs counts as a failed
operation. An operation is one training call or one ``predict`` call.
"""
from __future__ import annotations

import gc
import hashlib
import math
import os
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

from handover_ie import corpus, evaluation, pipeline, tokenizer
from handover_ie.corpus import RecordSet
from handover_ie.encoder import ModelConfig

from .hostspeed import HostSpeed
from .inputs import InputBuilder, input_stats
from .layers import install_probes
from .tracing import ROUND, Tracer

clock = time.perf_counter
ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
NOTE_WORDS = 16  # words per training-workload note; fixed so work does not vary by seed
CRF_ITERS = 40  # L-BFGS iterations of one crf-fit fit


class OpFailed(RuntimeError):
    """An operation raised; the round cannot go on."""


@dataclass
class Ops:
    attempted: int = 0
    failed: int = 0
    last: tuple[float, float] = (0.0, 0.0)  # clock() at the start and end of the last
                                            # operation, its check excluded

    def run(self, fn: Callable, *args, check: Optional[Callable] = None):
        """Run one operation; a raised error or a failed check counts as failed."""
        self.attempted += 1
        try:
            t0 = clock()
            out = fn(*args)
            self.last = (t0, clock())
        except Exception as exc:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise OpFailed(str(exc)) from exc
        problem = check(out) if check is not None else None
        if problem:
            self.failed += 1
            print(f"check failed: {problem}", file=sys.stderr)
        return out


Interval = tuple[float, float]  # clock() at start and end


@dataclass
class RoundResult:
    train: list[Interval] = field(default_factory=list)
    notes: list[Interval] = field(default_factory=list)  # one predict call each
    words: int = 0
    macro_f1: float = 0.0
    digest: str = ""


def _read(path: Path, scheme, split: str) -> RecordSet:
    # as the CLI reads a TSV file
    with open(path, encoding="utf-8") as fh:
        rs, _ = corpus.parse_records(fh, scheme=scheme, split=split)
    return rs


def _prediction_problem(gold, pred: RecordSet, n_labels: int) -> Optional[str]:
    if len(pred.records) != 1:
        return f"{gold.id}: {len(pred.records)} records predicted for one note"
    p = pred.records[0]
    if p.id != gold.id or p.words != gold.words:
        return f"{gold.id}: prediction carries id {p.id!r} or different words"
    if len(p.labels) != len(gold.words):
        return f"{gold.id}: {len(p.labels)} labels for {len(gold.words)} words"
    if any(not 0 <= lab < n_labels for lab in p.labels):
        return f"{gold.id}: label id outside the scheme"
    return None


class Workload:
    """Set-up and round protocol shared by the workloads."""

    setup_reps = 5
    setup_in_child = True  # set-up runs in a child process
    predict_reference = "python"  # the host-speed burst that predict calls track

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        if tiny:
            self.setup_reps = 1
        self.workdir = workdir
        self.scheme = corpus.default_synthetic_scheme()
        self.builder = InputBuilder(self.scheme, seed)
        self.train: list[Interval] = []  # training measured outside rounds
        self._first_labels: dict[str, tuple[int, ...]] = {}

    def _write(self, name: str, rs: RecordSet) -> Path:
        path = self.workdir / f"{name}.tsv"
        path.write_text(corpus.serialize_records(rs, self.scheme), encoding="utf-8")
        return path

    def _write_splits(self, counts: tuple[int, int, int]) -> dict[str, Path]:
        """Train, validation and test TSV files of NOTE_WORDS-word notes."""
        return {split: self._write(split, self.builder.notes(split, [NOTE_WORDS] * n))
                for split, n in zip(("train", "validation", "test"), counts)}

    def stats(self) -> dict:
        raise NotImplementedError

    def prepare(self, ops: Ops) -> None:
        """Work done once before set-up, outside every timing but train_s."""

    def setup(self) -> None:
        """Start a fresh interpreter that imports the CLI, as `handover-ie train` starts.

        The training workloads do nothing else before their first training
        call but read their TSV files, which each round does itself.
        """
        # no timeout: Popen.wait(timeout) polls, which rounds the time up to 50 ms steps
        subprocess.run([sys.executable, "-c", "import handover_ie.cli"], cwd=SRC, check=True)

    def _read_splits(self) -> None:
        """Read the train, validation and test TSV files, as the CLI does."""
        self.sets = {split: _read(path, self.scheme, split) for split, path in self.paths.items()}
        self.evaluated = corpus.evaluated_classes(self.sets["train"], self.scheme)

    def round(self, ops: Ops) -> RoundResult:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def _predict_notes(self, ops: Ops, checkpoint, test: RecordSet, evaluated,
                       result: RoundResult) -> None:
        """Label one note per predict call, check each, then score the lot."""
        n_labels = len(self.scheme.labels)
        predicted = []
        for note in test.records:
            one = RecordSet(split="test", records=(note,))
            first = self._first_labels.get(note.id)

            def check(pred, note=note, first=first):
                problem = _prediction_problem(note, pred, n_labels)
                if problem is None and first is not None and pred.records[0].labels != first:
                    problem = f"{note.id}: labels differ from the first round"
                return problem

            pred = ops.run(pipeline.predict, checkpoint, one, check=check)
            result.notes.append(ops.last)
            result.words += len(note.words)
            self._first_labels.setdefault(note.id, pred.records[0].labels)
            predicted.append(pred.records[0])
        pred_set = RecordSet(split="test", records=tuple(predicted))
        counts = evaluation.confusion_counts(test, pred_set, self.scheme)
        result.macro_f1 = evaluation.build_report(counts, self.scheme, evaluated).macro_f1
        h = hashlib.sha256()
        for rec in predicted:
            h.update(f"{rec.id}\t{','.join(map(str, rec.labels))}\n".encode())
        result.digest = h.hexdigest()


def _windows(rs: RecordSet, table, max_len: int) -> list[int]:
    return [len(tokenizer.encode(r.words, table, max_len)) for r in rs.records]


# --- grid-tiny -------------------------------------------------------------------

@dataclass(frozen=True)
class GridSize:
    notes: tuple[int, int, int]           # train, validation, test
    learning_rates: tuple[float, ...]
    batch_sizes: tuple[int, ...]
    epochs: tuple[int, ...]
    num_merges: int
    shape: tuple[int, int, int, int]      # layers, hidden, heads, ffn
    max_len: int


class GridTiny(Workload):
    """train_bpe, grid search, final fine-tune, predict, evaluate; 2x32 encoder."""

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__(seed, tiny, workdir)
        self.size = (GridSize((6, 3, 4), (1e-2,), (4,), (1,), 20, (1, 8, 2, 16), 32) if tiny else
                     GridSize((40, 20, 100), (3e-3, 1e-2), (4, 8), (2, 3), 100,
                              (2, 32, 2, 64), 64))
        self.paths = self._write_splits(self.size.notes)

    def stats(self) -> dict:
        table = tokenizer.train_bpe(
            tokenizer.word_frequencies(r.words for r in self.sets["train"].records),
            self.size.num_merges)
        windows = _windows(self.sets["test"], table, self.size.max_len)
        return {**input_stats(*self.sets.values()),
                "test_windows_per_note": sum(windows) / len(windows)}

    def round(self, ops: Ops) -> RoundResult:
        self._read_splits()
        train, valid, test = self.sets["train"], self.sets["validation"], self.sets["test"]
        size = self.size
        result = RoundResult()
        t0 = clock()
        freqs = tokenizer.word_frequencies(r.words for r in train.records)
        table = ops.run(tokenizer.train_bpe, freqs, size.num_merges,
                        check=lambda t: None if len(t.merges) <= size.num_merges
                        else "too many merges")
        layers, hidden, heads, ffn = size.shape
        model_config = ModelConfig(layers, hidden, heads, ffn, len(table.pieces),
                                   size.max_len, len(self.scheme.labels))
        base = pipeline.TrainConfig(kind="encoder", seed=self.seed, max_len=size.max_len,
                                    num_merges=size.num_merges)
        grid = [replace(base, learning_rate=lr, batch_size=bs, epochs=ep)
                for lr in size.learning_rates for bs in size.batch_sizes for ep in size.epochs]

        def check_grid(out):
            best, board = out
            if best not in grid or len(board) != len(grid):
                return "grid search returned a config outside the grid or a short leaderboard"
            if any(not 0.0 <= row["val_macro_f1"] <= 1.0 for row in board):
                return "validation macro F1 outside [0, 1]"
            return None

        best, _ = ops.run(pipeline.grid_search, grid, train, valid, self.scheme,
                          model_config, table, check=check_grid)

        def check_fit(out):
            _, metrics = out
            if len(metrics) != best.epochs or not all(
                    math.isfinite(m["train_loss"]) for m in metrics):
                return "fine_tune returned missing or non-finite epoch losses"
            return None

        checkpoint, _ = ops.run(pipeline.fine_tune, train, valid, self.scheme, table, best,
                                model_config, check=check_fit)
        result.train.append((t0, clock()))
        self._predict_notes(ops, checkpoint, test, self.evaluated, result)
        return result


# --- crf-fit -----------------------------------------------------------------------

class CrfFit(Workload):
    """train_crf (CrfModel.build + L-BFGS), checkpoint save and load, predict, evaluate."""

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__(seed, tiny, workdir)
        # below the 56-63 iterations L-BFGS needs to converge on these inputs,
        # so every seed runs the same number of iterations
        self.max_iters = 5 if tiny else CRF_ITERS
        self.paths = self._write_splits((8, 3, 4) if tiny else (80, 20, 2000))

    def stats(self) -> dict:
        return input_stats(*self.sets.values())

    def round(self, ops: Ops) -> RoundResult:
        self._read_splits()
        train, valid, test = self.sets["train"], self.sets["validation"], self.sets["test"]
        result = RoundResult()
        config = pipeline.TrainConfig(kind="crf", seed=self.seed, max_iters=self.max_iters)

        def check_fit(out):
            ckpt, metrics = out
            f1 = metrics[0]["val_macro_f1"]
            if not math.isfinite(metrics[0]["train_loss"]) or not 0.0 <= f1 <= 1.0:
                return "train_crf returned a non-finite loss or an invalid validation F1"
            if not all(math.isfinite(w) for w in ckpt.crf.weights):
                return "train_crf returned non-finite weights"
            return None

        t0 = clock()
        checkpoint, _ = ops.run(pipeline.train_crf, train, valid, self.scheme, config,
                                check=check_fit)
        result.train.append((t0, clock()))
        ckpt_dir = self.workdir / "crf_checkpoint"
        checkpoint.save(ckpt_dir)
        loaded = pipeline.Checkpoint.load(ckpt_dir)
        if (loaded.crf.index.obs != checkpoint.crf.index.obs
                or not (loaded.crf.weights == checkpoint.crf.weights).all()):
            ops.failed += 1
            print("check failed: CRF checkpoint changed in a save/load round trip",
                  file=sys.stderr)
        self._predict_notes(ops, loaded, test, self.evaluated, result)
        return result


# --- label-base -----------------------------------------------------------------------

@dataclass(frozen=True)
class LabelSize:
    corpus_records: int
    num_merges: int
    probe_words: int
    shape: tuple[int, int, int, int]
    max_len: int
    note_windows: tuple[int, ...]


class LabelBase(Workload):
    """Serve a 12x768 checkpoint: Checkpoint.load, then one predict per note.

    The encoder weights are seeded, not trained: one fine-tuning epoch at
    this shape needs more memory than the benchmark may take. The classifier
    head is a linear probe fitted in closed form (see fixture.py). The
    tokenizer fit is this workload's only training, so its train_s. The
    checkpoint build runs in a child process, so its memory is not counted
    in peak_rss_mb, and it happens before set-up, so not in setup_s either;
    its raw time is in the input statistics.
    """

    setup_reps = 3
    setup_in_child = False
    predict_reference = "blas"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        super().__init__(seed, tiny, workdir)
        self.size = (LabelSize(20, 40, 100, (2, 16, 2, 32), 48, (1, 2, 3)) if tiny else
                     LabelSize(400, 400, 500, (12, 768, 12, 3072), 128, (1, 2, 2, 2, 3)))
        self.corpus = self.builder.records(self.size.corpus_records, "train")
        self.freqs = tokenizer.word_frequencies(r.words for r in self.corpus.records)
        self.fits = 1 if tiny else 7  # timed tokenizer fits, for a median train_s
        # the fixture is built before anything is timed or sampled
        self.table = tokenizer.train_bpe(self.freqs, self.size.num_merges)
        self.ckpt_dir = self.workdir / "checkpoint"
        t0 = clock()
        self._build_checkpoint()
        self.build_s = clock() - t0
        cap = self.size.max_len - 2
        step = cap - cap // 4
        targets = [int(0.7 * cap) if k == 1 else int(cap + (k - 1.5) * step)
                   for k in self.size.note_windows]

        def pieces(word: str) -> int:
            return len(tokenizer.segment_word(word, self.table))

        self.notes_path = self._write("notes", self.builder.notes("test", targets, pieces))

    def _build_checkpoint(self) -> None:
        tok_dir = self.workdir / "tokenizer"
        tok_dir.mkdir(exist_ok=True)
        (tok_dir / "merges.txt").write_text(tokenizer.dump_merges(self.table), encoding="utf-8")
        (tok_dir / "vocab.txt").write_text(tokenizer.dump_vocab(self.table), encoding="utf-8")
        layers, hidden, heads, ffn = self.size.shape
        subprocess.run(
            [sys.executable, "-m", "perfbench.fixture", "--tokenizer", str(tok_dir),
             "--probe", str(self._write("probe", self.corpus)),
             "--probe-words", str(self.size.probe_words), "--out", str(self.ckpt_dir),
             "--seed", str(self.seed),
             "--shape", f"{layers},{hidden},{heads},{ffn}", "--max-len", str(self.size.max_len)],
            cwd=ROOT, check=True, timeout=170,
        )

    def prepare(self, ops: Ops) -> None:
        """Fit the tokenizer `fits` times again, each fit timed as train_s."""

        def check(table):
            return None if table == self.table else "a repeated tokenizer fit gave another table"

        for _ in range(self.fits):
            ops.run(tokenizer.train_bpe, self.freqs, self.size.num_merges, check=check)
            self.train.append(ops.last)

    def setup(self) -> None:
        self.checkpoint = None  # free the previous load before the next
        ckpt = pipeline.Checkpoint.load(self.ckpt_dir)
        if ckpt.table != self.table or ckpt.model_config.num_layers != self.size.shape[0]:
            raise RuntimeError("loaded checkpoint does not match the fixture")
        self.checkpoint = ckpt
        self.notes = _read(self.notes_path, ckpt.scheme, "test")
        self.evaluated = corpus.evaluated_classes(self.corpus, self.scheme)

    def stats(self) -> dict:
        return {**input_stats(self.notes),
                "windows_per_note": _windows(self.notes, self.table, self.size.max_len),
                "fixture_build_s_raw": self.build_s}

    def round(self, ops: Ops) -> RoundResult:
        result = RoundResult()
        self._predict_notes(ops, self.checkpoint, self.notes, self.evaluated, result)
        return result

    def close(self) -> None:
        self.checkpoint = None


WORKLOADS = {"grid-tiny": GridTiny, "crf-fit": CrfFit, "label-base": LabelBase}


def measure(workload: Workload, ops: Ops, seconds: float, tracer: Optional[Tracer],
            meter: Optional[HostSpeed]) -> dict:
    """Set up setup_reps times, then run rounds until `seconds` have passed.

    The meter, if given, samples the host's speed from before the workload's
    preparation to the end of the last round. A traced run alternates
    untraced and traced rounds, starting untraced, and runs at least one of
    each; their median times give the overhead.
    """
    cores = os.sched_getaffinity(0)
    if meter is not None:
        meter.sample()  # one sample at each end, however short the run
        meter.start()
    try:
        # The host's cores change speed independently of each other. Keeping
        # this thread, its timer bursts and its set-up children on one core
        # makes the bursts sample the core the work runs on. BLAS threads,
        # started when numpy was imported, stay unpinned.
        os.sched_setaffinity(0, {min(cores)})
        workload.prepare(ops)
        if tracer is not None:
            install_probes(tracer)
            tracer.install()
        setups = []
        for _ in range(workload.setup_reps):
            gc.collect()
            with (meter.around_child() if meter is not None and workload.setup_in_child
                  else nullcontext()):
                t0 = clock()
                workload.setup()
                setups.append((t0, clock()))

        rounds, untraced, traced = [], [], []
        start = clock()
        while True:
            traced_round = tracer is not None and len(rounds) % 2 == 1
            if tracer is not None:
                if traced_round:
                    tracer.phase = ROUND
                    tracer.install()
                else:
                    tracer.uninstall()
            gc.collect()
            t0 = clock()
            rounds.append(workload.round(ops))
            (traced if traced_round else untraced).append(clock() - t0)
            if clock() - start >= seconds and (tracer is None or traced):
                break
        if tracer is not None:
            tracer.uninstall()
    finally:
        if meter is not None:
            meter.stop()
            meter.sample()
        os.sched_setaffinity(0, cores)
    return {"setups": setups, "rounds": rounds,
            "untraced_round_s": untraced, "traced_round_s": traced}
