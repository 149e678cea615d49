"""Which handover_ie calls the traced run wraps, and the per-layer metrics
derived from their spans.

Each per-layer figure is the layer's cost in one set-up plus one round:
set-up spans are averaged over the set-up repetitions and round spans over
the traced rounds. ``cli`` is not wrapped; it parses arguments and calls
the same ``pipeline`` functions.
"""
from __future__ import annotations

from handover_ie import corpus, crf, encoder, evaluation, pipeline, tensor, tokenizer

from .tracing import PhaseTotals, Tracer

MODULES = ("corpus", "tokenizer", "tensor", "encoder", "crf", "evaluation", "pipeline")

# primitives that record one tape node per call
TAPE_PRIMITIVES = (
    "add", "mul", "scale", "matmul", "embedding_lookup", "softmax_rows",
    "log_softmax_rows", "layer_norm", "gelu", "reshape", "transpose", "masked_nll",
)

_SPANS = (
    (corpus, ("parse_records", "evaluated_classes")),
    (tokenizer, ("word_frequencies", "train_bpe", "encode")),
    (tensor, TAPE_PRIMITIVES + ("backward", "zero_grad", "load_archive", "save_archive")),
    (encoder, ("run_token_classifier", "load_model", "save_model")),
    (encoder.EncoderModel, ("__init__",)),
    (crf, ("train", "nll_and_grad", "minimize_lbfgs", "predict_labels", "viterbi")),
    (crf.CrfModel, ("build", "scores")),
    (evaluation, ("confusion_counts", "build_report")),
    (pipeline, ("grid_search", "train_model", "fine_tune", "train_crf", "predict",
                "_predict_encoder", "validation_macro_f1")),
    (pipeline.Adam, ("step",)),
    (pipeline.Checkpoint, ("save", "load")),
)


def _span_name(owner, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attr}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


def _on_lbfgs(tracer: Tracer, result) -> None:
    # minimize_lbfgs returns (x, accepted losses, converged); crf.train drops the flag
    _, history, converged = result
    tracer.counters[tracer.phase]["crf.lbfgs_iters"] += len(history) - 1
    tracer.counters[tracer.phase]["crf.lbfgs_converged"] += int(converged)


def _on_fine_tune(tracer: Tracer, result) -> None:
    _, metrics = result
    tracer.counters[tracer.phase]["pipeline.epochs"] += len(metrics)


_ON_RETURN = {"pipeline.fine_tune": _on_fine_tune, "crf.minimize_lbfgs": _on_lbfgs}


def install_probes(tracer: Tracer) -> None:
    for owner, attrs in _SPANS:
        for attr in attrs:
            name = _span_name(owner, attr)
            tracer.patch(owner, attr,
                         lambda fn, name=name: tracer.span_wrapper(name, fn, _ON_RETURN.get(name)))
    tracer.patch(tokenizer, "segment_word",
                 lambda fn: tracer.word_counter("tokenizer.segment_word", fn))


def layer_metrics(setup: PhaseTotals, n_setup: int, rounds: PhaseTotals, n_rounds: int) -> dict:
    """Per-layer figures for one set-up plus one round."""

    def per(get) -> float:
        return get(setup) / max(n_setup, 1) + get(rounds) / max(n_rounds, 1)

    def total(*names):
        return per(lambda t: sum(t.total[n] for n in names))

    def calls(*names):
        return per(lambda t: sum(t.calls[n] for n in names))

    def counter(name):
        return per(lambda t: t.counters[name])

    def module_self(module):
        return per(lambda t: sum(v for n, v in t.self_s.items() if n.split(".")[0] == module))

    def validation(t: PhaseTotals) -> float:
        inner = ("pipeline._predict_encoder", "pipeline.predict", "pipeline.validation_macro_f1")
        outer = ("pipeline.fine_tune", "pipeline.train_crf")
        return sum(t.under[(i, o)] for i in inner for o in outer)

    segment_calls = counter("tokenizer.segment_word")
    distinct = setup.distinct_words + rounds.distinct_words
    out = {
        "tokenizer.train_bpe_s": total("tokenizer.train_bpe"),
        "tokenizer.encode_s": total("tokenizer.encode"),
        "tokenizer.encode_calls": calls("tokenizer.encode"),
        "tokenizer.segment_word_calls": segment_calls,
        "tokenizer.distinct_word_share": distinct / segment_calls if segment_calls else 0.0,
        "tensor.primitive_calls": calls(*(f"tensor.{p}" for p in TAPE_PRIMITIVES)),
        "tensor.backward_s": total("tensor.backward"),
        "tensor.backward_calls": calls("tensor.backward"),
        "tensor.matmul_s": total("tensor.matmul"),
        "tensor.softmax_rows_s": total("tensor.softmax_rows"),
        "tensor.layer_norm_s": total("tensor.layer_norm"),
        "tensor.gelu_s": total("tensor.gelu"),
        "tensor.load_archive_s": total("tensor.load_archive"),
        "tensor.save_archive_s": total("tensor.save_archive"),
        "encoder.model_init_s": total("encoder.EncoderModel.__init__"),
        "encoder.forward_s": total("encoder.run_token_classifier"),
        "encoder.forward_windows": calls("encoder.run_token_classifier"),
        "pipeline.checkpoint_load_s": total("pipeline.Checkpoint.load"),
        "pipeline.checkpoint_save_s": total("pipeline.Checkpoint.save"),
        "pipeline.adam_step_s": total("pipeline.Adam.step"),
        "pipeline.adam_steps": calls("pipeline.Adam.step"),
        "pipeline.epochs_run": counter("pipeline.epochs"),
        "pipeline.validation_s": per(validation),
        "crf.build_s": total("crf.CrfModel.build"),
        "crf.objective_s": total("crf.nll_and_grad"),
        "crf.objective_calls": calls("crf.nll_and_grad"),
        "crf.lbfgs_iters": counter("crf.lbfgs_iters"),
        "crf.lbfgs_converged": counter("crf.lbfgs_converged"),
        "crf.lbfgs_self_s": per(lambda t: t.self_s["crf.minimize_lbfgs"]),
        "crf.scores_s": total("crf.CrfModel.scores"),
        "crf.viterbi_s": total("crf.viterbi"),
        "corpus.parse_s": total("corpus.parse_records"),
        "evaluation.report_s": total("evaluation.confusion_counts", "evaluation.build_report"),
    }
    for module in MODULES:
        out[f"{module}.self_s"] = module_self(module)
    return out
