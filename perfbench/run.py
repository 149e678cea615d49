#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid-tiny --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end metrics of BENCHMARK.json, their times scaled to a nominal host
speed measured alongside them (hostspeed.py); with --trace 1 they are its
per-layer metrics, from a run in which calls into handover_ie are wrapped
in spans. The line before it holds the run's metadata: machine, versions,
BLAS thread cap, input statistics and a digest of the predicted labels.
--tiny shrinks every input and model so that a run takes seconds; it
exists for the benchmark's self-test and has no timing bound.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the cores this process may use; must precede numpy."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_ENV:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 0 < int(current) <= cores:
            os.environ[var] = str(cores)
    return min(int(os.environ[var]) for var in BLAS_ENV)


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    try:
        import numpy
        import scipy
        from perfbench import hostspeed, layers, tracing, workloads
    except ImportError as exc:
        print(f"perfbench: cannot import the program or its dependencies: {exc}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    tracer = tracing.Tracer() if args.trace else None
    ops = workloads.Ops()
    with tempfile.TemporaryDirectory(dir=out_dir, prefix=f"{args.workload}-") as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed, args.tiny, Path(tmp))
        # the traced run reports raw span times, so it runs no reference bursts
        # set-up and training always track the python burst
        meter = None if args.trace else hostspeed.HostSpeed(
            tuple(dict.fromkeys(("python", workload.predict_reference))))
        try:
            run = workloads.measure(workload, ops, args.seconds, tracer, meter)
            stats = workload.stats()
        except workloads.OpFailed:
            return 1
        finally:
            workload.close()

    rounds = run["rounds"]
    train = workload.train + [iv for r in rounds for iv in r.train]
    samples = {"setup_s_raw": [t1 - t0 for t0, t1 in run["setups"]],
               "train_s_raw": [t1 - t0 for t0, t1 in train]}
    if tracer is None:
        # every time is scaled to the nominal host speed (hostspeed.py)
        setup_s = [meter.scaled(*iv) for iv in run["setups"]]
        train_s = [meter.scaled(*iv) for iv in train]
        note_s = [[meter.scaled(*iv, workload.predict_reference) for iv in r.notes]
                  for r in rounds]
        # each note's mean over the rounds, then the median over the notes
        per_note = [statistics.fmean(times) for times in zip(*note_s)]
        samples.update(setup_s=setup_s, train_s=train_s,
                       predict_s_raw=[sum(t1 - t0 for t0, t1 in r.notes) for r in rounds],
                       predict_s=[sum(times) for times in note_s], host_speed=meter.stats())
        values = {
            "setup_s": statistics.median(setup_s),
            "train_s": statistics.median(train_s),
            "predict_words_per_s": sum(r.words for r in rounds) / sum(map(sum, note_s)),
            "predict_note_s_p50": statistics.median(per_note),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "macro_f1": rounds[0].macro_f1,
            "ops_ok_share": (ops.attempted - ops.failed) / ops.attempted,
        }
        wanted = spec["end_to_end"]
    else:
        values = layers.layer_metrics(
            tracer.totals(tracing.SETUP), workload.setup_reps,
            tracer.totals(tracing.ROUND), len(run["traced_round_s"]))
        values["trace.overhead_share"] = (statistics.median(run["traced_round_s"])
                                          / statistics.median(run["untraced_round_s"]) - 1.0)
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(trace_path)
        wanted = spec["per_layer"]
    if set(values) != {m["name"] for m in wanted}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "machine": platform.machine(), "cpu": cpu_model(),
        "platform": platform.platform(), "cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas_threads": blas_threads,
        "samples": samples, "rounds": len(rounds),
        "inputs": stats, "predictions_sha256": rounds[0].digest,
        "macro_f1": rounds[0].macro_f1,
    }
    if tracer is not None:
        meta["trace_file"] = str(trace_path.relative_to(ROOT))
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
