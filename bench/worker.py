"""One benchmark run of one workload, in a fresh interpreter.

Started by run.py. It imports robo_mv from the checkout's src/, builds the
workload's seeded inputs, and prints ``READY`` when set-up is done. With
``--setup-only`` it stops there. Otherwise it repeats the workload's op
sequence until ``--seconds`` have passed, each op into a fresh output
directory, then checks every op's output and prints one JSON line with the
timings, counts, checks and digests.

With ``--trace 1`` the iterations alternate between untraced and traced, so
that the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from tracer import Tracer, dir_bytes, per_layer_metrics, span_records

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_program():
    sys.path.insert(0, str(SRC))
    import robo_mv

    if Path(robo_mv.__file__).resolve().parent != SRC / "robo_mv":
        raise ImportError(f"robo_mv resolved to {robo_mv.__file__}, not {SRC}")


def _environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def _reference_s() -> float:
    """Wall time of a fixed reference kernel of about 60 ms.

    It mixes the kinds of work the program does: a bytecode loop, CSV
    formatting and numpy array arithmetic. It runs next to every op, so that
    the op's time can be given in units of it, which cancels the host's
    changes of CPU speed.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(375_000):
        acc += i * i
    w = csv.writer(io.StringIO())
    for i in range(10_000):
        w.writerow([f"{i * 0.1:.12g}", f"{i * 1.3:.12g}", f"{i / 7:.12g}", i])
    x = np.random.default_rng(0).standard_normal(500_000)
    np.cumsum(x)
    np.exp(x) @ x
    return time.perf_counter() - t0


def _run_sequence(ops, workdir: Path, iteration: int) -> dict:
    """Run every op once; time each call and nothing else.

    The reference kernel runs before each op and after the last one. Each
    op's time is also given in units of the mean of the two reference times
    on either side of it.
    """
    outs, results, times, errors, refs = {}, {}, {}, {}, []
    for op in ops:
        out = Path(tempfile.mkdtemp(prefix=f"{iteration:03d}-{op.name}-", dir=workdir))
        call = op.prepare(out, outs)
        gc.collect()
        refs.append(_reference_s())
        result, error = None, None
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            try:
                result = call()
            except (Exception, SystemExit):
                error = traceback.format_exc(limit=3)
            t1 = time.perf_counter()
        outs[op.name] = out
        times[op.name] = t1 - t0
        if error is None and op.is_cli and result != 0:
            error = f"exit code {result}"
        errors[op.name] = error
        results[op.name] = result
    refs.append(_reference_s())
    in_refs = {op.name: times[op.name] / ((refs[k] + refs[k + 1]) / 2)
               for k, op in enumerate(ops)}
    return {"iteration": iteration, "outs": outs, "results": results,
            "times": times, "errors": errors, "refs": refs,
            "wall_s": sum(times.values()),
            "sim_s": sum(times[op.name] for op in ops if op.path_steps),
            "wall_ref": sum(in_refs.values()),
            "sim_ref": sum(in_refs[op.name] for op in ops if op.path_steps)}


def _check_sequence(ops, seq: dict, verdicts: dict) -> list[dict]:
    """Check each op's output and record its digest.

    Every iteration runs the same inputs, so an output whose digest, and the
    digests of the outputs it depends on, match an earlier iteration's gets
    the verdict cached in ``verdicts``.
    """
    records, digests = [], ()
    for op in ops:
        out = seq["outs"][op.name]
        rec = {"op": op.name, "time_s": seq["times"][op.name],
               "bytes_written": dir_bytes(out), "error": seq["errors"][op.name]}
        if rec["error"] is None:
            result = seq["results"][op.name]
            try:
                rec["digest"] = op.digest(out, result)
                digests += (rec["digest"],)
                key = (op.name,) + digests
                if key not in verdicts:
                    verdicts[key] = op.check(out, result, seq["outs"])
                rec["notes"] = verdicts[key].notes
                if verdicts[key].problems:
                    rec["error"] = "; ".join(verdicts[key].problems)
            except Exception:
                rec["error"] = "check raised: " + traceback.format_exc(limit=3)
        records.append(rec)
    return records


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    proto = sys.stdout
    _import_program()
    from workloads import WORKLOADS

    workdir = Path(args.workdir)
    cfgdir = workdir / "config"
    cfgdir.mkdir(parents=True)
    ops = WORKLOADS[args.workload](args.seed, cfgdir)
    print("READY", file=proto, flush=True)
    if args.setup_only:
        return 0

    tracer = Tracer() if args.trace else None
    sequences, traced_spans = [], []
    start = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.spans = []
            tracer.install()
        try:
            seq = _run_sequence(ops, workdir, i)
        finally:
            if traced:
                tracer.uninstall()
        seq["traced"] = traced
        if traced:
            traced_spans.append(tracer.spans)
        sequences.append(seq)
        i += 1
        # Stop once another iteration would overrun --seconds by more than
        # half a typical iteration.
        typical = statistics.median(s["wall_s"] for s in sequences)
        elapsed = time.perf_counter() - start
        if elapsed + typical / 2 >= args.seconds and (tracer is None or i >= 2):
            break
    # ru_maxrss is in KiB on Linux. Read it before the checks, which allocate.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    verdicts = {}
    for seq in sequences:
        seq["checks"] = _check_sequence(ops, seq, verdicts)
    attempted = sum(len(seq["checks"]) for seq in sequences)
    failed = sum(1 for seq in sequences for c in seq["checks"] if c["error"])

    # Medians over the untraced iterations. The CPU speed of a shared host
    # changes within seconds, and for tens of seconds at a time. Times in
    # reference units cancel most of that; the median drops the iterations
    # that a stall hit, where a mean would keep them.
    plain = [s for s in sequences if not s["traced"]]
    path_steps = sum(op.path_steps for op in ops)

    def median(key):
        return statistics.median(s[key] for s in plain)

    result = {
        "attempted": attempted,
        "failed": failed,
        "environment": _environment(),
        "iterations": [
            {"iteration": s["iteration"], "traced": s["traced"],
             "wall_s": s["wall_s"], "path_steps_per_s": path_steps / s["sim_s"],
             "wall_ref": s["wall_ref"], "reference_s": s["refs"],
             "ops": s["checks"]}
            for s in sequences
        ],
        "metrics": {
            "wall_ref": median("wall_ref"),
            "path_steps_per_ref": path_steps / median("sim_ref"),
            "peak_rss_mb": peak_rss_mb,
        },
        "raw": {
            "run.wall_s": median("wall_s"),
            "run.path_steps_per_s": path_steps / median("sim_s"),
        },
    }
    if tracer is not None:
        traced_seqs = [s for s in sequences if s["traced"]]
        result["per_layer"] = per_layer_metrics(
            traced_spans, [s["wall_ref"] for s in traced_seqs],
            [sum(c["bytes_written"] for c in s["checks"]) for s in traced_seqs],
            result["metrics"]["wall_ref"])
        result["per_layer"].update(result["raw"])
        result["spans"] = [span_records(spans) for spans in traced_spans]
    print(json.dumps(result), file=proto, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
