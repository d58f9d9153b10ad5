"""Benchmark of the robo-mv engine.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports robo_mv from ``src/``. The
workloads are defined in ``bench/workloads.py`` and explained in
``bench/README.md``.

Each run starts a fresh interpreter (``bench/worker.py``) that imports the
program, builds the seeded inputs and then repeats the workload's op sequence
for S seconds. With ``--trace 0`` the run also starts the interpreter
``SETUP_SAMPLES - 1`` more times, only up to the end of set-up, and reports
the median set-up time with the end-to-end metrics. With ``--trace 1`` it
reports the per-layer metrics of ``bench/tracer.py`` instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A record of the run
(environment, per-iteration timings, output checks, digests and, when
traced, every span) goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
RUN_BUDGET_S = 170.0  # every child of one run must end within this
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {
    "setup_s": "s", "wall_ref": "ref", "path_steps_per_ref": "path-steps/ref",
    "peak_rss_mb": "MB",
}
# Per-layer units, by the metric name's last component.
_SUFFIX_UNITS = {
    "calls": "count", "failed": "count", "lookups": "count", "self_s": "s",
    "node_steps": "node-steps", "node_steps_per_s": "node-steps/s",
    "path_steps_per_s": "path-steps/s", "lookups_per_s": "lookups/s",
    "steps_per_s": "steps/s", "xi_clamp_fraction": "ratio",
    "window_clamp_fraction": "ratio", "overhead_frac": "ratio", "mb": "MB",
    "mb_per_s": "MB/s", "bytes_written": "bytes", "wall_s": "s",
}


def per_layer_unit(name: str) -> str:
    return _SUFFIX_UNITS[name.rsplit(".", 1)[1]]


def _child_env() -> dict:
    """The caller's environment with every thread count made explicit."""
    env = {k: v for k, v in os.environ.items() if k != "ROBO_MV_THREADS"}
    env.update({k: "1" for k in THREAD_ENV})
    return env


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


class _Child:
    """One worker interpreter, killed if it outlives the run's deadline."""

    def __init__(self, argv: list[str], deadline: float):
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py")] + argv,
            stdout=subprocess.PIPE, text=True, env=_child_env(), cwd=ROOT,
        )
        self._watchdog = threading.Timer(
            max(deadline - time.perf_counter(), 0.0), self.proc.kill)
        self._watchdog.start()

    def wait_ready(self) -> float:
        """Seconds from launch until the worker finished set-up."""
        line = self.proc.stdout.readline()
        if line.strip() != "READY":
            raise RuntimeError("worker failed during set-up")
        return time.perf_counter() - self.start

    def finish(self) -> str:
        try:
            rest = self.proc.stdout.read()
            code = self.proc.wait()
        finally:
            self._watchdog.cancel()
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"worker exited with code {code}")
        return rest


def _run(args, work: Path) -> tuple[dict, list[float]]:
    deadline = time.perf_counter() + RUN_BUDGET_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    if not args.trace:
        for i in range(SETUP_SAMPLES - 1):
            child = _Child(common + ["--setup-only", "--workdir",
                                     str(work / f"setup{i}")], deadline)
            try:
                setups.append(child.wait_ready())
            finally:
                child.finish()
    child = _Child(common + ["--workdir", str(work / "run")], deadline)
    try:
        setups.append(child.wait_ready())
    finally:
        lines = child.finish().strip().splitlines()
    return json.loads(lines[-1]), setups


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "robo_mv" / "__init__.py").is_file():
        print(f"bench: no robo_mv package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        worker, setups = _run(args, work)
    except (RuntimeError, ValueError, IndexError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in worker["per_layer"].items()}
    else:
        values = dict(worker["metrics"], setup_s=statistics.median(setups))
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(), "setup_s_samples": setups,
        "environment": dict(worker["environment"], platform=platform.platform()),
        "metrics": metrics, **{k: worker[k] for k in
                               ("attempted", "failed", "raw", "iterations",
                                "spans")
                               if k in worker},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record))
    print(json.dumps({
        "correct": worker["failed"] == 0,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
