"""fiberae benchmark: end-to-end metrics of three closed-loop workloads.

Run from the repository root:

    python3 perfbench/run.py --workload train --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in a fresh worker process (worker.py) that issues
``fiberae.cli.main`` calls one after another, with ``--threads`` equal to
the cores this process may use.  Set-up is timed in that process and in
four more that only set up.  With ``--trace 1`` every other job runs with
spans recorded around the package's public functions and the per-layer
figures are reported instead of the end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record
with the environment goes to ``.perfbench_out/``.
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
import threading
from time import perf_counter

from workloads import BENCH_DIR, ROOT, TRAIN_BATCH_SIZE, TRAIN_BATCHES

WORKLOADS = ("train", "qam_ml_sweep", "ae_eval")
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0

E2E_UNITS = {"setup_s": "s", "job_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "channel.draw_noise.busy_s": "s",
    "channel.propagate.busy_s": "s",
    "channel.propagate_tape.busy_s": "s",
    "channel.backprop_channel.busy_s": "s",
    "channel.segment_updates": "count",
    "channel.ns_per_segment_update": "ns",
    "channel.bytes_per_segment_update": "B",
    "nets.forward.busy_s": "s",
    "nets.forward.rows": "count",
    "nets.backward.busy_s": "s",
    "nets.backward.rows": "count",
    "nets.adam_step.busy_s": "s",
    "nets.adam_step.calls": "count",
    "autoencoder.train.self_s": "s",
    "autoencoder.batch_loss_and_grads.self_s": "s",
    "autoencoder.batch_loss_and_grads.p50_ms": "ms",
    "autoencoder.batch_loss_and_grads.p99_ms": "ms",
    "autoencoder.batch_loss_and_grads.floor_hits": "count",
    "autoencoder.decode.busy_s": "s",
    "autoencoder.detect.busy_s": "s",
    "autoencoder.load_checkpoint.busy_s": "s",
    "autoencoder.save_checkpoint.busy_s": "s",
    "likelihood.build_oracle.busy_s": "s",
    "likelihood.build_oracle.self_s": "s",
    "likelihood.kde_grid_cells": "count",
    "likelihood.kde_grids_clipped": "count",
    "likelihood.ml_detect.self_s": "s",
    "likelihood.mutual_information.self_s": "s",
    "evaluation.sweep.parallel_efficiency": "ratio",
    "evaluation.ser.self_s": "s",
    "evaluation.air.self_s": "s",
    "evaluation.decision_regions.self_s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_written": "B",
    "trace.overhead_s": "s",
    "trace.coverage": "ratio",
}
# each workload's headline figure, derived from the time of one job
TRAIN_SYMBOLS_PER_JOB = TRAIN_BATCHES * TRAIN_BATCH_SIZE
SWEEP_ROWS_PER_JOB = 4  # 2 powers x (ser, mi)
HEADLINE = {
    "train": ("train.symbols_per_s", "1/s", lambda s: TRAIN_SYMBOLS_PER_JOB / s),
    "qam_ml_sweep": ("sweep.points_per_min", "1/min", lambda s: 60.0 * SWEEP_ROWS_PER_JOB / s),
    "ae_eval": ("eval.job_s", "s", lambda s: s),
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def summary(samples: list[float]) -> dict:
    s = sorted(samples)
    q1, _, q3 = statistics.quantiles(s, n=4) if len(s) > 1 else (s[0],) * 3
    return {"n": len(s), "median": statistics.median(s), "q1": q1, "q3": q3}


class Worker:
    """A worker.py process whose set-up time is taken from its start."""

    def __init__(self, argv: list[str], deadline: float):
        self.start = perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        self._timer = threading.Timer(max(1.0, deadline - perf_counter()), self.proc.kill)
        self._timer.start()

    def message(self, event: str) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"worker ended without a {event!r} message")
        msg = json.loads(line)
        if msg.get("event") != event:
            raise BenchError(f"expected {event!r} from worker, got {msg.get('event')!r}")
        return msg

    def close(self, kill: bool = False) -> None:
        if kill:
            self.proc.kill()
        self.proc.stdout.read()
        self.proc.wait()
        self._timer.cancel()
        if self.proc.returncode != 0 and not kill:
            raise BenchError(f"worker exited with status {self.proc.returncode}")


def run_workload(name: str, seed: int, seconds: float, trace: int, threads: int, deadline: float) -> dict:
    out_dir = ROOT / ".perfbench_out"
    work = ROOT / ".perfbench_work" / f"{name}-s{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"spans_{name}_seed{seed}.jsonl"
    base = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--threads", str(threads),
            "--work", str(work)]
    setups, digests, checks = [], [], []
    try:
        for i in range(SETUP_SAMPLES):
            last = i == SETUP_SAMPLES - 1
            worker = Worker(base + (["--spans", str(spans_path)] if last else ["--setup-only"]), deadline)
            try:
                ready = worker.message("ready")
                setups.append(perf_counter() - worker.start)
                if last:
                    result = worker.message("result")
            except BaseException:
                worker.close(kill=True)
                raise
            worker.close()
            digests.append(ready["warmup_digest"])
            for call, code in ready["warmup_codes"].items():
                checks.append((f"set-up call {call} exit status 0", code == 0))
        for d in digests[1:]:
            checks.append(("set-up outputs byte-identical across processes", d == digests[0]))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass

    setup_failures = [n for n, ok in checks if not ok]
    failures = setup_failures + result["failures"]
    attempted = len(checks) + result["attempted"]
    failed = len(setup_failures) + result["failed"]
    untraced = [j["job_s"] for j in result["jobs"] if not j["traced"]]
    head_name, head_unit, head_fn = HEADLINE[name]
    table = {
        "setup_s": ("s", summary(setups)),
        "job_s": ("s", summary(untraced)),
        head_name: (head_unit, summary([head_fn(s) for s in untraced])),
        "peak_rss_mb": ("MB", summary([result["peak_rss_mb"]])),
        "fail_rate": ("ratio", summary([failed / attempted])),
    }
    if trace:
        metrics = {k: (u, result["layers"][k]) for k, u in LAYER_UNITS.items()}
    else:
        metrics = {k: (u, table[k][1]["median"]) for k, u in E2E_UNITS.items()}
    return {
        "workload": name,
        "table": table,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "values": result["values"],
        "jobs": result["jobs"],
        "step_samples": result.get("step_samples"),
    }


def environment(seed: int, load_start, threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        import cpuinfo

        cpu = cpuinfo.get_cpu_info().get("brand_raw", "unknown")
    except ImportError:
        cpu = "unknown (py-cpuinfo not installed)"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=30)
            commit = git.stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    env_threads = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in env_threads},
        "nproc": len(os.sched_getaffinity(0)),
        "workload_threads": threads,
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
    }


def print_report(rep: dict, seconds: float, seed: int, trace: int) -> None:
    print(f"== {rep['workload']} (seed {seed}, {seconds:g} s, trace {trace}) ==")
    print(f"{'metric':<24} {'unit':<6} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14}")
    for name, (unit, s) in rep["table"].items():
        print(f"{name:<24} {unit:<6} {s['n']:>3} {s['median']:>14.6g} {s['q1']:>14.6g} {s['q3']:>14.6g}")
    print(f"checks: {rep['attempted'] - rep['failed']}/{rep['attempted']} passed")
    for f in rep["failures"]:
        print(f"  FAILED {f}")
    shown = {k: v for k, v in rep["values"].items() if not isinstance(v, list)}
    print("outputs of the first job: " + ", ".join(f"{k}={v:.6g}" for k, v in shown.items()))
    if trace:
        print(f"per-layer figures, median over traced jobs ({rep['step_samples']} training steps timed):")
        for name, (unit, v) in rep["metrics"].items():
            print(f"  {name:<46} {v:>14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0, help="measured time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fiberae" / "__init__.py").is_file():
        print(f"error: no fiberae sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    t0 = perf_counter()
    load_start = list(os.getloadavg())
    threads = len(os.sched_getaffinity(0))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    reports = []
    try:
        for name in names:
            deadline = t0 + RUN_LIMIT_S * len(reports + [name])
            reports.append(run_workload(name, args.seed, args.seconds, args.trace, threads, deadline))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = environment(args.seed, load_start, threads)
    print("environment: " + json.dumps(env, sort_keys=True))
    for rep in reports:
        print_report(rep, args.seconds, args.seed, args.trace)
        record = ROOT / ".perfbench_out" / f"BENCH_{rep['workload']}_seed{args.seed}_trace{args.trace}.json"
        record.write_text(json.dumps({"environment": env, **rep}, indent=1, sort_keys=True) + "\n")

    prefix = (lambda rep: f"{rep['workload']}.") if len(reports) > 1 else (lambda rep: "")
    metrics = {
        prefix(rep) + name: {"value": value, "unit": unit}
        for rep in reports
        for name, (unit, value) in rep["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
