"""One workload's process: set up, then repeat the job until the run's time is up.

Started by run.py, which times set-up from before it starts this process
until the ``ready`` line arrives.  Messages to run.py are JSON lines on
standard output; what fiberae prints is discarded.  Exits non-zero only
when set-up fails (fiberae missing, fixture digest wrong); failed output
checks are reported in the ``result`` message instead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads as wl
from spans import Tracer, job_metrics, step_times_ms

PROTOCOL = sys.stdout


def send(**message) -> None:
    print(json.dumps(message), file=PROTOCOL, flush=True)


def import_cli():
    """fiberae.cli from the src tree beside the benchmark, never an installed copy."""
    src = wl.ROOT / "src"
    if not (src / "fiberae" / "__init__.py").is_file():
        raise ImportError(f"no fiberae sources under {src}")
    sys.path.insert(0, str(src))
    import fiberae.cli

    if not Path(fiberae.cli.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"fiberae was imported from {fiberae.cli.__file__}, not {src}")
    return fiberae.cli


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def run_job(cli, workload, seed, job_dir: Path, threads: int, warmup: bool, sink):
    """Run the workload's calls once.

    Returns (start, end, output directory, exit code and seconds of each call).
    """
    outs, codes, call_s = {}, {}, {}
    start = perf_counter()
    for call in workload.calls:
        out = job_dir / call.name
        argv = workload.argv(call, seed, out, threads, warmup)
        t = perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                codes[call.name] = cli.main(argv)
        except Exception:  # a crash fails this call's check; the run goes on
            traceback.print_exc()
            codes[call.name] = -1
        call_s[call.name] = perf_counter() - t
        outs[call.name] = out
    return start, perf_counter(), outs, codes, call_s


def measure(cli, workload, args, sink) -> dict:
    """Repeat the job for the run's time, checking its outputs each time."""
    work = Path(args.work)
    tracer = Tracer()
    jobs, layers, steps = [], [], []
    attempted = failed = 0
    failures: list[str] = []
    values: dict = {}
    first_digests: dict[str, str] = {}
    t_run = perf_counter()
    while True:
        j = len(jobs)
        traced = bool(args.trace) and j % 2 == 1
        job_dir = work / f"job{j}"
        if traced:
            tracer.run = f"job{j}"
            tracer.install()
        try:
            start, end, outs, codes, call_s = run_job(
                cli, workload, args.seed, job_dir, args.threads, False, sink)
        finally:
            tracer.uninstall()
        if j == 0:
            # peak memory of set-up and one job, however many jobs the run fits
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        jobs.append({"traced": traced, "job_s": end - start, "call_s": call_s})

        checker = wl.check_job(workload.name, outs, codes)
        for call, out in outs.items():
            digest = tree_digest(out)
            first = first_digests.setdefault(call, digest)
            if j > 0:
                checker.check(f"{call} outputs byte-identical across jobs", digest == first)
        attempted += len(checker.results)
        for name, ok, detail in checker.results:
            if not ok:
                failed += 1
                failures.append(f"job{j}: {name}: {detail}")
        if j == 0:
            values = checker.values
        if traced:
            spans = [s for s in tracer.spans if s.run == tracer.run]
            for err in sorted({s.counts["counter_error"] for s in spans if "counter_error" in s.counts}):
                print(f"warning: a layer counter failed, its figures read 0: {err}", file=sys.stderr)
            figures = job_metrics(spans, start, end)
            figures["cli.bytes_written"] = tree_bytes(job_dir)
            layers.append(figures)
            steps += step_times_ms(spans)
        shutil.rmtree(job_dir)

        # start another job only when it should end within the run's time
        elapsed = perf_counter() - t_run
        expected = statistics.median(job["job_s"] for job in jobs)
        both_kinds = len({job["traced"] for job in jobs}) == 2
        if (both_kinds or not args.trace) and elapsed + expected > args.seconds:
            break

    result = {
        "event": "result",
        "jobs": jobs,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "values": values,
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        figures = {name: statistics.median(f[name] for f in layers) for name in layers[0]}
        untraced = statistics.median(job["job_s"] for job in jobs if not job["traced"])
        traced_s = statistics.median(job["job_s"] for job in jobs if job["traced"])
        figures["trace.overhead_s"] = traced_s - untraced
        p50 = p99 = 0.0
        if len(steps) >= 2:
            cuts = statistics.quantiles(steps, n=100, method="inclusive")
            p50, p99 = cuts[49], cuts[98]
        figures["autoencoder.batch_loss_and_grads.p50_ms"] = p50
        figures["autoencoder.batch_loss_and_grads.p99_ms"] = p99
        result["layers"] = figures
        result["step_samples"] = len(steps)
        if args.spans:
            tracer.dump(args.spans)
    return result


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, required=True)
    ap.add_argument("--work", required=True, help="scratch directory for outputs")
    ap.add_argument("--spans", help="file the traced spans are written to")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workload = wl.WORKLOADS[args.workload]
    cli = import_cli()
    if workload.needs_fixture:
        wl.check_fixture()
    with open(os.devnull, "w") as sink:
        warm_dir = Path(args.work) / f"warmup-{os.getpid()}"
        _, _, _, warm_codes, _ = run_job(cli, workload, args.seed, warm_dir, args.threads, True, sink)
        send(event="ready", warmup_digest=tree_digest(warm_dir), warmup_codes=warm_codes)
        shutil.rmtree(warm_dir)
        if not args.setup_only:
            send(**measure(cli, workload, args, sink))
    return 0


if __name__ == "__main__":
    sys.exit(main())
