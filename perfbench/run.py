#!/usr/bin/env python3
"""The germlin benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: it imports ``germlin`` from ``src/``.  One
process, one client, closed loop: each job starts when the previous one has
returned, with no think time and no worker threads.  Jobs are handed out in
whole rounds (every kind of job of the workload, in a seeded order) until at
least ``--seconds`` of job time and at least ``MIN_JOBS`` jobs have run, so
that the p90 has ten samples above it.  Every job's output is checked after
its round, outside the timed loop.

``--trace 0`` prints the end-to-end metrics: per-job time (p50, p90), jobs
per second, set-up time (median of ``SETUP_REPEATS`` fresh interpreters that
import germlin and build the inputs), peak resident memory and the error
rate.  The times are wall times scaled by the machine-speed gauge of
``gauge.py``, which takes out the host's speed swings; the raw wall times are
printed beside them.

``--trace 1`` prints the per-layer metrics instead: it runs the kernel
probes, then each round twice, untraced and traced, for about ``--seconds``
in all, and writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import gauge

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")

WORKLOADS = ("certify-families", "linearize-roundtrip", "forms-integrability")
MIN_JOBS = 100
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120


@dataclass
class Pass:
    samples: list[float] = field(default_factory=list)  # wall time per job
    failures: list[str] = field(default_factory=list)
    rounds: int = 0
    gauge: gauge.Gauge | None = None

    @property
    def job_s(self) -> float:
        return sum(self.samples)

    @property
    def jobs_per_s(self) -> float:
        return len(self.samples) / self.job_s


def check(job, output, error) -> str | None:
    if error is not None:
        return f"{job.label}: raised {error.strip().splitlines()[-1]}"
    try:
        problem = job.check(output)
    except Exception as exc:  # a malformed output is a failed job
        problem = f"check raised {exc!r}"
    return None if problem is None else f"{job.label}: {problem}"


def run_round(p: Pass, jobs: list, tracer=None) -> None:
    """Run one round's jobs back to back, timing each, then check their
    outputs.  Outputs are dropped after the check, so memory does not grow
    with the number of rounds."""
    results = []
    for job in jobs:
        t0 = perf_counter()
        try:
            if tracer is None:
                output = job.run()
            else:
                output = tracer.run_job(len(p.samples), job.run)
            error = None
        except Exception:  # a job that raises is a failed job, not a crash
            output, error = None, traceback.format_exc(limit=4)
        p.samples.append(perf_counter() - t0)
        if p.gauge is not None:
            p.gauge.add(p.samples[-1])
        results.append((job, output, error))
    p.rounds += 1
    p.failures += [f for f in (check(*r) for r in results) if f is not None]


def timed_pass(rounds, seconds: float, min_jobs: int) -> Pass:
    """Run whole rounds until ``seconds`` of job time and ``min_jobs`` are
    both reached, with the speed gauge on.  Making a round's inputs,
    checking its outputs and sampling the gauge are not timed."""
    p = Pass(gauge=gauge.Gauge())
    for jobs in rounds:
        run_round(p, jobs)
        if p.job_s >= seconds and len(p.samples) >= min_jobs:
            break
    p.gauge.flush()
    return p


def measure_setup(workload: str, seed: int, tiny: bool) -> float:
    """Median wall time of fresh interpreters that import germlin and build
    the workload's inputs, up to the first timed job, each scaled by the
    speed gauge sampled just before and after it."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-only"] + (["--tiny"] if tiny else [])
    times = []
    for _ in range(SETUP_REPEATS):
        before = gauge.sample()
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S)
        elapsed = perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"set-up run failed: {proc.stderr.strip()[-500:]}")
        times.append(elapsed * gauge.REFERENCE_S / ((before + gauge.sample()) / 2))
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


# -- environment -------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    """sha256 over src/germlin/*.py: names the code when there is no .git."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "germlin")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment(args) -> dict:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "germlin_commit": _git_commit(),
        "germlin_src_sha256": _source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
    }


# -- the two kinds of run ----------------------------------------------------------------


def end_to_end(args, rounds, setup_s: float) -> tuple[dict, list[str], int, list[str]]:
    p = timed_pass(rounds, args.seconds, 1 if args.tiny else MIN_JOBS)
    failures = p.failures
    job_s = p.gauge.corrected
    n = len(job_s)
    p90 = statistics.quantiles(job_s, n=10, method="inclusive")[8] if n > 1 else job_s[0]
    metrics = {
        "job_s.p50": (statistics.median(job_s), "s"),
        "job_s.p90": (p90, "s"),
        "jobs_per_s": (n / sum(job_s), "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    above = sum(1 for s in job_s if s > p90)
    notes = {
        "job_s.p50": f"{n} samples; wall time {statistics.median(p.samples):.6g} s",
        "job_s.p90": f"{n} samples, {above} above",
        "jobs_per_s": f"{n} jobs in {p.rounds} rounds, {p.job_s:.2f} s; "
        f"wall time {p.jobs_per_s:.6g} 1/s",
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
    }
    lines = [f"  {name:<14} {value:<14.6g} {unit:<6} {notes.get(name, '')}"
             for name, (value, unit) in metrics.items()]
    # error_rate is 0 whenever the program is right, so it cannot carry a
    # bound relative to its median; the result line carries it as
    # failed / attempted
    lines.append(f"  {'error_rate':<14} {len(failures) / n:<14.6g} {'ratio':<6} "
                 f"{len(failures)} of {n} jobs")
    lines.append(f"  times are wall times scaled to the speed gauge's nominal speed; "
                 f"median scale factor {statistics.median(p.gauge.factors):.4f}")
    return metrics, failures, n, lines


def traced(args, rounds) -> tuple[dict, list[str], int, list[str]]:
    from probes import run_probes
    from spans import Tracer, layer_metrics, self_time_shares

    metrics = dict(run_probes(args.tiny))
    # each round runs untraced and then traced, so that drift in machine
    # speed falls on both sides of the overhead ratio alike
    plain, spanned, tracer = Pass(), Pass(), Tracer()
    for jobs in rounds:
        run_round(plain, jobs)
        tracer.install()
        try:
            run_round(spanned, jobs, tracer)
        finally:
            tracer.uninstall()
        if plain.job_s + spanned.job_s >= args.seconds:
            break
    failures = plain.failures + spanned.failures
    n = len(spanned.samples)
    metrics.update(layer_metrics(tracer, n))
    metrics["trace.overhead_ratio"] = (plain.jobs_per_s / spanned.jobs_per_s, "ratio")

    os.makedirs(OUT_DIR, exist_ok=True)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.tsv.gz")
    tracer.write(spans_path)
    lines = [f"  {name:<40} {value:<14.6g} {unit}" for name, (value, unit) in metrics.items()]
    lines.append(f"  self time by span over {n} traced jobs "
                 f"({len(tracer.name)} spans, written to {os.path.relpath(spans_path, ROOT)}):")
    for name, self_s, share in self_time_shares(tracer)[:12]:
        lines.append(f"    {name:<28} {self_s:10.4f} s  {100 * share:5.1f}%")
    return metrics, failures, len(plain.samples) + n, lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs and no minimum job count (self-test)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "germlin", "__init__.py")):
        print(f"perfbench: germlin sources not found under {SRC}", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import workloads

    if args.setup_only:
        workloads.ROUNDS[args.workload](args.seed, args.tiny)
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed, args.tiny)
    rounds = workloads.ROUNDS[args.workload](args.seed, args.tiny)
    if args.trace:
        metrics, failures, attempted, lines = traced(args, rounds)
    else:
        metrics, failures, attempted, lines = end_to_end(args, rounds, setup_s)

    env = environment(args)
    note = workloads.NOTES[args.workload]
    print(f"germlin benchmark: {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}; closed loop, one client, in-process")
    print(f"environment: {json.dumps(env)}")
    print(f"why: {note['why']}")
    print(f"should move: {note['moves']}; should not move: {note['should_not_move']}")
    print("\n".join(lines))
    for failure in failures:
        print(f"MISMATCH {failure}")

    os.makedirs(OUT_DIR, exist_ok=True)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    record = dict(result, error_rate=len(failures) / attempted, environment=env,
                  workload_notes=note, failures=failures)
    out_path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
