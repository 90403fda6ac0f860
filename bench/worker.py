"""One workload in one process: set up, run jobs, report one JSON line.

Started by ``run.py``; not meant to be run by hand.  The process prints
``ready`` as soon as it could start its first job (``run.py`` times set-up
from process start to that line), then the result as a JSON line; with
``--setup-only`` the result is the reference loop time right after set-up.

A job runs the workload's specs once, in order and serially, each through
``run_pipeline`` with default budgets and then ``to_json``, as ``forge run``
does.  Reports are checked after the clock stops.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_LOOP = 600_000


def reference_s():
    """Seconds for a fixed pure-Python loop: the machine's current speed.

    The machine this benchmark was written on changes speed by up to 1.7x
    for tens of seconds at a time; timing this loop next to each job lets
    ``run.py`` report times at one fixed machine speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


def parse_args(argv):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def import_program():
    """Import graphforge from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import graphforge
    if Path(graphforge.__file__).resolve().parent != src / "graphforge":
        raise ImportError(f"graphforge imported from {graphforge.__file__}, "
                          f"not from {src}")
    from graphforge import pipeline
    from graphforge.examples import builtin_examples
    return pipeline, builtin_examples()


def check(job, text, exit_code):
    """None if the report is the known-correct one, else why not."""
    if exit_code != job.exit_code:
        return f"exit code {exit_code}, expected {job.exit_code}"
    if job.sha256 is not None:
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if digest != job.sha256:
            return f"report sha256 {digest}, expected {job.sha256}"
    if job.oracle is not None:
        return job.oracle(text)
    return None


class Runner:
    """Runs jobs and keeps the tally of spec runs and failures."""

    def __init__(self, pipeline, jobs):
        self.pipeline = pipeline
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.pending = []

    def run_job(self):
        """One job; returns its wall seconds.  Reports wait in ``pending``
        for ``check_pending``, so checking stays out of the timing."""
        t0 = time.perf_counter()
        for job in self.jobs:
            try:
                report = self.pipeline.run_pipeline(job.spec)
                self.pending.append((job, report.to_json(), report.exit_code()))
            except Exception:  # a crashing spec counts as failed, run goes on
                self.pending.append((job, None, traceback.format_exc(limit=3)))
        return time.perf_counter() - t0

    def check_pending(self):
        for job, text, code in self.pending:
            self.attempted += 1
            why = code if text is None else check(job, text, code)
            if why is not None:
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{job.label}: {why}")
        self.pending.clear()

    def run_for(self, seconds, run_job=None):
        """Jobs until the next one would end after ``seconds``; at least one.

        Returns the job wall times and the reference loop times taken before
        the first job and after each job (one more than jobs)."""
        run_job = run_job or self.run_job
        times, refs = [], [reference_s()]
        start = time.perf_counter()
        while True:
            times.append(run_job())
            refs.append(reference_s())
            self.check_pending()
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(times) > seconds:
                return times, refs


def at_reference_speed(times, refs):
    """Each job's time divided by the reference loop time around it."""
    return [t / ((refs[i] + refs[i + 1]) / 2) for i, t in enumerate(times)]


def main(argv=None):
    args = parse_args(argv)
    pipeline, builtins = import_program()
    jobs = workloads.build(args.workload, args.seed, builtins,
                           workloads.load_answers())
    for job in jobs:
        pipeline.validate_spec(job.spec)
    print("ready", flush=True)
    if args.setup_only:
        print(json.dumps({"reference_s": reference_s()}), flush=True)
        return 0

    runner = Runner(pipeline, jobs)
    result = {}
    if not args.trace:
        result["job_times"], result["refs"] = runner.run_for(args.seconds)
    else:
        from hooks import Tracer
        plain, refs = runner.run_for(args.seconds / 3)
        tracer = Tracer()
        tracer.install()
        try:
            traced, traced_refs = runner.run_for(
                args.seconds * 2 / 3, lambda: tracer.job(runner.run_job))
        finally:
            tracer.uninstall()
        result["job_times"], result["refs"] = plain, refs
        result["traced_job_times"] = traced
        result["layers"] = tracer.metrics(traced)
        result["layers"]["trace.overhead_ratio"] = (
            statistics.median(at_reference_speed(traced, traced_refs))
            / statistics.median(at_reference_speed(plain, refs)))
        result["missing"] = sorted(tracer.missing)
    result.update(
        attempted=runner.attempted, failed=runner.failed,
        failures=runner.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
