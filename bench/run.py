"""graphforge benchmark: one workload, one run, one JSON result line.

    python3 bench/run.py --workload coned-free --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
Workloads, the expected reports and the predictions are described in
``bench/README.md``; metric names and units come from ``BENCHMARK.json``.

With ``--trace 0`` the result holds the end-to-end metrics, measured with
no tracing.  With ``--trace 1`` it holds the per-layer metrics from a
traced share of the run.  Every report of every job is checked against its
known-correct answer; the last stdout line is
``{"correct", "attempted", "failed", "metrics"}`` and the exit code is 1
when any check failed.

Each run starts the measuring process between set-up-only processes, one
after another, so ``setup_s`` is a median of ``SETUP_SAMPLES`` process
starts and ``peak_rss_mb`` belongs to this workload alone.

Times are reported at a fixed machine speed: every job and every set-up is
followed by a fixed pure-Python loop, and its wall time is scaled by
``REFERENCE_S`` over the loop's time around it.  Raw wall times are printed
too.  See ``bench/README.md`` for why.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import at_reference_speed
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_SAMPLES = 5
# about the reference loop's time at the machine's faster speed, where the
# benchmark was written; it only sets the scale of the reported times
REFERENCE_S = 0.05
DEADLINE_S = 170      # the whole run, set-up probes included


class BenchError(Exception):
    pass


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def start_worker(args, extra, deadline):
    """Start a worker; return (process, seconds until it printed ready)."""
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def finish(proc, deadline):
    """Wait for the worker until the deadline; return its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker overran the run deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    return out


def measure(args):
    deadline = time.monotonic() + DEADLINE_S

    def probe():
        proc, setup = start_worker(args, ["--setup-only"], deadline)
        out = json.loads(finish(proc, deadline).strip().splitlines()[-1])
        return setup, out["reference_s"]

    # probes before and after the measurement meet different machine states
    setups = [probe() for _ in range((SETUP_SAMPLES - 1) // 2)]
    proc, setup = start_worker(args, [], deadline)
    out = finish(proc, deadline)
    result = json.loads(out.strip().splitlines()[-1])
    setups.append((setup, result["refs"][0]))
    setups += [probe() for _ in range(SETUP_SAMPLES - len(setups))]
    result["setups"] = setups
    return result


def p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(result):
    """name -> (value, unit, how it was taken) for every end-to-end metric
    the run measures; BENCHMARK.json bounds a subset of them."""
    raw = result["job_times"]
    jobs = [REFERENCE_S * r for r in at_reference_speed(raw, result["refs"])]
    setups = [REFERENCE_S * s / ref for s, ref in result["setups"]]
    return {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} process starts; raw "
                    f"{statistics.median(s for s, _ in result['setups']):.4g} s"),
        "job_s": (statistics.median(jobs), "s",
                  f"median of {len(jobs)} jobs; raw "
                  f"{statistics.median(raw):.4g} s"),
        "job_s.p90": (p90(jobs), "s",
                      f"90th percentile of {len(jobs)} jobs; fewer than ten "
                      f"lie beyond it until 100 jobs are pooled over runs"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB",
                        "ru_maxrss of the measuring process"),
    }


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "graphforge" / "__init__.py").is_file():
        print(f"bench: no graphforge sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        result = measure(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"  failed_ratio  {failed / attempted:.6g} ratio  "
          f"({failed} of {attempted} spec runs failed)")
    for why in result["failures"]:
        print(f"  FAILED {why}")
    metrics = {}
    if not args.trace:
        measured = end_to_end(result)
        for name, (value, unit, note) in measured.items():
            print(f"  {name:<12}  {value:.6g} {unit}  ({note})")
        print("  raw job times  "
              + " ".join(f"{t:.3f}" for t in result["job_times"]))
        print("  reference loop " + " ".join(f"{t:.4f}" for t in result["refs"]))
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": measured[m["name"]][0],
                                  "unit": m["unit"]}
    else:
        layers = result["layers"]
        missing = result["missing"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        for name in sorted(layers):
            value = layers[name]
            shown = "null (binding missing)" if value is None \
                else f"{value:.6g}"
            print(f"  {name:<52}  {shown} {units.get(name, '')}")
        print(f"  traced jobs {len(result['traced_job_times'])}, "
              f"untraced jobs {len(result['job_times'])}")
        for m in spec["per_layer"]:
            value = layers.get(m["name"])
            if value is None and not any(
                    m["name"].startswith(f"{row}.") for row in missing):
                value = 0    # the boundary was not crossed in this workload
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
