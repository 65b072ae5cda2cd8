"""Benchmark of isoframe's exact paths: four workloads, closed loop, one client.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; isoframe is imported from its src/ and
nothing is installed.  Workloads: invariants, reduce, scaling, cli (see
bench/NOTES.md for why each exists and what it stresses).

A run is a sequence of passes.  Each pass is one fresh worker process
(bench/worker.py) that sets up, runs its job list one job after another,
checks every answer against independent oracles and reports its timings.
The number of passes follows from --seconds and the workload's nominal
pass length, so one setting always measures the same amount of work.  A
job's time is its median over the passes, scaled to a reference machine
speed (see PROBE_REFERENCE_S).

With --trace 0 the run reports the end-to-end metrics: medians over passes
of set-up time, wall time and peak memory, and the median and tail of all
job times.  With --trace 1 it alternates untraced and traced passes on the
same inputs and reports per-layer calls, self times and work counts from
the traced passes, plus the tracing overhead.  Every metric is printed by
name and unit; the last line of standard output is one JSON object.

Exit codes: 0 with a result (which may say correct: false), 1 when a pass
could not produce a report, 2 when the checkout holds no isoframe source.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("invariants", "reduce", "scaling", "cli")
# Nominal pass length in seconds: about how long one pass of each job list
# takes on a 2-core x86-64 machine under CPython 3.11.  It only fixes how
# many passes a --seconds value buys.
PASS_SECONDS = {"invariants": 4.5, "reduce": 4.5, "scaling": 3.0, "cli": 4.5}
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("job_p50_s", "s"),
              ("job_tail_s", "s"), ("peak_rss_mb", "MB"))
STAGES = ("verify_s", "dim_s", "reduce_s", "scaling_s")
# Time of worker.probe() on the reference machine when it is otherwise
# idle.  The worker runs the probe before the first job and after every
# job; each job's time is multiplied by PROBE_REFERENCE_S over the mean of
# the two probes around it.  Shared hosts swing in speed by up to 2x for
# seconds to minutes, and the probe, which runs no isoframe code, slows
# down with them, so the scaled times keep isoframe's own cost.
PROBE_REFERENCE_S = 1.4e-3
# A run makes at least MIN_PASSES passes (two with tracing: one of each
# kind) and starts no further pass that would end after OVERRUN x --seconds
# at the pace of the last one, so a slow spell costs passes, not time.  A
# pass still running KILL_AFTER seconds into the run is killed.
MIN_PASSES = 3
OVERRUN = 1.25
KILL_AFTER = 170.0


class PassError(RuntimeError):
    """A worker exited without a report."""


def run_worker(workload, seed, index, work, trace, timeout, short=False):
    """Start one worker, wait for it and return its report."""
    launch = time.monotonic()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pass", str(index), "--launch", repr(launch),
           "--work", str(work)]
    cmd += ["--trace"] * trace + ["--short"] * short
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        # The worker's own children (cli jobs) share its process group.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassError(f"{workload} pass {index} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        last = (err.strip().splitlines() or [""])[-1]
        raise PassError(f"{workload} pass {index} exited {proc.returncode}: {last}")
    return json.loads(out.strip().splitlines()[-1])


def rescale(report):
    """Express a pass's times at the reference machine speed, in place."""
    probes = report["probes"]
    report["setup_s"] *= PROBE_REFERENCE_S / probes[0]
    for job, before, after in zip(report["jobs"], probes, probes[1:]):
        factor = 2 * PROBE_REFERENCE_S / (before + after)
        job["seconds"] *= factor
        job["stages"] = {k: v * factor for k, v in job["stages"].items()}
    factor = PROBE_REFERENCE_S / statistics.median(probes)
    for entry in report.get("layers", {}).values():
        entry["self_s"] *= factor
    report["startups"] = [s * factor for s in report.get("startups", [])]
    return report


def tail(times):
    """The highest percentile with at least ten jobs beyond it: the 11th
    largest time, and its percentile rank."""
    ordered = sorted(times)
    index = max(len(ordered) - 11, 0)
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def median_jobs(reports):
    """Each job's median scaled time over the passes, which repeat the
    same inputs in fresh processes; the stage split is the median's too."""
    runs = {}
    for report in reports:
        for job in report["jobs"]:
            runs.setdefault(job["label"], []).append(job)
    out = []
    for label, jobs in runs.items():
        jobs.sort(key=lambda job: job["seconds"])
        mid = len(jobs) // 2
        if len(jobs) % 2:
            out.append(jobs[mid])
        else:
            low, high = jobs[mid - 1], jobs[mid]
            stages = set(low["stages"]) | set(high["stages"])
            out.append({"label": label, "seconds": (low["seconds"] + high["seconds"]) / 2,
                        "stages": {k: (low["stages"].get(k, 0.0) + high["stages"].get(k, 0.0)) / 2
                                   for k in stages}})
    return out


def end_to_end(reports):
    """End-to-end metrics and the stage times that apply, from untraced passes."""
    jobs = median_jobs(reports)
    times = [job["seconds"] for job in jobs]
    tail_s, tail_pct = tail(times)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "wall_s": sum(times),
        "job_p50_s": statistics.median(times),
        "job_tail_s": tail_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reports),
    }
    stages = {stage: sum(job["stages"].get(stage, 0.0) for job in jobs) for stage in STAGES}
    return metrics, {k: v for k, v in stages.items() if v}, tail_pct, len(times)


def merge_layers(reports):
    import tracer

    totals = {}
    for report in reports:
        for layer, entry in report["layers"].items():
            into = totals.setdefault(layer, {})
            for key, value in entry.items():
                if key in tracer.MAX_STATS:
                    into[key] = max(into.get(key, 0), value)
                else:
                    into[key] = into.get(key, 0) + value
    return totals


def failures(reports):
    """Jobs and set-up checks attempted, and those that failed."""
    attempted = sum(len(r["jobs"]) + r["setup_checks"] for r in reports)
    failed = sum(not j["ok"] for r in reports for j in r["jobs"])
    failed += sum(len(r["setup_errors"]) for r in reports)
    return attempted, failed


def measure(workload, seed, seconds, trace, work):
    """Run the passes; with tracing, untraced and traced passes alternate."""
    minimum = 2 if trace else MIN_PASSES
    passes = max(minimum, round(seconds / PASS_SECONDS[workload]))
    plain, traced = [], []
    start = last = time.monotonic()
    for index in range(passes):
        now = time.monotonic()
        if index >= minimum and (now - start) + (now - last) > OVERRUN * seconds:
            break
        last = now
        with_trace = bool(trace and index % 2)
        report = rescale(run_worker(workload, seed, index, work, with_trace,
                                    KILL_AFTER - (now - start)))
        (traced if with_trace else plain).append(report)
    return plain, traced


def print_line(name, value, unit, note=""):
    print(f"{name:38s} {value:>14.6g} {unit:8s} {note}".rstrip())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "isoframe" / "__init__.py").is_file():
        print(f"error: no isoframe source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        plain, traced = measure(args.workload, args.seed, args.seconds, args.trace, work)
        if traced:
            kept = ROOT / ".bench_work" / f"trace-{args.workload}-s{args.seed}"
            shutil.rmtree(kept, ignore_errors=True)
            kept.mkdir()
            for spans in work.glob("spans-pass*.jsonl"):
                spans.rename(kept / spans.name)
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = failures(plain + traced)
    metrics, stages, tail_pct, samples = end_to_end(plain)
    with open(ROOT / ".bench_work" / f"jobs-{args.workload}-s{args.seed}.json", "w",
              encoding="utf-8") as fh:
        json.dump({job["label"]: job["seconds"] for job in median_jobs(plain)}, fh, indent=1)
    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)} untraced"
          f"{f', {len(traced)} traced' if traced else ''}  jobs {samples} per pass")
    per_job = f"median of {len(plain)} passes per job"
    for name, unit in END_TO_END:
        note = {"setup_s": f"median of {len(plain)} worker launches",
                "wall_s": f"sum of {samples} jobs, {per_job}",
                "job_p50_s": f"median of {samples} jobs, {per_job}",
                "job_tail_s": f"p{tail_pct:.0f} of {samples} jobs, {per_job}",
                "peak_rss_mb": f"median over {len(plain)} passes"}[name]
        print_line(name, metrics[name], unit, note)
    for stage, value in stages.items():
        print_line(stage, value, "s", f"part of wall_s, {per_job}")
    probe_s = statistics.median(p for r in plain for p in r["probes"])
    print_line("speed", PROBE_REFERENCE_S / probe_s, "ratio",
               f"times above are scaled to the reference speed (median probe "
               f"{probe_s * 1e3:.3f} ms, reference {PROBE_REFERENCE_S * 1e3:.3f} ms)")
    print_line("failed_frac", failed / attempted, "ratio",
               f"{failed} of {attempted} jobs and set-up checks")
    for report in plain + traced:
        for job in report["jobs"]:
            if not job["ok"]:
                print(f"FAILED {job['label']}: {job['error'] or 'wrong answer'}")
        for error in report["setup_errors"]:
            print(f"FAILED set-up: {error}")

    if traced:
        import tracer

        overhead = sum(j["seconds"] for j in median_jobs(traced)) / metrics["wall_s"]
        startups = [s for r in traced for s in r.get("startups", [])]
        result_metrics = tracer.layer_metrics(merge_layers(traced), len(traced), startups,
                                              overhead)
        for name, entry in result_metrics.items():
            print_line(name, entry["value"], entry["unit"])
    else:
        result_metrics = {name: {"value": metrics[name], "unit": unit}
                          for name, unit in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
