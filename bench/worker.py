"""One pass of a workload, in a fresh interpreter started by run.py.

    python3 bench/worker.py --workload NAME --seed N --pass I --launch T
                            --work DIR [--trace] [--short]

Set-up is everything before the first timed job: interpreter start, the
import of isoframe from the checkout's src/, input generation from
(workload, seed) and, for cli, writing the frame files.  Set-up makes
no isoframe call that fills the phi_basis cache or the sphere-moment
tables, so every pass starts cold, as a command-line user does.

The jobs then run one after another.  Each job's output is checked against
the oracles in oracles.py after its timer stops; a wrong answer, an
unexpected exception or an unexpected exit code marks the job failed.  The
last line of standard output is one JSON object with the timings.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

# Calls go through the module attributes so that the tracer's rebinding
# reaches them.
import isoframe  # noqa: E402
from isoframe import frames, phi  # noqa: E402
from isoframe.kscalar import Field  # noqa: E402

import inputs  # noqa: E402
import oracles  # noqa: E402

CLI_ENTRY = "import sys; from isoframe.cli import entry; sys.exit(entry())"


@dataclass
class Job:
    """A timed call sequence and the oracle check of its output.

    `run` receives a stage timer and returns the output that `check`
    judges; `cheap` marks the jobs of the shortened list."""

    label: str
    run: Callable
    check: Callable
    cheap: bool = False


class StageClock:
    """Seconds spent per stage within the current job."""

    def __init__(self):
        self.totals = {}

    @contextmanager
    def __call__(self, stage):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.totals[stage] = self.totals.get(stage, 0.0) + time.perf_counter() - start


def probe():
    """A fixed slice of pure-Python work shaped like isoframe's inner
    loops (Fraction arithmetic, tuple keys, dict updates), timed between
    jobs to measure how fast the machine runs Python right now."""
    start = time.perf_counter()
    acc = {}
    total = Fraction(0)
    for i in range(1, 400):
        key = (i % 5, i % 7, i % 11)
        total += Fraction(i % 13 + 1, i % 17 + 1)
        acc[key] = acc.get(key, 0) + total
    return time.perf_counter() - start


# --- invariants ------------------------------------------------------------

# Disjoint key sets: dim_phi + upper_bound on the first, phi_basis(...).duals
# on the second, so no two jobs of a pass share a phi_basis cache key.
DIM_KEYS = [("H", 2, 4), ("C", 3, 6), ("R", 3, 8), ("R", 6, 4), ("C", 2, 6),
            ("H", 4, 2), ("C", 4, 2), ("R", 6, 2), ("R", 4, 4), ("C", 2, 4),
            ("R", 2, 6), ("R", 5, 4)]
DUAL_KEYS = [("R", 4, 6), ("C", 2, 8), ("C", 3, 4), ("R", 3, 6), ("H", 3, 2),
             ("C", 5, 2), ("R", 3, 4), ("C", 3, 2), ("R", 2, 8), ("R", 2, 4),
             ("C", 2, 2), ("H", 2, 2)]
EXPENSIVE_KEYS = {("C", 3, 6), ("H", 2, 4), ("R", 4, 6), ("C", 2, 8), ("C", 3, 4)}


def dim_job(key):
    tag, m, p = key
    field = inputs.FIELDS[tag]
    expected = oracles.closed_form_dim(tag, m, p)

    def run(clock):
        with clock("dim_s"):
            return phi.dim_phi(field, m, p), phi.upper_bound(field, m, p)

    return Job(f"dim {tag}{m} p{p}", run, lambda out: out == (expected, expected - 1),
               key not in EXPENSIVE_KEYS)


def duals_job(key, rng):
    tag, m, p = key
    field = inputs.FIELDS[tag]
    expected = oracles.closed_form_dim(tag, m, p)
    j, k = rng.randrange(expected), rng.randrange(expected)

    def run(clock):
        with clock("dim_s"):
            basis = phi.phi_basis(field, m, p)
            return basis, basis.duals

    def check(out):
        basis, duals = out
        if basis.dimension != expected or len(duals) != expected:
            return False
        # Two entries of the pairing matrix <<b_j, theta_k>> = delta_jk.
        return (oracles.pairing(basis.basis[j], duals[j]) == 1
                and oracles.pairing(basis.basis[j], duals[k]) == (j == k))

    return Job(f"duals {tag}{m} p{p}", run, check, key not in EXPENSIVE_KEYS)


def invariants_jobs(rng, work):
    return [dim_job(key) for key in DIM_KEYS] + [duals_job(key, rng) for key in DUAL_KEYS]


# --- reduce ------------------------------------------------------------------

# (design, reflected copies, weight splits, in the shortened list); every
# union has more vectors than dim Phi or a split weight, so it must reduce.
UNIONS = [("R2-rational-p4", 3, 2, True), ("R2-rational-p4", 2, 1, False),
          ("synthetic", 2, 2, True), ("synthetic", 3, 0, False),
          ("C2-mub-p4", 2, 2, True), ("C2-mub-p4", 3, 1, False),
          ("C2-mub-p4", 3, 0, False), ("C2-mub-p4", 2, 1, False),
          ("C2-mub-p4", 3, 2, False), ("H2-design-p4", 1, 2, False),
          ("C2-orthonormal-p2", 3, 1, True),
          ("C2-orthonormal-p2", 2, 1, False), ("H2-orthonormal-p2", 3, 2, False),
          ("H2-orthonormal-p2", 2, 1, False), ("C3-orthonormal-p2", 4, 0, False),
          ("R3-orthonormal-p2", 3, 1, False)]
# (field, m, p, n) with n <= dim Phi_K(m,p): dependence scans every row.
# Four C^2 p=6 frames of equal cost sit at the middle of the job times, so
# job_p50_s averages two of them instead of reading one job's noise.
RANDOM_FRAMES = [("R", 4, 8, 25), ("R", 3, 8, 20), ("R", 4, 6, 30), ("C", 3, 4, 20),
                 ("H", 2, 4, 12), ("C", 2, 6, 12), ("C", 2, 6, 12), ("C", 2, 6, 12),
                 ("C", 2, 6, 12), ("R", 3, 6, 15)]


def reduce_job(label, frame, rng, cheap):
    dim = oracles.closed_form_dim(frame.field.name, frame.m, frame.p)

    def run(clock):
        with clock("verify_s"):
            before = frames.verify(frame).passed
        steps, current = 0, frame
        with clock("reduce_s"):
            while (cert := frames.dependence(current)) is not None:
                current = frames.reduce_once(current, cert)
                steps += 1
        with clock("verify_s"):
            after = frames.verify(current).passed
        return before, steps, current, after

    def check(out):
        before, steps, current, after = out
        final = oracles.plain(current)
        return (before and after and steps >= 1 and current.n <= dim
                and frame.n - current.n >= steps
                and oracles.identity_holds(final, rng)
                and oracles.independent_by_evaluation(final, rng))

    return Job(label, run, check, cheap)


def full_rank_job(label, frame, rng):
    def run(clock):
        with clock("verify_s"):
            passed = frames.verify(frame).passed
        with clock("reduce_s"):
            cert = frames.dependence(frame)
        return passed, cert

    def check(out):
        passed, cert = out
        data = oracles.plain(frame)
        return (not passed and cert is None
                and not oracles.identity_holds(data, rng)
                and oracles.independent_by_evaluation(data, rng))

    return Job(label, run, check)


def redundant_union(name, copies, splits, rng):
    design = inputs.DESIGNS[name]()
    frame = inputs.union([inputs.reflect(design, rng) for _ in range(copies)], rng)
    return inputs.split_weights(frame, splits, rng)


def reduce_jobs(rng, work):
    jobs = []
    for name, copies, splits, cheap in UNIONS:
        frame = redundant_union(name, copies, splits, rng)
        jobs.append(reduce_job(f"reduce {name} x{copies}+{splits}", frame, rng, cheap))
    for i, (tag, m, p, n) in enumerate(RANDOM_FRAMES):
        frame = inputs.random_frame(inputs.FIELDS[tag], m, p, n, rng)
        jobs.append(full_rank_job(f"full-rank {tag}{m} p{p} n{n} #{i}", frame, rng))
    return jobs


# --- scaling -----------------------------------------------------------------

def scaling_job(label, frame, grid, reduces, rng, cheap):
    def run(clock):
        with clock("scaling_s"):
            forms = frames.scaling_coefficients(frame)
            return forms, frames.scaling_reduce(frame, grid=grid)

    def check(out):
        forms, reduced = out
        # a_k(1,...,1) = w_k: the sum of the coefficients of each form.
        if [sum(a.terms.values()) for a in forms.coefficients] != list(frame.weights):
            return False
        if not reduces:
            return reduced is None
        if reduced is None or reduced.n != frame.n - 1:
            return False
        data = oracles.plain(reduced)
        return oracles.identity_holds(data, rng, tolerance=None if reduced.is_exact else 1e-6)

    return Job(label, run, check, cheap)


def scaling_jobs(rng, work):
    """Verified independent frames with diagonal structure.  A unit-phase
    twist leaves every a_k(lambda) unchanged, so twisted frames reduce
    exactly when their untwisted design does: the designs drop one vector,
    orthonormal p = 2 frames (a_k = lambda_k > 0) never do."""
    twist = inputs.phase_twist
    ortho = inputs.orthonormal_p2
    R, C, H = Field.R, Field.C, Field.H
    # (label, frame, grid, reduces, in the shortened list)
    cases = [
        ("synthetic", inputs.synthetic_frame(), None, True, True),
        ("synthetic twist 1", twist(inputs.synthetic_frame(), rng), None, True, True),
        ("synthetic twist 2", twist(inputs.synthetic_frame(), rng), None, True, False),
        ("R2-rational-p4", inputs.real2_rational_p4(), None, True, True),
        ("R2-rational-p4 twist", twist(inputs.real2_rational_p4(), rng), None, True, False),
        ("C2-mub-p4", inputs.mub_c2_p4(), None, True, True),
        ("C2-mub-p4 twist 1", twist(inputs.mub_c2_p4(), rng), None, True, False),
        ("C2-mub-p4 twist 2", twist(inputs.mub_c2_p4(), rng), None, True, False),
        ("C2-mub-p4 twist 3", twist(inputs.mub_c2_p4(), rng), None, True, False),
        ("C2-mub-p4 twist 4", twist(inputs.mub_c2_p4(), rng), None, True, False),
        ("C2-mub-p4 twist 5", twist(inputs.mub_c2_p4(), rng), None, True, False),
        ("R3-orthonormal grid 20", ortho(R, 3), 20, False, False),
        ("R2-orthonormal", ortho(R, 2), None, False, True),
        ("R3-orthonormal", ortho(R, 3), None, False, True),
        ("R4-orthonormal", ortho(R, 4), None, False, True),
        ("C2-orthonormal twist", twist(ortho(C, 2), rng), None, False, False),
        ("C3-orthonormal twist", twist(ortho(C, 3), rng), None, False, True),
        ("C3-orthonormal twist grid 15", twist(ortho(C, 3), rng), 15, False, False),
        ("C4-orthonormal twist", twist(ortho(C, 4), rng), None, False, False),
        ("H2-orthonormal twist", twist(ortho(H, 2), rng), None, False, False),
        ("H3-orthonormal twist", twist(ortho(H, 3), rng), None, False, False),
    ]
    return [scaling_job(f"scale {label}", frame, grid, reduces, rng, cheap)
            for label, frame, grid, reduces, cheap in cases]


# --- cli ---------------------------------------------------------------------

class CliRunner:
    """Starts one isoframe process per job, never two at a time."""

    def __init__(self, work, traced):
        self.work = work
        self.traced = traced
        self.spans = []
        self.startups = []
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env

    def __call__(self, args):
        if self.traced:
            spans_path = self.work / f"cli-spans-{len(self.startups)}.jsonl"
            cmd = [sys.executable, str(BENCH / "cli_traced.py"), str(spans_path),
                   repr(time.monotonic()), *args]
        else:
            cmd = [sys.executable, "-c", CLI_ENTRY, *args]
        done = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              cwd=ROOT, timeout=120)
        if self.traced:
            import tracer
            meta, spans = tracer.read_spans(spans_path)
            spans_path.unlink()
            self.startups.append(meta["startup_s"])
            self.spans.append(spans)
        return done.returncode, done.stdout


def cli_job(label, stage, args, expect_code, check_report, runner):
    def run(clock):
        with clock(stage):
            return runner(args)

    def check(out):
        code, stdout = out
        if code != expect_code:
            return False
        if check_report is None:
            return stdout == ""
        return check_report(stdout)

    return Job(f"cli {label}", run, check)


def cli_jobs(rng, work, runner):
    passing = {
        "R2-rational-p4": inputs.real2_rational_p4(),
        "synthetic": inputs.synthetic_frame(),
        "C2-mub-p4": inputs.mub_c2_p4(),
        "C2-mub-p4-twisted": inputs.phase_twist(inputs.mub_c2_p4(), rng),
        "H2-design-p4": inputs.design_h2_p4(),
        "R2-rational-p4-reflected": inputs.reflect(inputs.real2_rational_p4(), rng),
        "C2-mub-p4-reflected": inputs.reflect(inputs.mub_c2_p4(), rng),
        "C3-orthonormal-twisted": inputs.phase_twist(inputs.orthonormal_p2(Field.C, 3), rng),
        "R3-orthonormal": inputs.orthonormal_p2(Field.R, 3),
    }
    failing = {f"{name}-perturbed": inputs.perturb(passing[name], rng)
               for name in ("synthetic", "C2-mub-p4", "R2-rational-p4-reflected",
                            "C3-orthonormal-twisted")}
    unions = {f"{name}-x{copies}": redundant_union(name, copies, splits, rng)
              for name, copies, splits in (("R2-rational-p4", 2, 1), ("C2-mub-p4", 2, 1),
                                           ("H2-orthonormal-p2", 3, 2))}
    paths = {}
    for name, frame in {**passing, **failing, **unions}.items():
        paths[name] = work / f"{name}.json"
        frames.save_frame(frame, paths[name])

    def verify_ok(frame, verdict):
        dim = oracles.closed_form_dim(frame.field.name, frame.m, frame.p)
        return lambda r: (r["verdict"] == verdict and r["n"] == frame.n
                          and r["dim"] == dim and r["bound"] == dim - 1)

    def reduce_ok(name, frame):
        dim = oracles.closed_form_dim(frame.field.name, frame.m, frame.p)

        def ok(report):
            out = oracles.parse_plain((work / f"{name}.out.json").read_text())
            return (report["n_initial"] == frame.n and report["n_final"] == len(out.vectors)
                    and report["n_final"] <= dim
                    and frame.n - report["n_final"] >= len(report["steps"])
                    and oracles.identity_holds(out, rng)
                    and oracles.independent_by_evaluation(out, rng))

        return ok

    def dim_ok(tag, m, p):
        dim = oracles.closed_form_dim(tag, m, p)
        return lambda r: r["dim"] == dim and r["bound"] == dim - 1

    def scale_ok(frame, reduces):
        if reduces:
            return lambda r: r["result"] == "reduced" and r["n_final"] == frame.n - 1
        return lambda r: r["result"] == "none" and r["n_initial"] == frame.n

    def catalog_ok(n, path=None):
        def ok(text):
            data = oracles.parse_plain(path.read_text() if path else text)
            return len(data.vectors) == n and oracles.identity_holds(data, rng)

        return ok

    def as_json(check):
        return lambda stdout: check(json.loads(stdout))

    jobs = []
    add = jobs.append
    for name, frame in passing.items():
        add(cli_job(f"verify {name}", "verify_s", ["verify", str(paths[name]), "--output", "json"],
                    0, as_json(verify_ok(frame, "pass")), runner))
    for name, frame in failing.items():
        add(cli_job(f"verify {name}", "verify_s", ["verify", str(paths[name]), "--output", "json"],
                    1, as_json(verify_ok(frame, "fail")), runner))
    for tag, m, p in (("R", 3, 6), ("R", 4, 4), ("C", 3, 2), ("C", 3, 4), ("H", 3, 2)):
        add(cli_job(f"dim {tag}{m} p{p}", "dim_s", ["dim", tag, str(m), str(p), "--output", "json"],
                    0, as_json(dim_ok(tag, m, p)), runner))
    for name, frame in unions.items():
        out = work / f"{name}.out.json"
        add(cli_job(f"reduce {name}", "reduce_s",
                    ["reduce", str(paths[name]), "--out", str(out), "--output", "json"],
                    0, as_json(reduce_ok(name, frame)), runner))
    add(cli_job("reduce refused", "reduce_s",
                ["reduce", str(paths["synthetic-perturbed"]), "--output", "json"], 1, None, runner))
    for name, reduces in (("synthetic", True), ("C2-mub-p4", True), ("R3-orthonormal", False)):
        add(cli_job(f"scale-reduce {name}", "scaling_s",
                    ["scale-reduce", str(paths[name]), "--output", "json"],
                    0, as_json(scale_ok(passing[name], reduces)), runner))
    catalog_out = work / "catalog-C3.json"
    add(cli_job("catalog R2 p4", "catalog_s", ["catalog", "R", "2", "4", "real2-rational-p4"],
                0, catalog_ok(4), runner))
    add(cli_job("catalog C3 p2 --out", "catalog_s",
                ["catalog", "C", "3", "2", "orthonormal-p2", "--out", str(catalog_out)],
                0, catalog_ok(3, catalog_out), runner))
    return jobs


# --- pass --------------------------------------------------------------------

JOB_LISTS = {"invariants": invariants_jobs, "reduce": reduce_jobs, "scaling": scaling_jobs}
WORKLOADS = ("invariants", "reduce", "scaling", "cli")


DESIGN_CHECKS = (inputs.mub_c2_p4, inputs.design_h2_p4)


def check_designs():
    """The two projective 2-designs must verify with a zero residual; verify
    touches neither the phi_basis cache nor the sphere-moment tables."""
    return [f"{make.__name__} does not verify with a zero residual"
            for make in DESIGN_CHECKS if not frames.verify(make()).residual.is_zero]


def run_pass(args):
    if Path(isoframe.__file__).resolve().parent != SRC / "isoframe":
        raise SystemExit(f"isoframe was imported from {isoframe.__file__}, not {SRC}")
    # Every pass of a run builds the same inputs, so run.py can take each
    # job's median time over passes.
    rng = random.Random(f"{args.workload}:{args.seed}")
    tr = None
    if args.trace:
        import tracer
        tr = tracer.Tracer()
        tr.install()
    checked = args.workload != "invariants"
    setup_errors = check_designs() if checked else []
    # Frame files of this pass only, so no check can read an earlier pass's.
    files = args.work / f"pass{args.pass_index}"
    files.mkdir(exist_ok=True)
    runner = None
    if args.workload == "cli":
        runner = CliRunner(files, traced=args.trace)
        jobs = cli_jobs(rng, files, runner)
    else:
        jobs = JOB_LISTS[args.workload](rng, files)
    if args.short:
        jobs = [job for job in jobs if job.cheap]
    if len({job.label for job in jobs}) != len(jobs):
        raise SystemExit("job labels must be unique: run.py matches jobs across passes by label")

    results = []
    setup_s = time.monotonic() - args.launch
    probes = [probe()]
    for index, job in enumerate(jobs):
        clock = StageClock()
        error = None
        if tr:
            tr.job, tr.recording = index, True
        start = time.perf_counter()
        try:
            out = job.run(clock)
        except Exception as exc:  # a failed job is counted, never fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if tr:
            tr.recording = False
        probes.append(probe())
        ok = False
        if error is None:
            try:
                ok = bool(job.check(out))
            except Exception as exc:  # an output the oracle cannot read is wrong
                error = f"check raised {type(exc).__name__}: {exc}"
        results.append({"label": job.label, "seconds": seconds, "stages": clock.totals,
                        "ok": ok, "error": error})

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report = {
        "setup_s": setup_s,
        "probes": probes,
        "jobs": results,
        "peak_rss_mb": max(own, children) / 1024,
        "setup_checks": len(DESIGN_CHECKS) if checked else 0,
        "setup_errors": setup_errors,
    }
    if tr:
        import tracer
        spans = tr.records()
        if runner is not None:
            for index, child in enumerate(runner.spans):
                spans.extend(tracer.rebase(child, len(spans), index))
            report["startups"] = runner.startups
        tracer.write_spans(args.work / f"spans-pass{args.pass_index}.jsonl", spans)
        report["layers"] = tracer.aggregate(spans)
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description="Run one pass of a benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass", dest="pass_index", type=int, default=0)
    parser.add_argument("--launch", type=float, required=True,
                        help="time.monotonic() when the worker was started")
    parser.add_argument("--work", type=Path, required=True,
                        help="scratch directory for frame and span files")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--short", action="store_true",
                        help="run only the cheap jobs (for the count test)")
    report = run_pass(parser.parse_args(argv))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
