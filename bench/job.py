"""One measured run of one workload, in a fresh interpreter.

    python3 bench/job.py --workload NAME --seed N --seconds S --trace 0|1

``bench/run.py`` starts this with ``PYTHONPATH`` pointing at the checkout's
``src``.  ``loopmoments.cli`` is the first import, so nothing loaded here
inflates the peak memory or hides a later lazy-import change.

A pass runs the workload's jobs one after another (a closed loop with one
client); a job goes from source text to the txt and json reports the CLI
would print.  Passes repeat until ``S`` seconds are used, with the garbage
of the previous pass collected untimed in between, and each job's output
is checked against ``bench/reference.json`` after its pass.  During untraced
passes a timer runs the speed kernel of ``calibration.py`` every 0.1 s; its
time is taken out of the pass and its mean scales ``job_s`` to nominal
speed.  The last line of stdout is a JSON object with the run's counts and
metrics.

With ``--trace 1`` the run has three phases: untraced passes for the first
half of ``S``, passes with spans for the second half, then one pass under
cProfile for the kernel counts.
"""

import loopmoments.cli as cli  # noqa: I001  -- must be the first import

import argparse
import contextlib
import gc
import json
import resource
import statistics
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from calibration import NOMINAL_S, Sampler
from loopmoments.report import report_from_json
from workloads import BINDINGS, PROGRAMS, VERIFY_ITERATIONS, VERIFY_TRIALS, WORKLOADS

BENCH = Path(__file__).resolve().parent
REFERENCE = json.loads((BENCH / "reference.json").read_text())


class _Untraced:
    def span(self, name):
        return contextlib.nullcontext()


def run_job(workload, goals, seed, tracer):
    source = PROGRAMS[workload.program]
    with tracer.span("pipeline.analyze"):
        report = cli.analyze(source, list(goals), name=workload.program)
    cfg = None
    if workload.verify:
        bindings = {k: Fraction(v) for k, v in BINDINGS[workload.program].items()}
        cfg = cli.SimConfig(bindings, VERIFY_ITERATIONS, VERIFY_TRIALS, seed)
    # Every job has the same five stages; on workloads that do not verify
    # the two verifier stages are empty.
    with tracer.span("verifier.simulate"):
        estimates = cli.simulate(report.validated, cfg, set(report.invariants)) if cfg else None
    with tracer.span("verifier.check"):
        if cfg:
            report = report.with_verification(cli.check(report.invariants, estimates, cfg))
    with tracer.span("report.txt"):
        txt = cli.emit(report, "txt")
    with tracer.span("report.json"):
        js = cli.emit(report, "json")
    return report, txt, js


def check_job(workload, goals, report, txt, js) -> list[str]:
    """Problems with one job's output; empty when it is correct."""
    ref = REFERENCE["programs"][workload.program]
    bindings = {k: Fraction(v) for k, v in ref["bindings"].items()}
    problems = []
    names = {str(m) for m in report.invariants}
    for k in goals:
        missing = {f"{v}^{k}" for v in ref["variables"]} - names
        if missing:
            problems.append(f"goal {k}: no closed form for {sorted(missing)}")
    for moment, form in report.invariants.items():
        expected = ref["values"].get(str(moment))
        if expected is None:
            problems.append(f"E[{moment}] has no reference value")
            continue
        for n, value in enumerate(expected):
            if form.evaluate(n, bindings) != Fraction(value):
                problems.append(f"E[{moment}] at n = {n} differs from {value}")
        if f"E[{moment}] = " not in txt:
            problems.append(f"txt report lacks E[{moment}]")
    if report_from_json(js) != report:
        problems.append("report_from_json(emit_json(report)) != report")
    if workload.verify and not (report.verification and report.verification.passed):
        problems.append("verification did not PASS")
    return problems


def pass_counts(report_outputs) -> dict[str, int]:
    """Deterministic counts of one pass, summed over its jobs."""
    counts = dict.fromkeys(
        ("moments.closure_size", "recurrences.expoly_terms", "recurrences.side_conditions",
         "symbolic.max_coeff_terms", "report.json_bytes", "verifier.entries_failed"), 0)
    for report, _, _ in report_outputs:
        forms = report.invariants.values()
        counts["moments.closure_size"] += len(report.invariants)
        counts["recurrences.expoly_terms"] += sum(len(list(f.terms())) for f in forms)
        counts["recurrences.side_conditions"] += len(report.side_conditions)
        counts["symbolic.max_coeff_terms"] = max(
            [counts["symbolic.max_coeff_terms"]]
            + [len(list(c.terms())) for f in forms for _, _, c in f.terms()]
        )
        # elapsed_seconds differs from run to run; count bytes without it.
        counts["report.json_bytes"] += len(
            cli.emit(replace(report, elapsed_seconds=0.0), "json").encode()
        )
        if report.verification:
            counts["verifier.entries_failed"] += sum(
                not e.passed for e in report.verification.entries
            )
    return counts


class Run:
    """Passes of one workload, with the checks of every job."""

    def __init__(self, name, seed):
        self.name = name
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.peak_rss_mb = None

    def jobs(self, tracer):
        """Run one pass; return its wall time and the jobs' outputs."""
        outputs = []
        start = time.perf_counter()
        for goals in self.workload.goal_lists:
            with tracer.span("job"):
                outputs.append(run_job(self.workload, goals, self.seed, tracer))
        elapsed = time.perf_counter() - start
        if self.peak_rss_mb is None:
            # Read before the first check, whose own allocations would
            # otherwise set the peak.
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return elapsed, outputs

    def check(self, outputs) -> None:
        for goals, out in zip(self.workload.goal_lists, outputs):
            self.attempted += 1
            problems = check_job(self.workload, goals, *out)
            self.failed += bool(problems)
            self.problems.extend(problems)

    def passes(self, seconds, tracer, after_pass=None, calibrate=False):
        """(per-job wall time, factor to nominal speed) of each pass that fits
        in ``seconds`` (at least one).  With ``calibrate`` the speed kernel
        samples the machine during the pass and its time is taken out of the
        pass; otherwise the factor is 1."""
        deadline = time.perf_counter() + seconds
        samples = []
        while not samples or time.perf_counter() + elapsed < deadline:
            gc.collect()
            sampler = Sampler()
            with sampler if calibrate else contextlib.nullcontext():
                elapsed, outputs = self.jobs(tracer)
            self.check(outputs)
            if after_pass:
                after_pass(outputs)
            del outputs
            per_job = (elapsed - sampler.spent) / len(self.workload.goal_lists)
            samples.append((per_job, sampler.scale() if calibrate else 1.0))
        return samples


def traced(run: Run, seconds: float, untraced_wall_s: float) -> dict:
    from tracing import Tracer, kernel_profile

    tracer = Tracer()
    tracer.install()
    per_pass = []

    def record(outputs):
        per_pass.append((tracer.layer_times(), pass_counts(outputs), tracer.spans))
        tracer.spans = []

    times = [t for t, _ in run.passes(seconds, tracer, record)]
    if any(counts != per_pass[0][1] for _, counts, _ in per_pass):
        run.problems.append("counts differ between traced passes")
    # Report the breakdown of the median traced pass, so its parts add up.
    median = sorted(range(len(times)), key=times.__getitem__)[(len(times) - 1) // 2]
    layers, counts, spans = per_pass[median]
    (BENCH.parent / ".bench_out").mkdir(exist_ok=True)
    (BENCH.parent / ".bench_out" / f"{run.name}.spans.json").write_text(json.dumps(spans))

    jobs = len(run.workload.goal_lists)
    profiled = []
    kernel = kernel_profile(lambda: profiled.append(run.jobs(_Untraced())))
    run.check(profiled[0][1])
    metrics = {name: t / jobs for name, t in layers.items()}
    metrics.update(counts)
    metrics.update(kernel)
    metrics["symbolic.kernel_self_s"] /= jobs
    simulate_s = layers["verifier.simulate_s"]
    samples = VERIFY_TRIALS * VERIFY_ITERATIONS * jobs if run.workload.verify else 0
    metrics["verifier.samples_per_s"] = samples / simulate_s
    metrics["trace.job_s"] = times[median]
    metrics["trace.overhead_s"] = times[median] - untraced_wall_s
    return metrics


def untraced(run: Run, seconds: float) -> dict:
    samples = run.passes(seconds, _Untraced(), calibrate=True)
    return {
        "job_s": statistics.median(t * scale for t, scale in samples),
        "wall.job_s": statistics.median(t for t, _ in samples),
        "calibration_s": statistics.median(NOMINAL_S / scale for _, scale in samples),
        "peak_rss_mb": run.peak_rss_mb,
        "passes": len(samples),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    run = Run(args.workload, args.seed)
    metrics = untraced(run, args.seconds / (2 if args.trace else 1))
    if args.trace:
        metrics.update(traced(run, args.seconds / 2, metrics["wall.job_s"]))
    print(json.dumps({
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems[:20],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
