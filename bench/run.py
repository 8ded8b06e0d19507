"""The loopmoments benchmark.

Run from the root of a checkout; it imports ``loopmoments`` from ``src``::

    python3 bench/run.py --workload three-var --seed 1 --seconds 30 --trace 0
    python3 bench/run.py                      # every workload, as tables

With ``--workload`` it makes one run of one workload and prints, as its last
line, a JSON object with ``correct``, ``attempted``, ``failed`` and the
``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``).  It exits non-zero without that line
when the program cannot be imported.  Without ``--workload`` it runs every
workload untraced once and traced twice, prints each metric by name and
unit with one row per workload, and fails when any job's output is wrong or
the two traced runs disagree on a count.

Everything runs one process at a time.  Set-up is ``N`` fresh interpreters
that each ``import loopmoments.cli``; then one fresh job process
(``bench/job.py``) imports ``loopmoments.cli`` before anything else and runs
the workload's passes in a closed loop with one client.  Only walk-verify
uses ``--seed`` (as the verifier's seed).

End-to-end metrics, with times at nominal machine speed (``calibration.py``:
each wall time is scaled by a small fixed pure-Python kernel sampled during
the passes, or around each set-up probe, because the shared CPU's speed
drifts far more than the program's times do from run to run; the raw wall
times are printed on the line before the JSON):

* ``setup_s``: median time of a fresh interpreter importing
  ``loopmoments.cli``, the cold start every CLI call pays.
* ``job_s``: median over passes of the per-job time, from source text to
  the txt and json reports (``analyze``, ``simulate`` + ``check`` where the
  workload verifies, ``emit``).  A walk-ladder pass has eight jobs.
* ``peak_rss_mb``: peak resident memory of the job process, read after its
  first pass.

The share of failed jobs (``failed_ratio`` in the tables) is ``failed`` over
``attempted``; it is 0 whenever the program is correct, so it is carried by
those two fields rather than as a metric.

Per-layer metrics come from the traced run.  Times are wall times per job,
from the median traced pass, and ``calibration_s`` is the kernel's median
time in the run; counts are per pass and must repeat exactly.  The time
metrics partition the traced ``job`` spans: ``trace.job_s`` equals their sum
plus ``trace.unattributed_s``, and ``trace.overhead_s`` is traced minus
untraced ``job_s``.  Which end-to-end metric each should move, and where:

=================================================  ===========  =====================
metric                                             moves        mostly on / ~0 on
=================================================  ===========  =====================
moments.closure_s, moments.closure_size,           job_s        walk-ladder /
symbolic.substitute_calls                                       walk-verify
recurrences.build_s, recurrences.solve_s (with     job_s        three-var /
the residual self-check), recurrences.topo_s,                   walk-verify
recurrences.expoly_terms,
recurrences.side_conditions
symbolic.fraction_new, symbolic.poly_new,          job_s,       three-var and
symbolic.poly_mul, symbolic.poly_add,              peak_rss_mb  walk-ladder /
symbolic.kernel_self_s (under cProfile),                        walk-verify
symbolic.max_coeff_terms
report.txt_s, report.json_s, report.json_bytes     job_s        three-var / walk-verify
verifier.simulate_s, verifier.check_s,             job_s        walk-verify / others
verifier.samples_per_s, verifier.entries_failed
setup.numpy_import_s, setup.package_import_s       setup_s,     all / none
(``python -X importtime``)                         peak_rss_mb
frontend.s, moments.initial_s, pipeline.self_s     job_s        stay under 1% of job_s
=================================================  ===========  =====================

``setup.package_import_s`` is the import of ``loopmoments.cli`` without
numpy.  ``report.json_bytes`` is measured with ``elapsed_seconds`` zeroed,
the one field that changes from run to run.  The spans of the median traced
pass are written to ``.bench_out/<workload>.spans.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import NOMINAL_S, kernel_seconds

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("walk-ladder", "three-var", "walk-verify")
SETUP_PROBES = 15
IMPORTTIME_PROBES = 7
KERNEL_RUNS = 5
CHILD_TIMEOUT = 170


class BenchError(Exception):
    """The program could not be run; no result is printed."""


def _env() -> dict[str, str]:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _python(*args: str, timeout: float = 60) -> subprocess.CompletedProcess:
    proc = subprocess.run(
        [sys.executable, *args], env=_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args[:3])} failed:\n{proc.stderr.strip()}")
    return proc


def setup_seconds() -> dict[str, float]:
    """Cold-start medians, at nominal speed and as wall time.  The speed
    kernel runs right before and after each probe, not during it: the probe
    is another process, and running both at once would make them compete."""
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        kernel = [kernel_seconds() for _ in range(KERNEL_RUNS)]
        start = time.perf_counter()
        _python("-c", "import loopmoments.cli")
        wall.append(time.perf_counter() - start)
        kernel += [kernel_seconds() for _ in range(KERNEL_RUNS)]
        scaled.append(wall[-1] * NOMINAL_S / statistics.mean(kernel))
    return {"setup_s": statistics.median(scaled), "wall.setup_s": statistics.median(wall)}


def import_layers() -> dict[str, float]:
    """Medians of numpy's import time and the rest of ``loopmoments.cli``'s."""
    numpy_s, package_s = [], []
    for _ in range(IMPORTTIME_PROBES):
        cumulative = {}
        for line in _python("-X", "importtime", "-c", "import loopmoments.cli").stderr.splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[1].strip().isdigit():
                cumulative[fields[2].strip()] = int(fields[1]) / 1e6
        numpy_s.append(cumulative.get("numpy", 0.0))
        package_s.append(cumulative["loopmoments.cli"] - numpy_s[-1])
    return {
        "setup.numpy_import_s": statistics.median(numpy_s),
        "setup.package_import_s": statistics.median(package_s),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run: set-up probes, then one job process.  Returns the result
    object (with every metric the run measured, unfiltered)."""
    if not (SRC / "loopmoments" / "cli.py").is_file():
        raise BenchError(f"no loopmoments sources under {SRC}")
    metrics = import_layers() if trace else setup_seconds()
    proc = _python(
        str(BENCH / "job.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), timeout=CHILD_TIMEOUT,
    )
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics.update(child["metrics"])
    for problem in child["problems"]:
        print(f"{workload}: {problem}", file=sys.stderr)
    return {
        "correct": child["failed"] == 0 and not child["problems"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }


def select(result: dict, specs: list[dict]) -> dict:
    """The result restricted to the listed metrics, with their units."""
    return {
        **result,
        "metrics": {
            s["name"]: {"value": result["metrics"][s["name"]], "unit": s["unit"]} for s in specs
        },
    }


def one(args, spec) -> int:
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    specs = spec["per_layer" if args.trace else "end_to_end"]
    m = result["metrics"]
    print(f"{args.workload}: {result['attempted']} jobs, {m['passes']} untraced passes, "
          f"{result['failed']} failed; wall job {m['wall.job_s']:.4f} s, calibration kernel "
          f"{m['calibration_s'] * 1000:.1f} ms (nominal {NOMINAL_S * 1000:.0f} ms)")
    print(json.dumps(select(result, specs)))
    return 0


def table(args, spec) -> int:
    ok = True
    rows = []
    for workload in WORKLOADS:
        e2e = select(run_workload(workload, args.seed, args.seconds, False), spec["end_to_end"])
        traces = [
            select(run_workload(workload, args.seed, args.seconds, True), spec["per_layer"])
            for _ in range(2)
        ]
        counts = [
            {k: m["value"] for k, m in t["metrics"].items() if m["unit"] == "count"}
            for t in traces
        ]
        deterministic = counts[0] == counts[1]
        ok &= deterministic and e2e["correct"] and all(t["correct"] for t in traces)
        rows.append((workload, e2e, traces[0], deterministic))

    names = [s["name"] for s in spec["end_to_end"]]
    print("workload      " + "".join(f"{n:>16}" for n in names) + "    failed_ratio")
    for workload, e2e, _, _ in rows:
        values = "".join(
            f"{e2e['metrics'][n]['value']:>13.4f} {e2e['metrics'][n]['unit']:<2}" for n in names
        )
        print(f"{workload:<14}{values}    {e2e['failed'] / e2e['attempted']:.3f}")
    print()
    print(f"{'per-layer metric':<30}{'unit':<7}" + "".join(f"{w:>15}" for w, *_ in rows))
    for s in spec["per_layer"]:
        values = "".join(f"{t['metrics'][s['name']]['value']:>15.6g}" for _, _, t, _ in rows)
        print(f"{s['name']:<30}{s['unit']:<7}{values}")
    print()
    for workload, _, _, deterministic in rows:
        print(f"{workload}: counts of two traced runs "
              f"{'match' if deterministic else 'DIFFER'}")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload and print one JSON line (default: all, as tables)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        return one(args, spec) if args.workload else table(args, spec)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
