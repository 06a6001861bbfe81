"""blfqvqe benchmark: one workload, one seed, one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
its `src` directory.  The process pins itself to one CPU, sets the
workload up SETUP_CYCLES times, each time on a freshly imported package,
then repeats whole rounds of the workload's job list for S seconds (at
least MIN_ROUNDS rounds), timing each job and checking every output
outside the timed region.  Times are rescaled to the reference speed of
the calibration kernel run around each job (calibration.py).  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.

With --trace 0 the metrics are end-to-end: setup_s (median set-up),
job_ms (median over rounds of the round's job time / jobs) and
peak_rss_mb.  With --trace 1 rounds alternate between untraced and
traced, and the metrics are the per-layer figures from the traced
rounds' spans plus the tracing overhead; the spans are written to
.bench_runs/trace-<workload>-<seed>.json.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUN_ROOT = os.path.join(ROOT, ".bench_runs")
WORKLOAD_NAMES = ("vqe-exact", "shot-scaling", "noisy-vqe", "cli-pipeline")
SETUP_CYCLES = 5
MIN_ROUNDS = 3
MIN_TRACED_ROUNDS = 4

# per-layer metric name -> unit, in the order they are printed
PER_LAYER = {
    "import_s": "s", "import.cold_s": "s",
    "hamiltonian.build_us": "us", "hamiltonian.diagonalize_us": "us",
    "pauli.encode_us": "us", "pauli.terms.direct": "count",
    "pauli.terms.compact": "count", "pauli.terms.bk": "count",
    "simulator.run_circuit.calls": "count", "simulator.run_circuit.us": "us",
    "simulator.expectation_exact.calls": "count",
    "simulator.expectation_exact.us": "us",
    "simulator.expectation_sampled.calls": "count",
    "simulator.expectation_sampled.us": "us", "simulator.shots": "count",
    "vqe.solves": "count", "vqe.evals_per_solve": "count",
    "vqe.iterations_per_solve": "count", "vqe.vqe_run.self_ms": "ms",
    "vqe.scaling_experiment.self_ms": "ms", "vqe.relative_variance.us": "us",
    "observables.elastic_form_factor.ms": "ms",
    "observables.form_factor_matrix.calls": "count",
    "observables.pdf.us": "us", "observables.decay_constant.us": "us",
    "observables.mass_radius.us": "us", "observables.charge_radius.us": "us",
    "cli.hamiltonian.ms": "ms", "cli.vqe.ms": "ms", "cli.observables.ms": "ms",
    "cli.self_ms": "ms", "cli.bytes_written": "B",
    "trace.overhead_ms": "ms", "job_wall_ms": "ms", "calibration_ms": "ms",
}
END_TO_END = {"setup_s": "s", "job_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def import_package(with_cli):
    """Import blfqvqe afresh, so module state and lazy caches start empty."""
    for name in [m for m in sys.modules
                 if m == "blfqvqe" or m.startswith("blfqvqe.")]:
        del sys.modules[name]
    pkg = importlib.import_module("blfqvqe")
    if with_cli:
        importlib.import_module("blfqvqe.cli")
    where = os.path.dirname(os.path.abspath(pkg.__file__))
    if where != os.path.join(SRC, "blfqvqe"):
        raise ImportError(f"blfqvqe imported from {where}, not from {SRC}")
    return pkg


def set_up(args, run_dir):
    """SETUP_CYCLES set-ups; returns the last workload and the timings.

    Each cycle's time is rescaled by the calibration passes around it;
    the first cycle has only the one after it, because numpy, which the
    kernel needs, must first load inside that cycle's import.
    """
    setup_s, import_s, layer_rows = [], [], []
    cal_before = None
    for _ in range(SETUP_CYCLES):
        gc.collect()
        start = time.perf_counter()
        pkg = import_package(args.workload == "cli-pipeline")
        imported = time.perf_counter()
        import calibration  # after the package, so numpy loads in import_s
        import workloads
        workload = workloads.WORKLOADS[args.workload](args.seed, run_dir)
        layers = {}
        workload.setup(pkg, layers)
        elapsed = time.perf_counter() - start
        cal_after = calibration.measure()
        setup_s.append(elapsed * calibration.scale(cal_before, cal_after))
        cal_before = cal_after
        import_s.append(imported - start)
        layer_rows.append(layers)
    layers = {name: statistics.median(row[name] for row in layer_rows)
              for name in layer_rows[0]}
    layers["import_s"] = statistics.median(import_s)
    return workload, setup_s, import_s, layers


def measure(args, workload, tracer):
    """Whole rounds for args.seconds.

    Every job is timed alone and bracketed by calibration passes; a
    round's figure is its jobs' total time at the reference speed over
    the number of jobs.  Returns per-round figures for the untraced and
    the traced rounds, raw wall figures, the calibration times and the
    operation counts.
    """
    import calibration
    rounds = {False: [], True: []}
    wall_ms, cal_ms = [], []
    attempted = failed = traced_jobs = traced_bytes = 0
    min_rounds = MIN_ROUNDS if tracer is None else MIN_TRACED_ROUNDS
    deadline = time.perf_counter() + args.seconds
    k = 0
    while k < min_rounds or time.perf_counter() < deadline:
        jobs = workload.round_jobs(k)
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.install()
        outputs = []
        scaled = wall = 0.0
        gc.collect()
        cal = calibration.measure()
        cal_ms.append(cal)
        for job in jobs:
            start = time.perf_counter()
            try:
                outputs.append(job())
            except Exception:
                traceback.print_exc()
                outputs.append(None)
            elapsed = (time.perf_counter() - start) * 1e3
            cal_after = calibration.measure()
            cal_ms.append(cal_after)
            scaled += elapsed * calibration.scale(cal, cal_after)
            wall += elapsed
            cal = cal_after
        if traced:
            tracer.remove()
        bad = {i for i, out in enumerate(outputs) if out is None}
        for i, reason in workload.check(k, outputs):
            print(f"check failed: {args.workload} round {k} job {i}: "
                  f"{reason}", file=sys.stderr)
            bad.add(i)
        attempted += len(jobs)
        failed += len(bad)
        rounds[traced].append(scaled / len(jobs))
        if not traced:
            wall_ms.append(wall / len(jobs))
        else:
            traced_jobs += len(jobs)
            traced_bytes += workload.bytes_written
        k += 1
    return (rounds[False], rounds[True], wall_ms, cal_ms, attempted, failed,
            traced_jobs, traced_bytes)


def layer_metrics(tracer, jobs, bytes_written, overhead_ms):
    """Per-job figures from the traced rounds' spans."""
    spans = tracer.summary()

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0] / jobs

    def busy(name, scale):
        return spans.get(name, (0, 0.0, 0.0))[1] * scale / jobs

    def own_ms(*names):
        return sum(spans[n][2] for n in names if n in spans) * 1e3 / jobs

    solves = spans.get("vqe.vqe_run", (0,))[0]
    out = {"simulator.shots": tracer.counts["simulator.shots"] / jobs,
           "vqe.solves": solves / jobs,
           "vqe.evals_per_solve":
               tracer.counts["vqe.evaluations"] / solves if solves else 0.0,
           "vqe.iterations_per_solve":
               tracer.counts["vqe.iterations"] / solves if solves else 0.0,
           "vqe.vqe_run.self_ms": own_ms("vqe.vqe_run"),
           "vqe.scaling_experiment.self_ms": own_ms("vqe.scaling_experiment"),
           "observables.form_factor_matrix.calls":
               calls("observables.form_factor_matrix"),
           "observables.elastic_form_factor.ms":
               busy("observables.elastic_form_factor", 1e3),
           "cli.hamiltonian.ms": busy("cli.hamiltonian", 1e3),
           "cli.vqe.ms": busy("cli.vqe", 1e3),
           "cli.observables.ms": busy("cli.observables", 1e3),
           "cli.self_ms": own_ms("cli.main", "cli.hamiltonian", "cli.vqe",
                                 "cli.observables"),
           "cli.bytes_written": bytes_written / jobs,
           "trace.overhead_ms": overhead_ms}
    for name in ("simulator.run_circuit", "simulator.expectation_exact",
                 "simulator.expectation_sampled"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.us"] = busy(name, 1e6)
    for name in ("vqe.relative_variance", "observables.pdf",
                 "observables.decay_constant", "observables.mass_radius",
                 "observables.charge_radius"):
        out[f"{name}.us"] = busy(name, 1e6)
    return out


def run(args, run_dir):
    workload, setup_s, import_s, layers = set_up(args, run_dir)
    workload.references()
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer({name: sys.modules.get(f"blfqvqe.{name}")
                               for name in ("vqe", "cli", "observables")})
    (plain_ms, traced_ms, wall_ms, cal_ms, attempted, failed, traced_jobs,
     traced_bytes) = measure(args, workload, tracer)
    if tracer is None:
        values = {"setup_s": statistics.median(setup_s),
                  "job_ms": statistics.median(plain_ms),
                  "peak_rss_mb":
                      resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
    else:
        overhead = statistics.median(traced_ms) - statistics.median(plain_ms)
        values = dict(layers, **layer_metrics(tracer, traced_jobs,
                                              traced_bytes, overhead))
        values["import.cold_s"] = import_s[0]
        values["job_wall_ms"] = statistics.median(wall_ms)
        values["calibration_ms"] = statistics.median(cal_ms)
        units = PER_LAYER
        tracer.write(os.path.join(
            RUN_ROOT, f"trace-{args.workload}-{args.seed}.json"))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "blfqvqe", "__init__.py")):
        print(f"error: no package sources under {SRC}; run from a source "
              f"checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    try:
        # one CPU: the CLI's form-factor pool then hands the GIL over on
        # one CPU, and the calibration runs where the jobs run
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here: run unpinned
    run_dir = os.path.join(RUN_ROOT, f"{args.workload}-{args.seed}-"
                                     f"{os.getpid()}")
    os.makedirs(run_dir)
    try:
        return run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
