"""Compare two source checkouts with the repository's benchmark.

Runs `python3 bench/run.py` in each checkout, one process at a time:

* untraced pairs, one per seed and workload, alternating which side runs
  first, summarised per workload as medians, interquartile ranges and
  pairs won for each end-to-end metric, whether the change's median stays
  within the parent's times (1 + bound) with the bounds read from the
  change's BENCHMARK.json, whether a gain is shown, and each side's share
  of failed operations; a side whose runs all exit nonzero is recorded
  with no medians;
* TRACE_RUNS traced runs per side and workload, alternating which side
  runs first, recorded as each per-layer figure's median (such as
  `import.cold_s`) over the runs that exited 0, and how many did;
* fresh CLI processes, alternating sides, timed as medians of wall clock.

Every child runs with PYTHONDONTWRITEBYTECODE=1, and a checkout that
already holds a `__pycache__` under `src/` or `bench/` is refused: a side
that loads cached bytecode reads a shorter `setup_s`.

Usage:
    python3 tools/bench_pairs.py PARENT CHANGE --seeds 61-70 --seconds 25 \\
        --out BENCH.json
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np

WORKLOADS = ("vqe-exact", "shot-scaling", "noisy-vqe", "cli-pipeline")
TRACE_SEED = 3
TRACE_RUNS = 3
PROCESS_ROUNDS = 7
# children compile from source, so neither side's imports come from a cache
CHILD_ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
# run in this order: `observables` reads the result `vqe` wrote just before
PROCESSES = {
    "import blfqvqe.cli": ["-c", "import blfqvqe.cli"],
    "hamiltonian": ["-m", "blfqvqe.cli", "hamiltonian"],
    "vqe": ["-m", "blfqvqe.cli", "vqe"],
    "observables": ["-m", "blfqvqe.cli", "observables"],
    "observables --exact": ["-m", "blfqvqe.cli", "observables", "--exact"],
    "scaling --encoding direct": ["-m", "blfqvqe.cli", "scaling",
                                  "--encoding", "direct"],
}


def bench(root, workload, seed, seconds, trace):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=root, env=CHILD_ENV, capture_output=True, text=True)
    if run.returncode != 0:
        return {"seed": seed, "exit": run.returncode}
    out = json.loads(run.stdout.strip().splitlines()[-1])
    return {"seed": seed, "attempted": out["attempted"],
            "failed": out["failed"],
            **{k: round(v["value"], 4) for k, v in out["metrics"].items()}}


def traced(roots, workload, seconds):
    """TRACE_RUNS traced runs per side at TRACE_SEED, alternating which
    side runs first; per side, the runs that exited 0 and the median of
    each figure over them."""
    runs = {side: [] for side in roots}
    for j in range(TRACE_RUNS):
        for side in list(roots) if j % 2 == 0 else list(roots)[::-1]:
            runs[side].append(bench(roots[side], workload, TRACE_SEED,
                                    seconds, 1))
            print(workload, "traced", side, runs[side][-1], file=sys.stderr)
    out = {}
    for side, done in runs.items():
        ok = [r for r in done if "exit" not in r]
        out[side] = {"runs": len(ok), "nonzero_exit": len(done) - len(ok),
                     **{k: round(float(np.median([r[k] for r in ok])), 4)
                        for k in (ok[0] if ok else ()) if k != "seed"}}
    return out


def quartiles(values):
    if not values:
        return None
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(q2), 4), "iqr": round(float(q3 - q1), 4)}


def read_bounds(root):
    """End-to-end metric -> bound from the checkout's BENCHMARK.json; every
    metric must be one where lower is better."""
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if any(m["better"] != "lower" for m in spec["end_to_end"]):
        raise ValueError("only lower-is-better end-to-end metrics are handled")
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def bytecode_caches(root):
    """The `__pycache__` directories under the checkout's src/ and bench/."""
    return sorted(os.path.join(d, "__pycache__") for top in ("src", "bench")
                  for d, dirs, _ in os.walk(os.path.join(root, top))
                  if "__pycache__" in dirs)


def summarise(runs, bounds):
    """Per side: quartiles of each end-to-end metric over the runs that
    exited 0 (None when none did), operations attempted and failed, and
    the failed share.  Then pairs won, the change's median against the
    parent's, whether it stays within each metric's bound, and whether it
    shows a gain: the change won at least 9 of every 10 pairs run (ties
    count for neither), its median beats the parent's by more than the
    parent's interquartile range, and no larger share of its operations
    failed."""
    ok = {side: [r for r in runs[side] if "exit" not in r] for side in runs}
    out = {}
    for side in runs:
        attempted = sum(r["attempted"] for r in ok[side])
        failed = sum(r["failed"] for r in ok[side])
        out[side] = {**{m: quartiles([r[m] for r in ok[side]])
                        for m in bounds},
                     "attempted": attempted, "failed": failed,
                     "failed_share": (round(failed / attempted, 4)
                                      if attempted else None),
                     "nonzero_exit": len(runs[side]) - len(ok[side])}
    won = {m: {"change": 0, "parent": 0} for m in bounds}
    for p, c in zip(runs["parent"], runs["change"]):
        if "exit" in p or "exit" in c:
            continue
        for m in bounds:
            if p[m] != c[m]:
                won[m]["change" if c[m] < p[m] else "parent"] += 1
    out["pairs_won"] = won
    pairs = min(len(runs["parent"]), len(runs["change"]))
    no_more_failed = (out["change"]["failed"] * out["parent"]["attempted"]
                      <= out["parent"]["failed"] * out["change"]["attempted"])
    ratio, within, gain = {}, {}, {}
    for m, bound in bounds.items():
        if out["parent"][m] is None or out["change"][m] is None:
            ratio[m] = within[m] = gain[m] = None
            continue
        parent, change = out["parent"][m]["median"], out["change"][m]["median"]
        ratio[m] = round(change / parent - 1, 4)
        within[m] = change <= parent * (1 + bound)
        gain[m] = (10 * won[m]["change"] >= 9 * pairs and no_more_failed
                   and parent - change > out["parent"][m]["iqr"])
    out["change_over_parent_minus_1"] = ratio
    out["within_bound"] = within
    out["gain_shown"] = gain
    out["runs"] = runs
    return out


def fresh_processes(roots):
    times = {side: {name: [] for name in PROCESSES} for side in roots}
    with tempfile.TemporaryDirectory() as tmp:
        for side in roots:
            os.makedirs(os.path.join(tmp, side))
        for k in range(PROCESS_ROUNDS):
            order = list(roots) if k % 2 == 0 else list(roots)[::-1]
            for side in order:
                env = {**CHILD_ENV,
                       "PYTHONPATH": os.path.join(roots[side], "src"),
                       "BLFQVQE_OUT": os.path.join(tmp, side)}
                for name, argv in PROCESSES.items():
                    t0 = time.perf_counter()
                    subprocess.run([sys.executable, *argv], env=env,
                                   check=True, capture_output=True)
                    times[side][name].append(time.perf_counter() - t0)
    return {side: {name: round(float(np.median(t)), 3)
                   for name, t in per.items()} for side, per in times.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seeds", default="61-70")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    roots = {"parent": args.parent, "change": args.change}
    caches = [c for root in roots.values() for c in bytecode_caches(root)]
    if caches:
        ap.error("remove the bytecode caches, which shorten one side's "
                 "set-up: " + ", ".join(caches))
    bounds = read_bounds(args.change)
    t0 = time.time()
    workloads = {}
    for w in WORKLOADS:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(range(lo, hi + 1)):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(bench(roots[side], w, seed, args.seconds, 0))
                print(w, seed, side, runs[side][-1], file=sys.stderr)
        workloads[w] = summarise(runs, bounds)
    traced_runs = {w: traced(roots, w, args.seconds) for w in WORKLOADS}
    result = {
        "command": "python3 bench/run.py --workload W --seed S "
                   f"--seconds {args.seconds:g} --trace 0",
        "seeds": list(range(lo, hi + 1)),
        "bounds": bounds,
        "order": "pair i runs parent first when i is even, change first "
                 "when odd",
        "workloads": workloads,
        "traced_medians": {"command": "python3 bench/run.py --workload W "
                                      f"--seed {TRACE_SEED} "
                                      f"--seconds {args.seconds:g} --trace 1",
                           "runs_per_side": TRACE_RUNS,
                           "order": "run j runs parent first when j is "
                                    "even, change first when odd",
                           **traced_runs},
        "fresh_process_median_s": {
            "rounds": PROCESS_ROUNDS, **fresh_processes(roots)},
        "wall_s": round(time.time() - t0, 1),
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
