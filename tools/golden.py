"""Golden outputs: a fixed list of CLI runs and everything each one leaves.

Each case in RUNS is a list of `blfqvqe` commands run in process, in
order, into one fresh output directory.  A case's golden set, under
`tests/golden/<case>/`, is every file the commands write there plus
`transcript.txt`: each command's arguments, stdout, stderr and exit
code, with the output directory written as `<out>`.
`tests/test_golden.py` reruns every case and compares bytes.

A change that moves bytes on purpose regenerates the whole set and
lists each changed file in CHANGES.md:

    PYTHONPATH=src python3 tools/golden.py --update

The last bits of an output depend on the numpy, BLAS and LAPACK build
(numpy's products round with a fused multiply-add, Python's do not), so
`tests/golden/MANIFEST.json` records the numpy version and platform the
set was written with, and the run list itself.
"""
import argparse
import contextlib
import io
import json
import math
import os
import platform
import re
import shutil
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")
MANIFEST = "MANIFEST.json"
TRANSCRIPT = "transcript.txt"

_NOISY = ("--mode", "noisy", "--noise-p01", "0.03", "--noise-p10", "0.05",
          "--mitigate", "--seed", "7")
RUNS = {
    "hamiltonian": [["hamiltonian"]],
    "vqe-then-observables": [["vqe"], ["observables"]],
    "observables-exact": [["observables", "--exact"]],
    "observables-without-angles": [["observables"]],
    **{f"vqe-{enc}": [["vqe", "--encoding", enc]]
       for enc in ("direct", "bk")},
    **{f"vqe-{enc}-then-observables": [["vqe", "--encoding", enc],
                                        ["observables", "--encoding", enc]]
       for enc in ("direct", "bk")},
    **{f"vqe-{enc}-sampled": [["vqe", "--encoding", enc, "--mode", "sampled",
                               "--seed", "5"]]
       for enc in ("direct", "compact", "bk")},
    **{f"vqe-{enc}-noisy-mitigated": [["vqe", "--encoding", enc, *_NOISY]]
       for enc in ("direct", "compact", "bk")},
    "vqe-direct-sampled-2048": [["vqe", "--encoding", "direct", "--mode",
                                 "sampled", "--seed", "3", "--shots", "2048"]],
    "vqe-bk-max-iterations-7": [["vqe", "--encoding", "bk",
                                 "--max-iterations", "7"],
                                ["observables", "--encoding", "bk"]],
    # criterion 9's noisy mitigated compact solve, then its observables
    "criterion-9": [["vqe", "--encoding", "compact", "--mode", "noisy",
                     "--noise-p01", "0.03", "--noise-p10", "0.03",
                     "--mitigate", "--shots", "1024", "--seed", "11"],
                    ["observables", "--encoding", "compact"]],
    "vqe-direct-other-physics": [["vqe", "--mq", "380", "--kappa", "210",
                                  "--encoding", "direct"]],
    **{f"scaling-{enc}": [["scaling", "--encoding", enc]]
       for enc in ("direct", "compact", "bk")},
    # counts below their least, each refused with exit code 2
    "count-refusals": [["vqe", "--mode", "sampled", "--shots", "0"],
                       ["vqe", "--seed", "-1"],
                       ["vqe", "--max-iterations", "0"]],
    # real settings that are not finite, each refused with exit code 2
    "real-refusals": [["hamiltonian", "--gpi", "1e400"],
                      ["vqe", "--kappa", "nan"],
                      ["vqe", "--tolerance", "inf"],
                      ["vqe", "--mode", "noisy", "--noise-p01", "nan",
                       "--noise-p10", "0.05"]],
}


def platform_record():
    """What the bytes of a golden set depend on beyond the source."""
    return {"numpy": np.__version__, "python": platform.python_version(),
            "platform": f"{platform.system()}-{platform.machine()}"}


def run_case(commands, out):
    """Run one case's commands into the directory `out`; return its
    outputs as {file name: bytes}, the transcript included."""
    from blfqvqe.cli import main

    transcript = []
    for argv in commands:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", out])
        transcript += [f"$ blfqvqe {' '.join(argv)}",
                       f"--- stdout\n{stdout.getvalue()}",
                       f"--- stderr\n{stderr.getvalue()}", f"exit {code}\n"]
    files = {TRANSCRIPT: "\n".join(transcript).replace(out, "<out>").encode()}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            files[name] = fh.read()
    return files


_NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|inf")


def numeric_difference(expected, actual):
    """The largest absolute and relative difference between the numbers
    of two texts, pairwise in order; None when they hold different
    counts of numbers or differ outside them."""
    a, b = _NUMBER.findall(expected), _NUMBER.findall(actual)
    if len(a) != len(b) or _NUMBER.split(expected) != _NUMBER.split(actual):
        return None
    largest_abs = largest_rel = 0.0
    for x, y in zip(map(float, a), map(float, b)):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        d = abs(x - y)
        largest_abs = max(largest_abs, d)
        largest_rel = max(largest_rel, d / abs(x) if x else math.inf)
    return largest_abs, largest_rel


def mismatches(case, files, golden=GOLDEN):
    """One line per file of `case` whose bytes differ from its golden
    copy, or that only one side has; empty when all match."""
    where = os.path.join(golden, case)
    stored = sorted(os.listdir(where)) if os.path.isdir(where) else []
    lines = []
    for name in sorted(set(stored) | set(files)):
        if name not in files or name not in stored:
            side = "golden set" if name in stored else "rerun"
            lines.append(f"{case}/{name}: only the {side} has it")
            continue
        with open(os.path.join(where, name), "rb") as fh:
            expected = fh.read()
        if expected == files[name]:
            continue
        diff = numeric_difference(expected, files[name])
        lines.append(f"{case}/{name}: bytes differ; " + (
            "text outside the numbers differs" if diff is None else
            f"largest numeric difference {diff[0]:.3g} absolute, "
            f"{diff[1]:.3g} relative"))
    return lines


def update(golden=GOLDEN):
    """Rewrite the whole golden set and its manifest."""
    shutil.rmtree(golden, ignore_errors=True)
    os.makedirs(golden)
    for case, commands in RUNS.items():
        with tempfile.TemporaryDirectory() as out:
            files = run_case(commands, out)
        os.makedirs(os.path.join(golden, case))
        for name, data in files.items():
            with open(os.path.join(golden, case, name), "wb") as fh:
                fh.write(data)
    with open(os.path.join(golden, MANIFEST), "w", encoding="utf-8") as fh:
        json.dump({**platform_record(), "runs": RUNS}, fh, indent=1)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", action="store_true", required=True,
                        help="rewrite tests/golden from the current source")
    parser.parse_args(argv)
    update()
    print(f"wrote {len(RUNS)} cases under {os.path.relpath(GOLDEN)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
