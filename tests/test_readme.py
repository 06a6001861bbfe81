"""The README's quick starts, shell and Python, run as printed."""
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blfqvqe import cli
from blfqvqe import (BasisCutoffs, ModelParameters, WaveFunction,
                     build_effective_hamiltonian, charge_radius,
                     compute_exponents, decay_constant, diagonalize,
                     elastic_form_factor, enumerate_block, mass_radius)

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def readme_table(header):
    """The README table whose first column is headed `header`, as
    {first cell without backticks: second cell}."""
    lines = README.splitlines()
    start = next(i for i, line in enumerate(lines)
                 if re.match(rf"\| {header} +\|", line))
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        key, cell = (c.strip() for c in line.strip("|").split("|"))
        rows[key.strip("`")] = cell
    return rows


def test_shell_quick_start(tmp_path, monkeypatch, capsys):
    # every documented command succeeds and writes what the CLI table lists
    commands = [shlex.split(line) for line in README.splitlines()
                if line.startswith("blfqvqe ")]
    assert [argv[1] for argv in commands] == ["hamiltonian", "vqe",
                                              "observables", "scaling"]
    table = readme_table("subcommand")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == cli.EXIT_OK, capsys.readouterr().err
        out = tmp_path / argv[argv.index("--out") + 1]
        written = re.findall(r"`([\w.]+\.(?:json|csv))`", table[argv[1]])
        assert written and all((out / name).is_file() for name in written)


def test_reads_tables_match_the_cli():
    # the tables that say which settings each run reads, and the CLI's
    def names(table):
        return {key: tuple(re.findall(r"`(\w+)`", cell))
                for key, cell in table.items()}
    assert names(readme_table("run")) == cli._COMMAND_READS
    assert names(readme_table("mode")) == cli._MODE_READS


def test_common_options_match_the_parser():
    # every flag the "Common options" list names is a common flag of the
    # parser, and every common flag is listed, so none outlives its setting
    section = README.split("Common options", 1)[1].split("\n\n", 2)[1]
    listed = set(re.findall(r"`(--[\w-]+)", section)) | set(
        re.findall(r" (--[\w-]+)", section))
    sub = next(a for a in cli.build_parser()._actions
               if a.dest == "command").choices["vqe"]
    common = {flag for a in sub._actions for flag in a.option_strings
              if a.dest != "help"}
    assert listed == common


def test_python_quick_start():
    blocks = re.findall(r"```python\n(.*?)```", README, re.S)
    assert len(blocks) == 1
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", blocks[0]], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    printed = dict(line.split(": ") for line in run.stdout.splitlines())
    assert list(printed) == ["m_pi^2 [MeV^2]", "f_pi [MeV]", "r_m [fm]",
                             "r_c [MeV^-1]"]

    # the variational state agrees with the exact ground state
    params = ModelParameters()
    h = build_effective_hamiltonian(params)
    sol = diagonalize(h)
    psi = WaveFunction(sol.eigenvectors[:, 0],
                       enumerate_block(0, BasisCutoffs()))
    exact = [sol.eigenvalues[0],
             abs(decay_constant(psi, params, compute_exponents(params))),
             mass_radius(psi, params)[1],
             charge_radius(elastic_form_factor(psi, params))]
    got = [float(v) for v in printed.values()]
    assert np.all(np.isfinite(got))
    assert got == pytest.approx(exact, rel=1e-3)
