"""The README's Python quick start runs as printed."""
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blfqvqe import (BasisCutoffs, ModelParameters, WaveFunction,
                     build_effective_hamiltonian, charge_radius,
                     compute_exponents, decay_constant, diagonalize,
                     elastic_form_factor, enumerate_block, mass_radius)

ROOT = Path(__file__).resolve().parent.parent


def test_python_quick_start():
    blocks = re.findall(r"```python\n(.*?)```",
                        (ROOT / "README.md").read_text(), re.S)
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
