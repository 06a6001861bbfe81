"""The benchmark's four workloads: set-up, job lists and checks.

A workload's set-up runs once per set-up cycle on a freshly imported
package (see run.py).  After set-up, `round_jobs(k)` gives the jobs of
round k, each a zero-argument callable the runner times as one unit,
and `check(k, outputs)` yields (job index, reason) for every job whose
output fails a check in checks.py.  Jobs in round k depend only on the
seed and k, so every run attempts whole rounds of the same operations.
"""
from __future__ import annotations

import contextlib
import io
import math
import os
import shutil
import time

import numpy as np

import checks
import reference

NOISE_P = 0.03                 # p01 = p10 in the noisy modes
SHOTS = 8192                   # shots per Pauli term in noisy-vqe
NOISY_MODES = ("sampled", "sampled+noise", "sampled+noise+mitigation")
NOISY_SEEDS_PER_ROUND = 2
# (--mq, --kappa) pass list: every set has a positive ground m_pi^2.
# The warm-up set is not among them, so a cache keyed on the parameters
# cannot turn a timed pass into a lookup.
CLI_PARAMETERS = ((337.01, 227.0), (350.0, 227.0), (380.0, 227.0),
                  (337.01, 210.0), (380.0, 210.0))
CLI_WARMUP_PARAMETERS = (345.0, 220.0)
DEFAULT_PARAMETERS = (337.01, 227.0)


def derived_seed(*key):
    """A 32-bit seed drawn from the SeedSequence of the given key."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def _terms(pauli_sum):
    return [(t.axes, t.coefficient) for t in pauli_sum.terms]


def _timed(layers, name, fn, *args):
    start = time.perf_counter()
    out = fn(*args)
    layers[name] = (time.perf_counter() - start) * 1e6
    return out


class Workload:
    """Shared set-up: the default Hamiltonian and its three encodings."""

    bytes_written = 0

    def __init__(self, seed, run_dir):
        self.seed = seed
        self.run_dir = run_dir

    def setup(self, pkg, layers):
        """Build the model on `pkg`, recording set-up layer times in µs."""
        self.pkg = pkg
        self.h = _timed(layers, "hamiltonian.build_us",
                        pkg.build_effective_hamiltonian, pkg.ModelParameters())
        _timed(layers, "hamiltonian.diagonalize_us", pkg.diagonalize, self.h)
        start = time.perf_counter()
        direct = pkg.embed_direct(self.h)
        self.sums = {"direct": direct, "compact": pkg.embed_compact(self.h),
                     "bk": pkg.jw_to_bk_pauli(direct)}
        layers["pauli.encode_us"] = (time.perf_counter() - start) * 1e6
        for enc, pauli_sum in self.sums.items():
            layers[f"pauli.terms.{enc}"] = len(pauli_sum.terms)
        self.warm_up()

    def warm_up(self):
        pass

    def references(self):
        """Untimed dense references for the checks."""
        self.e0 = float(np.linalg.eigvalsh(self.h.entries)[0])
        self.dense = {enc: reference.sum_matrix(_terms(s), s.n_qubits)
                      for enc, s in self.sums.items()}


class VqeExact(Workload):
    """Exact-mode solves: good guess on all encodings, random starts."""

    def warm_up(self):
        vqe = self.pkg.vqe
        for enc, pauli_sum in self.sums.items():
            vqe.expectation_exact(
                vqe.prepared_state(enc, vqe.GOOD_GUESS[enc]), pauli_sum)

    def round_jobs(self, k):
        starts = np.random.default_rng([self.seed, k]).uniform(
            0.0, 2.0 * math.pi, size=(2, 3))
        self.plan = [("direct", None), ("compact", None), ("bk", None),
                     ("direct", tuple(starts[0])),
                     ("compact", tuple(starts[1]))]
        vqe = self.pkg.vqe
        return [lambda enc=enc, start=start: vqe.vqe_run(
                    self.sums[enc], enc, mode="exact", initial=start)
                for enc, start in self.plan]

    def check(self, k, outputs):
        for i, ((enc, start), result) in enumerate(zip(self.plan, outputs)):
            if result is None:
                continue
            try:
                checks.variational_bound(result.energy, self.e0)
                psi = reference.ansatz_state(enc, result.theta)
                checks.matches_dense(result.energy,
                                     reference.expectation(psi, self.dense[enc]))
                if start is None:
                    checks.ground_energy(result.energy, self.e0)
            except checks.CheckFailed as err:
                yield i, f"{enc} start={start}: {err}"


class ShotScaling(Workload):
    """Shot-scaling tables on a fixed state: sampling alone is timed."""

    ENCODINGS = ("direct", "compact")

    def setup(self, pkg, layers):
        super().setup(pkg, layers)
        self.theta = {enc: pkg.vqe.vqe_run(self.sums[enc], enc).theta
                      for enc in self.ENCODINGS}
        self.table_seed = {enc: derived_seed(self.seed, i)
                           for i, enc in enumerate(self.ENCODINGS)}

    def references(self):
        super().references()
        self.v_rel = {}
        for enc in self.ENCODINGS:
            psi = reference.ansatz_state(enc, self.theta[enc])
            energy = reference.expectation(psi, self.dense[enc])
            self.v_rel[enc] = reference.relative_variance(
                psi, _terms(self.sums[enc]), energy)

    def round_jobs(self, k):
        vqe = self.pkg.vqe
        return [lambda enc=enc: vqe.scaling_experiment(
                    self.sums[enc], enc, theta=self.theta[enc],
                    seed=self.table_seed[enc])
                for enc in self.ENCODINGS]

    def check(self, k, outputs):
        for i, (enc, result) in enumerate(zip(self.ENCODINGS, outputs)):
            if result is None:
                continue
            try:
                checks.scaling_exponent(result.exponent)
                checks.rms_rows(result.rows, self.v_rel[enc], result.repeats)
                if enc == "compact" and outputs[0] is not None:
                    checks.prefactor_order(result.constant, outputs[0].constant)
            except checks.CheckFailed as err:
                yield i, f"{enc} seed={self.table_seed[enc]}: {err}"


class NoisyVqe(Workload):
    """Compact solves in the three sampled modes over fresh seeds."""

    def setup(self, pkg, layers):
        self.noise = pkg.ReadoutNoiseModel(NOISE_P, NOISE_P)
        super().setup(pkg, layers)

    def warm_up(self):
        vqe = self.pkg.vqe
        state = vqe.prepared_state("compact", vqe.GOOD_GUESS["compact"])
        for mitigate in (False, True):
            vqe.expectation_sampled(state, self.sums["compact"], SHOTS, 0,
                                    noise=self.noise if mitigate else None,
                                    mitigate=mitigate)

    def round_jobs(self, k):
        self.plan = [(mode, derived_seed(self.seed, k, j))
                     for j in range(NOISY_SEEDS_PER_ROUND)
                     for mode in NOISY_MODES]
        vqe = self.pkg.vqe
        return [lambda mode=mode, s=s: vqe.vqe_run(
                    self.sums["compact"], "compact", mode=mode, shots=SHOTS,
                    noise=self.noise, seed=s)
                for mode, s in self.plan]

    def check(self, k, outputs):
        terms = _terms(self.sums["compact"])
        for i, ((mode, s), result) in enumerate(zip(self.plan, outputs)):
            if result is None:
                continue
            psi = reference.ansatz_state("compact", result.theta)
            p = 0.0 if mode == "sampled" else NOISE_P
            mean, se = reference.sampled_moments(
                psi, terms, SHOTS, p=p, mitigated=mode.endswith("mitigation"))
            try:
                checks.within_sigmas(result.energy, mean, se, mode)
            except checks.CheckFailed as err:
                yield i, f"{mode} seed={s}: {err}"


class CliPipeline(Workload):
    """The README quick start through blfqvqe.cli.main, in process."""

    def warm_up(self):
        out = os.path.join(self.run_dir, "warm-up")
        self.run_pass(out, *CLI_WARMUP_PARAMETERS)
        shutil.rmtree(out)

    def run_pass(self, out, mq, kappa, seed=0):
        """hamiltonian, vqe and observables into out/vqe, then
        observables --exact into out/exact; returns the exit codes."""
        model = ["--mq", repr(mq), "--kappa", repr(kappa), "--seed", str(seed)]
        vqe_dir = os.path.join(out, "vqe")
        exact_dir = os.path.join(out, "exact")
        commands = (
            ["hamiltonian", "--out", vqe_dir],
            ["vqe", "--encoding", "compact", "--mode", "exact",
             "--out", vqe_dir],
            ["observables", "--encoding", "compact", "--out", vqe_dir],
            ["observables", "--exact", "--out", exact_dir],
        )
        codes = []
        with contextlib.redirect_stdout(io.StringIO()):
            for command in commands:
                argv = command + model
                codes.append((argv, self.pkg.cli.main(argv)))
        return codes

    def round_jobs(self, k):
        order = np.random.default_rng([self.seed, k]).permutation(
            len(CLI_PARAMETERS))
        self.plan = []
        for i in order:
            mq, kappa = CLI_PARAMETERS[i]
            out = os.path.join(self.run_dir, f"pass-{k}-{i}")
            self.plan.append((out, mq, kappa))
        seed = derived_seed(self.seed, k)
        return [lambda out=out, mq=mq, kappa=kappa:
                self.run_pass(out, mq, kappa, seed)
                for out, mq, kappa in self.plan]

    def check(self, k, outputs):
        self.bytes_written = 0
        for i, ((out, mq, kappa), codes) in enumerate(zip(self.plan, outputs)):
            if codes is None:
                continue
            try:
                for argv, code in codes:
                    checks.exit_code(argv, code)
                self._check_files(out, (mq, kappa) == DEFAULT_PARAMETERS)
            except (checks.CheckFailed, OSError, LookupError,
                    ValueError) as err:  # a missing or malformed output
                yield i, f"mq={mq} kappa={kappa}: {err!r}"
            finally:
                for root, _, files in os.walk(out):
                    self.bytes_written += sum(
                        os.path.getsize(os.path.join(root, f)) for f in files)
                shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def _read(path):
        with open(path) as fh:
            return fh.read()

    def _check_files(self, out, published):
        vqe_dir = os.path.join(out, "vqe")
        ham_path = os.path.join(vqe_dir, "hamiltonian.json")
        ham = checks.strict_json(self._read(ham_path), ham_path)
        checks.spectrum(ham["matrix"], ham["eigenvalues"])
        vqe_path = os.path.join(vqe_dir, "vqe_result.json")
        checks.strict_json(self._read(vqe_path), vqe_path)
        for sub in ("vqe", "exact"):
            obs_path = os.path.join(out, sub, "observables.json")
            obs = checks.strict_json(self._read(obs_path), obs_path)
            ff = checks.read_csv(
                self._read(os.path.join(out, sub, "form_factor.csv")))
            checks.form_factor(ff[:, 0], ff[:, 1])
            density = checks.read_csv(
                self._read(os.path.join(out, sub, "pdf.csv")))
            checks.pdf_normalization(density[:, 0], density[:, 1])
            if published:
                checks.published_values(obs["m_pi2"]["value"],
                                        obs["charge_radius"]["value"])


WORKLOADS = {"vqe-exact": VqeExact, "shot-scaling": ShotScaling,
             "noisy-vqe": NoisyVqe, "cli-pipeline": CliPipeline}
