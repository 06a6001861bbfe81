"""Command-line front end: configuration, runs, and serialized outputs.

Subcommands: hamiltonian, vqe, observables, scaling.  Structured results
go to JSON, curves and traces to CSV with units in the header row.
Each setting is one RunConfig field, its flag is made from the field,
and the record it configures checks its value.  Settings resolve as
flags > config file (key = value lines) > BLFQVQE_OUT (the output
directory only) > defaults.  Outputs embed the resolved configuration
and its hash, never wall-clock data, so a fixed seed reruns
byte-identically.  A setting the run does not read (`_COMMAND_READS`,
`_MODE_READS`) must keep its default.

A command writes all its files to temporary files before it renames
any into place, so a failed write keeps every previous file and exits
2; only a rename failing after an earlier one succeeded mixes the sets.

Exit codes: 0 success, 2 configuration error, 3 optimizer
non-convergence (`vqe` only), 4 numerical failure (model settings that
overflow are named in the message).
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import itertools
import json
import os
import sys
import typing
from dataclasses import dataclass, fields

import numpy as np

from . import __version__
from .basisfuncs import (BasisCutoffs, ModelParameters, WaveFunction,
                         compute_exponents, enumerate_block, require_count,
                         require_real)
from .hamiltonian import build_effective_hamiltonian, diagonalize
from .observables import (HBARC, charge_radius, decay_constant,
                          elastic_form_factor, mass_radius, pdf)
from .pauli import embed_compact, embed_direct, jw_to_bk_pauli
from .simulator import ReadoutNoiseModel, require_shots
from .vqe import (ENCODINGS, MODES, OptimizerConfig, lookup_encoding,
                  require_angles, scaling_experiment, vqe_run)

OUT_ENV = "BLFQVQE_OUT"
EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGENCE = 3
EXIT_NUMERICAL = 4

# the settings that fix the Hamiltonian, which every run reads: stored
# angles fitted under other values belong to another problem
_MODEL_FIELDS = tuple(f.name for f in fields(ModelParameters))
# the settings each run reads beyond _MODEL_FIELDS, `seed` and `out`
_COMMAND_READS = {"hamiltonian": (), "observables": ("encoding",),
                  "observables --exact": (),
                  "vqe": ("encoding", "mode", "max_iterations", "tolerance"),
                  "scaling": ("encoding",)}
# a run that reads `mode` also reads the settings its value selects
_MODE_READS = {"exact": (), "sampled": ("shots",),
               "noisy": ("shots", "noise_p01", "noise_p10", "mitigate")}
CLI_MODES = tuple(_MODE_READS)
# the values each choice setting takes, for the parser and RunConfig alike
_CHOICES = {"encoding": tuple(ENCODINGS), "mode": CLI_MODES}
# each default is read off the record the setting configures
_DEFAULTS = {f.name: f.default for record in (ModelParameters, OptimizerConfig)
             for f in fields(record)}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    """Resolved settings for one command invocation."""

    m: float = _DEFAULTS["m"]
    mbar: float = _DEFAULTS["mbar"]
    kappa: float = _DEFAULTS["kappa"]
    b: float | None = _DEFAULTS["b"]
    g_pi: float = _DEFAULTS["g_pi"]
    encoding: str = "compact"
    mode: str = "exact"
    shots: int = 8192
    seed: int = 0
    noise_p01: float | None = None
    noise_p10: float | None = None
    mitigate: bool = False
    max_iterations: int = _DEFAULTS["max_iterations"]
    tolerance: float = _DEFAULTS["tolerance"]
    out: str = "."

    def __post_init__(self):
        for name, choices in _CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"{name} must be one of {choices}, "
                                  f"got {getattr(self, name)!r}")
        if not isinstance(self.mitigate, bool):
            raise ConfigError(f"mitigate must be a boolean, got {self.mitigate!r}")
        if self.mode == "noisy" and None in (self.noise_p01, self.noise_p10):
            raise ConfigError("mode 'noisy' needs noise_p01 and noise_p10")
        try:
            noise = self.noise_model()
        except ValueError as err:
            # the model's fields are these settings without "noise_"
            raise ConfigError(f"noise_{err}") from err
        try:
            require_shots("shots", self.shots)
            require_count("seed", self.seed, 0)
            self.optimizer_config()
            self.model_parameters()
        except ValueError as err:
            raise ConfigError(str(err)) from err
        if self.mitigate and noise is not None and noise.is_singular:
            raise ConfigError("mitigate needs an invertible calibration, "
                              "but noise_p01 + noise_p10 = 1 is singular")

    def model_parameters(self):
        return ModelParameters(**{k: getattr(self, k) for k in _MODEL_FIELDS})

    def optimizer_config(self):
        return OptimizerConfig(max_iterations=self.max_iterations,
                               tolerance=self.tolerance)

    def noise_model(self):
        # a given flip probability must be one in every mode; unset is 0
        noise = ReadoutNoiseModel(*(0.0 if p is None else p
                                    for p in (self.noise_p01, self.noise_p10)))
        return noise if self.mode == "noisy" else None

    def vqe_mode(self):
        if self.mode == "noisy":
            return ("sampled+noise+mitigation" if self.mitigate
                    else "sampled+noise")
        return self.mode

    def as_dict(self):
        # `out` is plumbing, not physics: leave it out of the embedded
        # config so moving the output directory keeps provenance stable
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "out"}


def config_hash(config):
    blob = json.dumps(config.as_dict(), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def provenance(config):
    return {"config": config.as_dict(), "config_hash": config_hash(config),
            "seed": config.seed, "version": __version__}


_BOOL_WORDS = {"true": True, "false": False, "yes": True, "no": False,
               "1": True, "0": False}


def _coerce(name, text, target_type):
    if target_type is bool:
        word = text.strip().lower()
        if word not in _BOOL_WORDS:
            raise ConfigError(f"{name}: expected a boolean, got {text!r}")
        return _BOOL_WORDS[word]
    if target_type in (int, float):
        try:
            return target_type(text)
        except ValueError:
            raise ConfigError(f"{name}: expected a number, got {text!r}") from None
    return text


# each field's type, read off RunConfig's annotations (`X | None` reads as X)
_FIELD_TYPES = {name: next(t for t in typing.get_args(hint) + (hint,)
                           if t is not type(None))
                for name, hint in typing.get_type_hints(RunConfig).items()}


def read_config_file(path):
    """Parse `key = value` lines; '#' starts a comment."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config file {path}: {err}") from err
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, "
                              f"got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown setting {key!r}")
        values[key] = _coerce(key, val.strip(), _FIELD_TYPES[key])
    return values


def resolve_config(args):
    """Apply precedence flags > config file > environment > defaults."""
    settings = {}
    if args.config is not None:
        settings.update(read_config_file(args.config))
    env_out = os.environ.get(OUT_ENV)
    if "out" not in settings and env_out:
        settings["out"] = env_out
    for name in _FIELD_TYPES:
        flag = getattr(args, name, None)
        if flag is not None:
            settings[name] = flag
    command = args.command + (" --exact" if getattr(args, "exact", False) else "")
    defaults = {f.name: f.default for f in fields(RunConfig)}
    values = {**defaults, **settings}
    reads = _MODEL_FIELDS + ("seed", "out") + _COMMAND_READS[command]
    if "mode" in reads:
        # an unknown mode reads everything, so RunConfig names it
        reads += _MODE_READS.get(values["mode"], tuple(values))
    for name, default in defaults.items():
        if name not in reads and values[name] != default:
            raise ConfigError(f"{command} in mode {values['mode']!r} does not "
                              f"read {name}; it must stay {default!r}, got "
                              f"{values[name]!r}")
    return RunConfig(**settings)


def _json(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _csv(header, rows):
    return "".join(",".join(map(str, row)) + "\n" for row in (header, *rows))


def _write_outputs(out, files):
    """Write a command's files (name -> text) under `out`; return the paths."""
    paths = [os.path.join(out, name) for name in files]
    made = []
    try:
        for path, text in zip(paths, files.values()):
            made.append(f"{path}.{os.getpid()}.tmp")
            with open(made[-1], "w", encoding="utf-8") as fh:
                fh.write(text)
        for path, tmp in zip(paths, made):
            os.replace(tmp, path)
    except BaseException as err:
        for tmp in made:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(err, OSError):
            raise ConfigError(f"cannot write {path}: {err}") from err
        raise
    return paths


def _pauli_dicts(h):
    direct = embed_direct(h)
    return {"direct": direct.as_dict(), "compact": embed_compact(h).as_dict(),
            "bk": jw_to_bk_pauli(direct).as_dict()}


def _tagged(value, units, mode):
    return {"value": value, "units": units, "mode": mode}


def cmd_hamiltonian(config, h):
    sol = diagonalize(h)
    payload = {
        "matrix": h.entries.tolist(),
        "units": "MeV^2",
        "eigenvalues": sol.eigenvalues.tolist(),
        "pauli": _pauli_dicts(h),
        "provenance": provenance(config),
    }
    paths = _write_outputs(config.out, {"hamiltonian.json": _json(payload)})
    print("effective Hamiltonian (MeV^2), J_z = 0 block:")
    for row in h.entries:
        print("  " + "  ".join(f"{v:12.1f}" for v in row))
    print("eigenvalues (MeV^2): "
          + "  ".join(f"{v:.1f}" for v in sol.eigenvalues))
    print(f"wrote {', '.join(paths)}")
    return EXIT_OK


def cmd_vqe(config, h):
    ham = lookup_encoding(config.encoding).embed(h)
    result = vqe_run(ham, config.encoding, mode=config.vqe_mode(),
                     shots=config.shots, noise=config.noise_model(),
                     seed=config.seed, config=config.optimizer_config())
    payload = {
        "theta": list(result.theta),
        "energy": _tagged(result.energy, "MeV^2", result.mode),
        "std_error": result.std_error,
        "encoding": config.encoding,
        "converged": result.converged,
        "n_iterations": result.n_iterations,
        "provenance": provenance(config),
    }
    # the running best as `minimize` keeps it: from +inf, moved on a strict
    # drop only; row i is the best of the first i evaluations
    best = itertools.accumulate(result.trace, min, initial=np.inf)
    trace = _csv(("iteration", "energy[MeV^2]", "mode"),
                 [(i, e, result.mode) for i, e in enumerate(best) if i])
    paths = _write_outputs(config.out, {"vqe_trace.csv": trace,
                                        "vqe_result.json": _json(payload)})
    print(f"VQE [{config.encoding}, {result.mode}]: "
          f"energy = {result.energy:.4f} MeV^2 after "
          f"{result.n_iterations} evaluations"
          + ("" if result.converged else "  (DID NOT CONVERGE)"))
    print(f"wrote {', '.join(paths)}")
    return EXIT_OK if result.converged else EXIT_NONCONVERGENCE


def _check_provenance(stored, config, angles_path):
    """Angles are only valid for the physics they were fitted under."""
    fitted = stored.get("provenance")
    fitted = fitted.get("config") if isinstance(fitted, dict) else None
    if not isinstance(fitted, dict):
        raise ConfigError(f"{angles_path} has no provenance.config, so its "
                          f"angles cannot be matched to this run's physics")
    try:
        # compare the physics, not its spelling: an unset b is b = kappa
        there = ModelParameters(**{k: fitted[k] for k in _MODEL_FIELDS})
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"{angles_path}: provenance.config: {err!r}") from err
    here = config.model_parameters()
    differ = [f"{k} = {getattr(there, k)!r} there, {getattr(here, k)!r} here"
              for k in _MODEL_FIELDS if getattr(there, k) != getattr(here, k)]
    if differ:
        raise ConfigError(f"{angles_path} was fitted under other physics: "
                          + "; ".join(differ))


def _state_from_config(config, h, args):
    """Wave function + mode tag, from --exact or a vqe result file."""
    block = enumerate_block(0, BasisCutoffs())
    if args.exact:
        sol = diagonalize(h)
        return WaveFunction(sol.eigenvectors[:, 0], block), "exact", None
    angles_path = args.angles or os.path.join(config.out, "vqe_result.json")
    try:
        with open(angles_path, encoding="utf-8") as fh:
            stored = json.load(fh)
    except OSError as err:
        raise ConfigError(f"no angles available: {err}; run the vqe "
                          f"subcommand first or pass --exact") from err
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
        raise ConfigError(f"{angles_path} is not readable UTF-8 JSON: "
                          f"{err}") from err
    if not isinstance(stored, dict):
        raise ConfigError(f"{angles_path} does not hold a vqe result")
    encoding = stored.get("encoding")
    if encoding != config.encoding:
        raise ConfigError(f"angles file used encoding {encoding!r} but this "
                          f"run is configured for {config.encoding!r}")
    energy = stored.get("energy", {})
    if not isinstance(energy, dict):
        raise ConfigError(f"{angles_path}: 'energy' must be a JSON object, "
                          f"got {energy!r}")
    mode = energy.get("mode", "exact")
    if mode not in MODES:
        raise ConfigError(f"{angles_path}: 'energy.mode' must be one of "
                          f"{MODES}, got {mode!r}")
    theta, vqe_energy = stored.get("theta"), energy.get("value")
    try:  # the value may be left out, but not be null
        require_angles("'theta'", theta)
        if "value" in energy:
            require_real("'energy.value'", vqe_energy)
    except ValueError as err:
        raise ConfigError(f"{angles_path}: {err}") from None
    converged = stored.get("converged", True)
    if type(converged) is not bool:
        raise ConfigError(f"{angles_path}: 'converged' must be true or "
                          f"false, got {converged!r}")
    _check_provenance(stored, config, angles_path)
    if not converged:
        print(f"warning: {angles_path} holds the angles of a vqe run that "
              f"did not converge", file=sys.stderr)
    coeffs = np.array(ENCODINGS[config.encoding].coefficients(theta))
    return (WaveFunction(coeffs / np.linalg.norm(coeffs), block), mode,
            vqe_energy)


def cmd_observables(config, h, args):
    params = config.model_parameters()
    exps = compute_exponents(params)
    psi, mode, vqe_energy = _state_from_config(config, h, args)

    m_pi2 = float(psi.coefficients @ h.entries @ psi.coefficients)
    if not m_pi2 > 0.0:
        raise ArithmeticError(f"m_pi^2 = {m_pi2:.2f} MeV^2 is not positive, "
                              f"so m_pi is undefined")
    f_pi = abs(decay_constant(psi, params, exps))
    r_m2, r_m = mass_radius(psi, params)

    curve = elastic_form_factor(psi, params)
    r_c = charge_radius(curve)

    x_grid = np.linspace(0.005, 0.995, 199)
    density = pdf(psi, x_grid, exps)

    table = {
        "m_pi2": _tagged(m_pi2, "MeV^2", mode),
        "m_pi": _tagged(float(np.sqrt(m_pi2)), "MeV", mode),
        "f_pi": _tagged(f_pi, "MeV", mode),
        "mass_radius_squared": _tagged(r_m2, "fm^2", mode),
        "mass_radius": _tagged(r_m, "fm", mode),
        "charge_radius": _tagged(r_c, "MeV^-1", mode),
        "charge_radius_fm": _tagged(r_c * HBARC, "fm", mode),
        "provenance": provenance(config),
    }
    if vqe_energy is not None:
        table["vqe_energy"] = _tagged(vqe_energy, "MeV^2", mode)

    paths = _write_outputs(config.out, {
        "observables.json": _json(table),
        "form_factor.csv": _csv(("Q2[MeV^2]", "F_P[dimensionless]"),
                                zip(curve.q2, curve.values)),
        "pdf.csv": _csv(("x[dimensionless]", "f[dimensionless]"),
                        zip(x_grid.tolist(), density.values.tolist()))})
    print(f"observables [{mode}]: m_pi^2 = {m_pi2:.2f} MeV^2, "
          f"f_pi = {f_pi:.3f} MeV, <r_m^2> = {r_m2:.4f} fm^2, "
          f"r_c = {r_c:.4e} MeV^-1")
    print(f"wrote {', '.join(paths)}")
    return EXIT_OK


def cmd_scaling(config, h):
    ham = lookup_encoding(config.encoding).embed(h)
    result = scaling_experiment(ham, config.encoding, seed=config.seed)
    payload = {
        "encoding": result.encoding,
        "exponent": result.exponent,
        "constant": result.constant,
        "repeats": result.repeats,
        "rows": [list(r) for r in result.rows],
        "total_shots": result.total_shots,
        "provenance": provenance(config),
    }
    paths = _write_outputs(config.out, {
        "scaling.csv": _csv(("shots_per_term", "rms_relative_error"),
                            result.rows),
        "scaling.json": _json(payload)})
    print(f"scaling [{config.encoding}]: shots ~ "
          f"{result.constant:.1f} / eps^{result.exponent:.3f} "
          f"({result.repeats} repeats per point)")
    print(f"wrote {', '.join(paths)}")
    return EXIT_OK


# a setting's flag is `--` and its name with `-` for `_`, but for these
_FLAGS = {"m": "--mq", "g_pi": "--gpi"}
_HELP = {"m": "quark mass in MeV", "mbar": "antiquark mass in MeV",
         "kappa": "confinement strength in MeV", "b": "basis scale in MeV",
         "g_pi": "contact coupling in MeV^-2",
         "out": f"output directory (default from ${OUT_ENV}, else '.')"}


@functools.lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built once per process; every parse_args call
    still returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="blfqvqe",
        description="Valence light-front pion on qubits: Hamiltonian, "
                    "VQE, and observables.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value settings file")
        # one flag per setting, in field order; a switch stores True
        for name, kind in _FIELD_TYPES.items():
            how = ({"action": "store_const", "const": True} if kind is bool
                   else {"type": kind, "choices": _CHOICES.get(name)})
            p.add_argument(_FLAGS.get(name, "--" + name.replace("_", "-")),
                           dest=name, help=_HELP.get(name), **how)

    add_common(sub.add_parser("hamiltonian",
                              help="matrix, spectrum, Pauli decompositions"))
    add_common(sub.add_parser("vqe", help="variational ground-state search"))
    obs = sub.add_parser("observables",
                         help="decay constant, radii, PDF, form factor")
    add_common(obs)
    state = obs.add_mutually_exclusive_group()
    state.add_argument("--exact", action="store_true",
                       help="use the exact ground state instead of VQE angles")
    state.add_argument("--angles",
                       help="vqe_result.json path (default: <out>/vqe_result.json)")
    add_common(sub.add_parser("scaling", help="shots-vs-error scaling table"))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    # a non-finite value ends in one of the exit-4 messages below, so
    # numpy's own floating-point warnings are not printed ahead of it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _dispatch(args)


def _dispatch(args):
    try:
        config = resolve_config(args)
        try:
            os.makedirs(config.out, exist_ok=True)
        except OSError as err:
            raise ConfigError(f"cannot use output directory {config.out}: "
                              f"{err}") from err
        h = build_effective_hamiltonian(config.model_parameters())
        if args.command == "hamiltonian":
            return cmd_hamiltonian(config, h)
        if args.command == "vqe":
            return cmd_vqe(config, h)
        if args.command == "observables":
            return cmd_observables(config, h, args)
        return cmd_scaling(config, h)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (OverflowError, ZeroDivisionError) as err:
        params = config.model_parameters()
        settings = ", ".join(f"{k} = {getattr(params, k)!r}" for k in _MODEL_FIELDS)
        print(f"numerical failure: the model settings {settings} leave the "
              f"floating-point range ({type(err).__name__})", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ArithmeticError, RuntimeError, ValueError,
            np.linalg.LinAlgError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
