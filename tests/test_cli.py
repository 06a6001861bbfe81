"""Command-line interface tests: config handling, outputs, exit codes."""
import ast
import csv
import importlib.util
import json
import os
import re
import subprocess
import sys
import typing
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import blfqvqe
from blfqvqe import cli, simulator, vqe
from blfqvqe.cli import (EXIT_CONFIG, EXIT_NONCONVERGENCE, EXIT_NUMERICAL,
                         EXIT_OK, OUT_ENV, ConfigError, RunConfig,
                         build_parser, config_hash, main, read_config_file,
                         resolve_config)
from blfqvqe.hamiltonian import build_effective_hamiltonian


def run_cli(*argv):
    return main(list(argv))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# arbitrary bytes, or key = value lines over the real settings
CONFIG_BYTES = st.one_of(
    st.binary(max_size=200),
    st.lists(st.tuples(st.sampled_from(sorted(cli._FIELD_TYPES)),
                       st.one_of(st.text(max_size=12), st.floats().map(repr),
                                 st.integers().map(str))),
             max_size=4).map(
        lambda pairs: "".join(f"{k} = {v}\n" for k, v in pairs).encode()))

# the subcommands' flags: switches alone, the rest with a value that is
# one of the valid choices, a number or arbitrary text
FLAG_VALUES = st.one_of(
    st.sampled_from(("direct", "compact", "bk", "exact", "sampled", "noisy")),
    st.floats().map(repr), st.integers().map(str), st.text(max_size=8))
COMMON_FLAGS = ("--encoding", "--mode", "--shots", "--seed", "--noise-p01",
                "--noise-p10", "--mq", "--mbar", "--kappa", "--b", "--gpi",
                "--max-iterations", "--tolerance")


def flag_lists(valued, switches=("--mitigate",)):
    return st.lists(
        st.one_of(st.sampled_from(switches).map(lambda s: (s,)),
                  st.tuples(st.sampled_from(valued), FLAG_VALUES)),
        max_size=5).map(lambda flags: [arg for flag in flags for arg in flag])


SCALING_FLAGS = VQE_FLAGS = flag_lists(COMMON_FLAGS)
OBSERVABLES_FLAGS = flag_lists(COMMON_FLAGS + ("--angles",),
                               ("--mitigate", "--exact"))


def run_any(command, flags, blob, out, capsys):
    """Run with drawn flags and config bytes; assert a clean exit code and
    no traceback."""
    cfg = out.parent / "run.cfg"
    cfg.write_bytes(blob)
    try:
        code = run_cli(command, *flags, "--config", str(cfg),
                       "--out", str(out))
    except SystemExit as err:  # argparse rejects the flags
        code = err.code
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NONCONVERGENCE, EXIT_NUMERICAL)
    assert "Traceback" not in capsys.readouterr().err
    return code


def assert_finite_json(path):
    """A written result holds no NaN or Infinity; returns it parsed."""
    return json.loads(path.read_text(), parse_constant=pytest.fail)


# the settings of a noisy run, which reads every run setting
NOISY = {"mode": "noisy", "noise_p01": 0.1, "noise_p10": 0.1}


class TestRunConfig:
    def test_defaults_valid(self):
        config = RunConfig()
        assert config.encoding == "compact" and config.mode == "exact"

    def test_as_dict_omits_out(self):
        d = RunConfig(out="/tmp/somewhere").as_dict()
        assert "out" not in d and d["encoding"] == "compact"

    def test_hash_independent_of_out(self):
        a = RunConfig(out="/tmp/a")
        b = RunConfig(out="/tmp/b")
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(RunConfig(seed=1, out="/tmp/a"))

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(encoding="huffman")
        with pytest.raises(ConfigError):
            RunConfig(mode="fuzzy")
        with pytest.raises(ConfigError):
            RunConfig(shots=0)
        with pytest.raises(ConfigError):
            RunConfig(shots=2**63)      # beyond the sampler's integer range
        with pytest.raises(ConfigError):
            RunConfig(mode="noisy")
        with pytest.raises(ConfigError):
            RunConfig(mode="noisy", noise_p01=0.03, noise_p10=1.5)
        with pytest.raises(ConfigError):
            RunConfig(max_iterations=0)
        with pytest.raises(ConfigError):
            RunConfig(kappa=-1.0)

    @pytest.mark.parametrize("record, message", [
        ({"mode": "sampled", "shots": "5"}, "shots must be a number, got '5'"),
        ({"seed": "1"}, "seed must be a number, got '1'"),
        ({"mode": "sampled", "shots": 2.5},
         "shots must be a whole number of at least 1, got 2.5"),
        ({"mode": "sampled", "shots": float("nan")},
         "shots must be a whole number of at least 1, got nan"),
        ({"seed": 0.5}, "seed must be a whole number of at least 0, got 0.5"),
        ({"seed": True}, "seed must be a number, not a boolean, got True"),
        ({"mode": "sampled", "shots": np.True_},
         "shots must be a number, not a boolean, got np.True_"),
        ({**NOISY, "mitigate": "no"}, "mitigate must be a boolean, got 'no'"),
        ({**NOISY, "mitigate": 1}, "mitigate must be a boolean, got 1"),
        ({**NOISY, "mitigate": np.False_},
         "mitigate must be a boolean, got np.False_")],
        ids=["shots-text", "seed-text", "shots-fraction", "shots-nan",
             "seed-fraction", "seed-bool", "shots-np-bool", "mitigate-text",
             "mitigate-int", "mitigate-np-bool"])
    def test_run_settings_refused_by_the_record(self, record, message):
        # a library caller gets a ConfigError naming the field; the CLI's
        # parsers type these values before the record sees them
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(**record)

    def test_whole_numbers_of_any_type_are_run_settings(self):
        config = RunConfig(mode="sampled", shots=np.int64(512),
                           seed=np.uint32(7))
        assert config.shots == 512 and config.seed == 7
        assert RunConfig(mode="sampled", shots=512.0).shots == 512

    def test_a_setting_the_run_does_not_read_is_refused(self):
        # the CLI's refusal, from the record a library caller builds
        with pytest.raises(ConfigError, match=re.escape(
                "vqe in mode 'exact' does not read shots; it must stay "
                "8192, got 7") + "$"):
            RunConfig(shots=7)
        with pytest.raises(ConfigError, match="^hamiltonian in mode 'exact' "
                                              "does not read encoding; "):
            RunConfig(encoding="bk", command="hamiltonian")

    @pytest.mark.parametrize("command", list(cli._COMMAND_READS))
    def test_every_command_is_taken(self, command):
        config = RunConfig(kappa=210.0, seed=3, command=command)
        # the command is no field: the record and its provenance omit it
        assert config == RunConfig(kappa=210.0, seed=3)
        assert "command" not in config.as_dict()

    @pytest.mark.parametrize("command", ["plot", "observables --angles", None])
    def test_an_unknown_command_is_refused(self, command):
        with pytest.raises(ConfigError, match=re.escape(
                f"command must be one of {tuple(cli._COMMAND_READS)}, "
                f"got {command!r}") + "$"):
            RunConfig(command=command)

    def test_mode_mapping(self):
        assert RunConfig().vqe_mode() == "exact"
        noisy = RunConfig(mode="noisy", noise_p01=0.02, noise_p10=0.01)
        assert noisy.vqe_mode() == "sampled+noise"
        assert noisy.noise_model().p01 == 0.02
        mit = RunConfig(mode="noisy", noise_p01=0.02, noise_p10=0.01,
                        mitigate=True)
        assert mit.vqe_mode() == "sampled+noise+mitigation"

    def test_cutoffs_are_not_settings(self, tmp_path, capsys):
        # the basis truncation is part of the model, not a choice per run
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n_max = 0\n")
        out = tmp_path / "out"
        assert run_cli("hamiltonian", "--config", str(cfg),
                       "--out", str(out)) == EXIT_CONFIG
        assert "unknown setting 'n_max'" in capsys.readouterr().err
        assert not out.exists()

    def test_singular_calibration_refused_only_for_mitigation(self):
        # p01 + p10 = 1 leaves no confusion-matrix inverse to mitigate with;
        # raw noisy sampling under it is still well defined
        with pytest.raises(ConfigError, match="singular"):
            RunConfig(mode="noisy", noise_p01=0.3, noise_p10=0.7,
                      mitigate=True)
        RunConfig(mode="noisy", noise_p01=0.3, noise_p10=0.7)

    @pytest.mark.parametrize("record, message", [
        ({"noise_p01": float("nan")}, "noise_p01 must be finite, got nan"),
        ({"noise_p01": 2.0, "noise_p10": -1.0},
         "noise_p01 must lie in [0, 1), got 2.0"),
        ({"noise_p01": float("inf")}, "noise_p01 must be finite, got inf"),
        ({"noise_p10": 1.0}, "noise_p10 must lie in [0, 1), got 1.0"),
        # False would read as an unset probability, and run as 0
        ({"noise_p01": False}, "noise_p01 must be a number, not a boolean, "
                               "got False"),
        ({"noise_p10": "0.1"}, "noise_p10 must be a number, got '0.1'")],
        ids=["nan", "both", "inf", "p10", "false", "string"])
    def test_flip_probability_refused_in_mode_noisy(self, record, message):
        # the record refuses what provenance could not hold as valid JSON
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            RunConfig(**{**NOISY, **record})

    @pytest.mark.parametrize("mode", ["exact", "sampled"])
    @pytest.mark.parametrize("value", [0.1, float("nan"), False])
    def test_flip_probability_unread_outside_mode_noisy(self, mode, value):
        # only mode noisy reads a flip probability, so any value but the
        # unset default is refused before the value itself is checked
        with pytest.raises(ConfigError, match=re.escape(
                f"vqe in mode {mode!r} does not read noise_p10; it must stay "
                f"None, got {value!r}") + "$"):
            RunConfig(mode=mode, noise_p10=value)


class TestConfigFile:
    def test_parse(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nencoding = direct\nshots=999\n"
                       "mitigate = yes  # inline\n\n")
        values = read_config_file(str(cfg))
        assert values == {"encoding": "direct", "shots": 999,
                          "mitigate": True}

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("frobnicate = 3\n")
        with pytest.raises(ConfigError, match="unknown setting"):
            read_config_file(str(cfg))

    def test_bad_number(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("shots = many\n")
        with pytest.raises(ConfigError, match="expected a number"):
            read_config_file(str(cfg))

    def test_missing_line_structure(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just some words\n")
        with pytest.raises(ConfigError, match="key = value"):
            read_config_file(str(cfg))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            read_config_file("/nonexistent/run.cfg")

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig)
                                      if f.name != "out"])
    def test_every_field_round_trips(self, tmp_path, name):
        hint = typing.get_type_hints(RunConfig)[name]
        declared = next(t for t in typing.get_args(hint) + (hint,)
                        if t is not type(None))
        sample = {float: 0.25, int: 3, bool: True, str: "compact"}[declared]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{name} = {sample}\n")
        value = read_config_file(str(cfg))[name]
        assert type(value) is declared and value == sample

    def test_the_retired_optimizer_setting_is_unknown(self, tmp_path, capsys):
        # a config file written when `optimizer` chose a scipy backend
        cfg = tmp_path / "run.cfg"
        cfg.write_text("optimizer = simplex\n")
        out = tmp_path / "out"
        assert run_cli("vqe", "--config", str(cfg),
                       "--out", str(out)) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {cfg}:1: unknown setting 'optimizer'\n")
        assert not out.exists()

    def test_non_utf8_config_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"kappa = 2\xff7\n")
        assert run_cli("hamiltonian", "--config", str(cfg),
                       "--out", str(tmp_path / "out")) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(CONFIG_BYTES)
    def test_any_config_bytes_end_in_an_exit_code(self, tmp_path, capsys, blob):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(blob)
        # --out as a flag, so an `out =` line cannot move the writes
        code = run_cli("hamiltonian", "--config", str(cfg),
                       "--out", str(tmp_path / "out"))
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NONCONVERGENCE,
                        EXIT_NUMERICAL)
        assert "Traceback" not in capsys.readouterr().err


class TestPrecedence:
    def test_flag_beats_file_beats_default(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 42\ntolerance = 0.5\n")
        args = build_parser().parse_args(
            ["vqe", "--config", str(cfg), "--seed", "7"])
        config = resolve_config(args)
        assert config.seed == 7          # flag wins
        assert config.tolerance == 0.5   # file beats default
        assert config.encoding == "compact"  # default

    def test_env_supplies_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_ENV, str(tmp_path / "envdir"))
        args = build_parser().parse_args(["hamiltonian"])
        assert resolve_config(args).out == str(tmp_path / "envdir")

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_ENV, "/should/not/be/used")
        args = build_parser().parse_args(
            ["hamiltonian", "--out", str(tmp_path)])
        assert resolve_config(args).out == str(tmp_path)


class TestFlags:
    # the flag rule, written out here rather than read off the parser's
    # tables: `--` plus the key with `-` for `_`, but `--mq` and `--gpi`
    SPELLED = {"m": "--mq", "g_pi": "--gpi"}

    @pytest.mark.parametrize("command", ["hamiltonian", "vqe", "observables",
                                         "scaling"])
    def test_one_flag_per_setting_spelled_by_the_rule(self, command):
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if a.dest == "command").choices[command]
        for f in fields(RunConfig):
            options = [a for a in sub._actions if a.dest == f.name]
            assert len(options) == 1, f.name
            option = options[0]
            flag = self.SPELLED.get(f.name, "--" + f.name.replace("_", "-"))
            assert option.option_strings == [flag]
            assert option.default is None
            assert option.choices == cli._CHOICES.get(f.name)
            if f.name == "mitigate":
                assert option.const is True and option.nargs == 0
            else:
                assert option.type is cli._FIELD_TYPES[f.name]
        settings = {f.name for f in fields(RunConfig)}
        others = {a.dest for a in sub._actions} - settings
        assert others == {"help", "config"} | (
            {"exact", "angles"} if command == "observables" else set())

    def test_choices_feed_parser_and_record(self):
        assert cli._CHOICES == {
            "encoding": ("direct", "compact", "bk"),
            "mode": ("exact", "sampled", "noisy")}
        for name, choices in cli._CHOICES.items():
            with pytest.raises(ConfigError,
                               match=f"^{name} must be one of "):
                RunConfig(**{name: "none-of-these"})


class TestParserCache:
    def test_built_once(self):
        assert build_parser() is build_parser()

    def test_runs_share_no_settings(self, tmp_path):
        first, second = tmp_path / "first", tmp_path / "second"
        assert run_cli("vqe", "--seed", "5", "--encoding", "bk",
                       "--out", str(first)) == EXIT_OK
        assert run_cli("vqe", "--out", str(second)) == EXIT_OK
        fitted = read_json(first / "vqe_result.json")["provenance"]["config"]
        assert (fitted["seed"], fitted["encoding"]) == (5, "bk")
        config = read_json(second / "vqe_result.json")["provenance"]["config"]
        assert config == RunConfig().as_dict()


class TestSettingChecks:
    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("command, key, flag, value", [
        ("vqe", "g_pi", "--gpi", "inf"),
        ("hamiltonian", "g_pi", "--gpi", "nan"),
        ("hamiltonian", "m", "--mq", "inf"),
        ("vqe", "tolerance", "--tolerance", "nan"),
        ("scaling", "seed", "--seed", "-3"),
    ])
    def test_non_finite_float_or_negative_seed_exits_two(
            self, tmp_path, capsys, source, command, key, flag, value):
        if source == "flag":
            setting = [flag, value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"{key} = {value}\n")
            setting = ["--config", str(cfg)]
        # a short fit, should the check miss, for the one command that fits
        short = ["--max-iterations", "20"] if command == "vqe" else []
        out = tmp_path / "out"
        assert run_cli(command, *setting, *short,
                       "--out", str(out)) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {key} must ")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["vqe"], ["scaling"],
                                         ["observables", "--exact"]],
                             ids=["vqe", "scaling", "observables"])
    def test_noise_outside_noisy_mode_exits_two(self, tmp_path, capsys,
                                                command):
        # nothing outside mode noisy reads the flip probabilities, so
        # provenance must not record them
        out = tmp_path / "out"
        assert run_cli(*command, "--noise-p01", "0.2", "--noise-p10", "0.1",
                       "--out", str(out)) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"config error: {' '.join(command)} in mode 'exact' does not read "
            f"noise_p01; it must stay None, got 0.2")
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("key, p01, p10, refusal", [
        ("noise_p01", "nan", "0.1", "must be finite, got nan"),
        ("noise_p10", "0.1", "1.0", "must lie in [0, 1), got 1.0")])
    def test_flip_probability_refusal_names_the_setting(
            self, tmp_path, capsys, source, key, p01, p10, refusal):
        if source == "flag":
            setting = ["--noise-p01", p01, "--noise-p10", p10]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"noise_p01 = {p01}\nnoise_p10 = {p10}\n")
            setting = ["--config", str(cfg)]
        out = tmp_path / "out"
        assert run_cli("vqe", "--mode", "noisy", *setting, "--max-iterations",
                       "20", "--out", str(out)) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {key} {refusal}\n"
        assert not out.exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    @pytest.mark.parametrize("settings, message", [
        ({"noise_p01": "0.03"},
         "mode 'noisy' needs noise_p01 and noise_p10"),
        ({"noise_p01": "0.5", "noise_p10": "0.5", "mitigate": "true"},
         "mitigate needs an invertible calibration, but noise_p01 + "
         "noise_p10 = 1 is singular")], ids=["unset", "singular"])
    def test_noisy_refusal_names_the_keys(self, tmp_path, capsys, source,
                                          settings, message):
        if source == "flag":
            setting = ["--mode", "noisy"]
            for key, value in settings.items():
                flag = "--" + key.replace("_", "-")
                setting += [flag] if key == "mitigate" else [flag, value]
        else:
            cfg = tmp_path / "run.cfg"
            cfg.write_text("mode = noisy\n" + "".join(
                f"{key} = {value}\n" for key, value in settings.items()))
            setting = ["--config", str(cfg)]
        out = tmp_path / "out"
        assert run_cli("vqe", *setting, "--out", str(out)) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not out.exists()

    def test_noise_in_config_file_outside_noisy_mode_exits_two(self, tmp_path,
                                                               capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = sampled\nnoise_p10 = 0.1\n")
        out = tmp_path / "out"
        assert run_cli("vqe", "--config", str(cfg),
                       "--out", str(out)) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "config error: vqe in mode 'sampled' does not read noise_p10; "
            "it must stay None, got 0.1")
        assert not out.exists()


# what each run reads beyond the model settings, `seed` and `out`, and
# what a choice it reads adds, written out here rather than read off the
# tables under test
ALWAYS_READ = {"m", "mbar", "kappa", "b", "g_pi", "seed", "out"}
RUN_READS = {
    "hamiltonian": set(),
    "observables": {"encoding"},
    "observables --exact": set(),
    "vqe": {"encoding", "mode", "max_iterations", "tolerance"},
    "scaling": {"encoding"},
}
MODE_READS = {"exact": set(), "sampled": {"shots"},
              "noisy": {"shots", "noise_p01", "noise_p10", "mitigate"}}
# a valid value off the default for each setting; every run below passes
# `--out`
NON_DEFAULT = {
    "m": ["--mq", "330.0"], "mbar": ["--mbar", "330.0"],
    "kappa": ["--kappa", "220.0"], "b": ["--b", "220.0"],
    "g_pi": ["--gpi", "2.4e-4"], "encoding": ["--encoding", "bk"],
    "mode": ["--mode", "sampled"], "shots": ["--shots", "7"],
    "seed": ["--seed", "7"], "noise_p01": ["--noise-p01", "0.05"],
    "noise_p10": ["--noise-p10", "0.05"], "mitigate": ["--mitigate"],
    "max_iterations": ["--max-iterations", "400"],
    "tolerance": ["--tolerance", "0.5"],
}
NOISE = {"mode": ["--mode", "noisy"], "noise_p01": ["--noise-p01", "0.03"],
         "noise_p10": ["--noise-p10", "0.02"]}
# each run's command and the settings it starts from
RUNS = {
    "hamiltonian": (["hamiltonian"], {}),
    "observables": (["observables"], {}),
    "observables --exact": (["observables", "--exact"], {}),
    "vqe": (["vqe"], {}),
    "vqe sampled": (["vqe"], {"mode": NON_DEFAULT["mode"]}),
    "vqe noisy": (["vqe"], NOISE),
    "scaling": (["scaling"], {}),
}


def unread_setting_cases():
    for run, (command, base) in RUNS.items():
        for name, flags in NON_DEFAULT.items():
            yield pytest.param(command, {**base, name: flags}, False,
                               id=f"{run}-{name}")
    sampled = {"mode": ["--mode", "sampled"], "shots": ["--shots", "7"]}
    yield pytest.param(["hamiltonian"],
                       {**sampled, "tolerance": NON_DEFAULT["tolerance"]},
                       False, id="hamiltonian-sampled-tolerance")
    yield pytest.param(["observables"], sampled, False,
                       id="observables-sampled-shots")
    yield pytest.param(["observables"], sampled, True,
                       id="observables-sampled-shots-config-file")
    # the noisy-mode checks do not speak for a run that does not read mode
    yield pytest.param(["scaling"], {"mode": NOISE["mode"]}, False,
                       id="scaling-noisy")
    yield pytest.param(["hamiltonian"],
                       {**NOISE, "noise_p01": ["--noise-p01", "0.5"],
                        "noise_p10": ["--noise-p10", "0.5"],
                        "mitigate": ["--mitigate"]},
                       False, id="hamiltonian-noisy-singular-mitigate")


def test_every_setting_has_a_non_default_case():
    assert set(NON_DEFAULT) | {"out"} == {f.name for f in fields(RunConfig)}


def test_choice_tables_cover_every_choice():
    assert tuple(cli._MODE_READS) == cli.CLI_MODES


@pytest.mark.parametrize("command, settings, in_file", unread_setting_cases())
def test_a_run_refuses_exactly_the_settings_it_does_not_read(
        tmp_path, capsys, command, settings, in_file):
    key = " ".join(command)
    mode = settings.get("mode", ["--mode", "exact"])[1]
    reads = ALWAYS_READ | RUN_READS[key]
    reads |= MODE_READS[mode] if "mode" in reads else set()
    unread = set(settings) - reads
    if in_file:
        cfg = tmp_path / "run.cfg"
        # a switch's line is `name = true`
        cfg.write_text("".join(f"{name} = {(given + ['true'])[1]}\n"
                               for name, given in settings.items()))
        flags = ["--config", str(cfg)]
    else:
        flags = [arg for given in settings.values() for arg in given]
    if command == ["observables"]:
        # angles fitted under the physics, encoding and seed asked for, so
        # only an unread setting can refuse the run
        fit = tmp_path / "fit"
        assert run_cli("vqe", *[arg for name, given in settings.items()
                                if name in ALWAYS_READ | {"encoding"}
                                for arg in given],
                       "--out", str(fit)) == EXIT_OK
        flags += ["--angles", str(fit / "vqe_result.json")]
    out = tmp_path / "out"
    code = run_cli(*command, *flags, "--out", str(out))
    err = capsys.readouterr().err
    if unread:
        assert code == EXIT_CONFIG and not out.exists()
        # the first unread setting in field order is named
        name = next(f.name for f in fields(RunConfig) if f.name in unread)
        assert err.startswith(f"config error: {key} in mode {mode!r} does "
                              f"not read {name}; ")
    else:
        assert code in (EXIT_OK, EXIT_NONCONVERGENCE), err
        assert out.is_dir()


@pytest.mark.parametrize("run", RUNS)
def test_every_run_refuses_the_retired_optimizer_flag(tmp_path, capsys, run):
    # `--optimizer` once chose a scipy backend; there is one minimizer now,
    # so every run's parser refuses the flag before anything is written
    command, base = RUNS[run]
    flags = [arg for given in base.values() for arg in given]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as err:
        run_cli(*command, *flags, "--optimizer", "simplex", "--out", str(out))
    assert err.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --optimizer simplex" in \
        capsys.readouterr().err
    assert not out.exists()


class TestOutputFiles:
    def test_out_naming_a_file_exits_two(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("not a directory\n")
        assert run_cli("hamiltonian", "--out", str(target)) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert target.read_text() == "not a directory\n"

    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch,
                                                  capsys):
        assert run_cli("hamiltonian", "--out", str(tmp_path)) == EXIT_OK
        before = snapshot(tmp_path)
        fail_writing(monkeypatch, "hamiltonian.json", OSError("disk full"))
        capsys.readouterr()
        assert run_cli("hamiltonian", "--kappa", "200",
                       "--out", str(tmp_path)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error: cannot write" in err
        assert str(tmp_path / "hamiltonian.json") in err and "disk full" in err
        assert snapshot(tmp_path) == before

    def test_failed_write_keeps_every_file_of_the_set(self, tmp_path,
                                                      monkeypatch, capsys):
        # the trace is written before the result: it must not be renamed
        # into place beside the previous result
        assert run_cli("vqe", "--out", str(tmp_path)) == EXIT_OK
        before = snapshot(tmp_path)
        fail_writing(monkeypatch, "vqe_result.json", OSError("disk full"))
        capsys.readouterr()
        assert run_cli("vqe", "--mode", "sampled", "--seed", "3",
                       "--out", str(tmp_path)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"cannot write {tmp_path / 'vqe_result.json'}: disk full" in err
        assert snapshot(tmp_path) == before

    def test_failed_last_write_keeps_all_three_files(self, tmp_path,
                                                     monkeypatch, capsys):
        assert run_cli("vqe", "--out", str(tmp_path)) == EXIT_OK
        assert run_cli("observables", "--out", str(tmp_path)) == EXIT_OK
        before = snapshot(tmp_path)
        fail_writing(monkeypatch, "pdf.csv", OSError("disk full"))
        assert run_cli("observables", "--exact",
                       "--out", str(tmp_path)) == EXIT_CONFIG
        assert "cannot write" in capsys.readouterr().err
        assert snapshot(tmp_path) == before

    def test_interrupted_write_is_cleaned_up_and_re_raised(self, tmp_path,
                                                          monkeypatch):
        assert run_cli("observables", "--exact", "--out", str(tmp_path)) == EXIT_OK
        before = snapshot(tmp_path)
        fail_writing(monkeypatch, "form_factor.csv", KeyboardInterrupt())
        with pytest.raises(KeyboardInterrupt):
            run_cli("observables", "--exact", "--kappa", "200",
                    "--out", str(tmp_path))
        assert snapshot(tmp_path) == before


def snapshot(directory):
    """Every file in `directory`, name -> bytes."""
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def fail_writing(monkeypatch, name, error):
    """Make the CLI's write of output file `name` raise `error` once part
    of its text is on disk."""
    def opener(path, mode="r", **kwargs):
        fh = open(path, mode, **kwargs)
        if "w" in mode and os.path.basename(path).startswith(name + "."):
            fh.write("{")
            fh.close()
            raise error
        return fh

    monkeypatch.setattr(cli, "open", opener, raising=False)


class TestHamiltonianCommand:
    def test_output_content(self, tmp_path, capsys):
        assert run_cli("hamiltonian", "--out", str(tmp_path)) == EXIT_OK
        data = read_json(tmp_path / "hamiltonian.json")
        assert data["matrix"][0][0] == pytest.approx(640323, rel=0.02)
        assert data["units"] == "MeV^2"
        assert len(data["eigenvalues"]) == 4
        assert data["eigenvalues"] == sorted(data["eigenvalues"])
        assert set(data["pauli"]) == {"direct", "compact", "bk"}
        assert data["pauli"]["compact"]["II"] == pytest.approx(493515, rel=1e-3)
        assert "config_hash" in data["provenance"]
        out = capsys.readouterr().out
        assert "eigenvalues" in out

    def test_gpi_zero_is_diagonal(self, tmp_path):
        assert run_cli("hamiltonian", "--gpi", "0",
                       "--out", str(tmp_path)) == EXIT_OK
        m = np.array(read_json(tmp_path / "hamiltonian.json")["matrix"])
        assert np.abs(m - np.diag(np.diag(m))).max() == 0.0

    def test_invalid_flag_choice_exits_two(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_cli("vqe", "--encoding", "huffman", "--out", str(tmp_path))
        assert err.value.code == EXIT_CONFIG


class TestVqeCommand:
    def test_exact_run(self, tmp_path):
        assert run_cli("vqe", "--encoding", "compact",
                       "--out", str(tmp_path)) == EXIT_OK
        result = read_json(tmp_path / "vqe_result.json")
        assert result["energy"]["value"] == pytest.approx(19488, rel=1e-3)
        assert result["energy"]["mode"] == "exact"
        assert result["converged"] is True
        assert len(result["theta"]) == 3
        header, rows = read_csv(tmp_path / "vqe_trace.csv")
        assert header == ["iteration", "energy[MeV^2]", "mode"]
        energies = [float(r[1]) for r in rows]
        assert all(a >= b for a, b in zip(energies, energies[1:]))
        assert all(r[2] == "exact" for r in rows)

    def test_nonconvergence_exit_code(self, tmp_path):
        code = run_cli("vqe", "--encoding", "compact", "--max-iterations",
                       "3", "--out", str(tmp_path))
        assert code == EXIT_NONCONVERGENCE
        assert (tmp_path / "vqe_result.json").exists()

    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            out.mkdir()
            assert run_cli("vqe", "--encoding", "compact", "--mode", "noisy",
                           "--noise-p01", "0.03", "--noise-p10", "0.03",
                           "--mitigate", "--shots", "1024", "--seed", "11",
                           "--out", str(out)) in (EXIT_OK,
                                                  EXIT_NONCONVERGENCE)
        for name in ("vqe_trace.csv", "vqe_result.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_mode_label_in_trace(self, tmp_path):
        run_cli("vqe", "--encoding", "compact", "--mode", "noisy",
                "--noise-p01", "0.02", "--noise-p10", "0.02", "--mitigate",
                "--shots", "512", "--seed", "3", "--out", str(tmp_path))
        _, rows = read_csv(tmp_path / "vqe_trace.csv")
        assert all(r[2] == "sampled+noise+mitigation" for r in rows)

    def test_noisy_without_probabilities(self, tmp_path, capsys):
        assert run_cli("vqe", "--mode", "noisy",
                       "--out", str(tmp_path)) == EXIT_CONFIG
        assert "noise_p01" in capsys.readouterr().err

    def test_singular_mitigation_is_a_config_error(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("vqe", "--mode", "noisy", "--noise-p01", "0.5",
                       "--noise-p10", "0.5", "--mitigate",
                       "--out", str(out)) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    # `--max-iterations 50` follows the drawn flags, so every run stays short
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(VQE_FLAGS, CONFIG_BYTES)
    def test_any_flags_and_config_end_in_an_exit_code(self, tmp_path, capsys,
                                                      flags, blob):
        out = tmp_path / "out"
        code = run_any("vqe", [*flags, "--max-iterations", "50"], blob, out,
                       capsys)
        if code in (EXIT_OK, EXIT_NONCONVERGENCE):
            result = assert_finite_json(out / "vqe_result.json")
            if result["energy"]["mode"] == "exact":
                # a variational energy never lies below the ground level
                config = RunConfig(**result["provenance"]["config"])
                h = build_effective_hamiltonian(config.model_parameters())
                floor = np.linalg.eigvalsh(h.entries)[0]
                assert result["energy"]["value"] >= \
                    floor - 1e-9 * np.abs(h.entries).max()


@pytest.mark.parametrize("settings, tag", [
    ({}, "exact"), ({"mode": "sampled", "shots": 512}, "sampled"),
    ({**NOISY, "mitigate": True, "shots": 512}, "sampled+noise+mitigation")],
    ids=["exact", "sampled", "noisy"])
def test_a_vqe_record_reads_back_as_written(tmp_path, capsys, settings, tag):
    config = RunConfig(**settings, encoding="direct", kappa=210.0, seed=4,
                       out=str(tmp_path))
    h = build_effective_hamiltonian(config.model_parameters())
    result = vqe.vqe_run(vqe.lookup_encoding("direct").embed(h), "direct",
                         mode=config.vqe_mode(), shots=config.shots,
                         noise=config.noise_model(), seed=config.seed,
                         config=config.optimizer_config())
    assert cli.write_vqe_record(config, result) == [
        str(tmp_path / "vqe_trace.csv"), str(tmp_path / "vqe_result.json")]
    # an observables run of the same encoding and model reads it back
    reader = RunConfig(encoding="direct", kappa=210.0, out=str(tmp_path),
                       command="observables")
    theta, mode, energy = cli.read_vqe_record(reader)
    assert (tuple(theta), mode, energy) == (result.theta, tag, result.energy)
    # a converged run's record is read without a warning
    assert result.converged and capsys.readouterr().err == ""


@pytest.fixture(scope="module")
def fitted_vqe_result(tmp_path_factory):
    """vqe_result.json of a default exact compact run."""
    out = tmp_path_factory.mktemp("fitted")
    assert run_cli("vqe", "--out", str(out)) == EXIT_OK
    return read_json(out / "vqe_result.json")


@pytest.fixture
def fitted_result(fitted_vqe_result):
    """A copy of the fitted result that a test may edit."""
    return json.loads(json.dumps(fitted_vqe_result))


class TestObservablesCommand:
    def test_exact_route(self, tmp_path):
        assert run_cli("observables", "--exact",
                       "--out", str(tmp_path)) == EXIT_OK
        table = read_json(tmp_path / "observables.json")
        assert table["charge_radius"]["value"] == pytest.approx(6.31e-3,
                                                                rel=0.01)
        assert table["charge_radius"]["units"] == "MeV^-1"
        assert table["f_pi"]["value"] == pytest.approx(54.06, rel=1e-3)
        assert table["mass_radius_squared"]["value"] == pytest.approx(
            1.393, rel=1e-3)
        for key in ("m_pi2", "f_pi", "mass_radius_squared", "charge_radius"):
            assert table[key]["mode"] == "exact"

    def test_form_factor_csv(self, tmp_path):
        run_cli("observables", "--exact", "--out", str(tmp_path))
        header, rows = read_csv(tmp_path / "form_factor.csv")
        assert header == ["Q2[MeV^2]", "F_P[dimensionless]"]
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-9)
        assert len(rows) >= 50

    def test_pdf_csv(self, tmp_path):
        run_cli("observables", "--exact", "--out", str(tmp_path))
        header, rows = read_csv(tmp_path / "pdf.csv")
        assert header == ["x[dimensionless]", "f[dimensionless]"]
        values = np.array([[float(a), float(b)] for a, b in rows])
        assert np.all(values[:, 1] >= 0.0)
        assert values[:, 0].min() > 0.0 and values[:, 0].max() < 1.0

    @pytest.mark.parametrize("encoding", ["direct", "compact", "bk"])
    def test_stored_angles_give_the_coefficients_without_a_register(
            self, tmp_path, monkeypatch, encoding):
        # the wave function is Encoding.coefficients of the stored angles;
        # nothing reads it back off a qubit register
        assert not hasattr(blfqvqe, "extract_amplitudes")
        assert not hasattr(vqe, "extract_amplitudes")
        assert run_cli("vqe", "--encoding", encoding,
                       "--out", str(tmp_path)) == EXIT_OK

        def no_register(*args, **kwargs):
            raise AssertionError("observables built a Statevector")

        monkeypatch.setattr(simulator.Statevector, "__init__", no_register)
        assert run_cli("observables", "--encoding", encoding,
                       "--out", str(tmp_path)) == EXIT_OK
        energy = read_json(tmp_path / "vqe_result.json")["energy"]["value"]
        table = read_json(tmp_path / "observables.json")
        assert table["m_pi2"]["value"] == pytest.approx(energy, rel=1e-12)

    def test_angles_route(self, tmp_path):
        run_cli("vqe", "--encoding", "compact", "--mode", "sampled",
                "--shots", "4096", "--seed", "5", "--out", str(tmp_path))
        assert run_cli("observables", "--encoding", "compact",
                       "--out", str(tmp_path)) == EXIT_OK
        table = read_json(tmp_path / "observables.json")
        assert table["m_pi2"]["mode"] == "sampled"
        assert "vqe_energy" in table
        assert table["m_pi2"]["value"] == pytest.approx(19476, rel=0.05)

    def test_negative_mass_squared_exits_four(self, tmp_path, capsys):
        # kappa = 250 MeV puts the ground m_pi^2 near -186,272 MeV^2
        run_cli("vqe", "--kappa", "250", "--out", str(tmp_path))
        assert run_cli("observables", "--kappa", "250",
                       "--out", str(tmp_path)) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "observables.json").exists()

    def test_missing_angles(self, tmp_path, capsys):
        assert run_cli("observables", "--encoding", "compact",
                       "--out", str(tmp_path)) == EXIT_CONFIG
        assert "run the vqe subcommand" in capsys.readouterr().err

    def test_exact_with_angles_exits_two(self, tmp_path, capsys):
        # each flag names the state to use, so the pair contradicts itself
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            run_cli("observables", "--exact", "--angles",
                    str(tmp_path / "vqe_result.json"), "--out", str(out))
        assert err.value.code == EXIT_CONFIG
        assert "--angles: not allowed with argument --exact" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_encoding_mismatch(self, tmp_path, capsys):
        run_cli("vqe", "--encoding", "compact", "--out", str(tmp_path))
        assert run_cli("observables", "--encoding", "direct",
                       "--out", str(tmp_path)) == EXIT_CONFIG
        assert "encoding" in capsys.readouterr().err

    # each file is the fitted result with one field spoiled, so the
    # refusal can only come from that field
    @pytest.mark.parametrize("theta, refusal", [
        ("absent", "3 angles, got None"),
        ([0.1, 0.2], "3 angles, got [0.1, 0.2]"),
        ([0.1, 0.2, 0.3, 0.4], "3 angles, got [0.1, 0.2, 0.3, 0.4]"),
        (["a", 0.2, 0.3], "a number, got 'a'"),
        ("123", "3 angles, got '123'"), (None, "3 angles, got None"),
        (["0.1", "0.2", "0.3"], "a number, got '0.1'"),
        ([True, False, True], "a number, not a boolean, got True"),
        ([10**400, 0.2, 0.3], "finite, got a number beyond float range")],
        ids=["absent", "two", "four", "non-numeric", "string", "null",
             "numeric-strings", "booleans", "beyond-float"])
    def test_bad_stored_angles_exit_two(self, fitted_result, tmp_path, capsys,
                                        theta, refusal):
        # the angles pass vqe_run's rule (require_angles), under the key's
        # name in the file
        del fitted_result["theta"]
        if theta != "absent":
            fitted_result["theta"] = theta
        angles = tmp_path / "vqe_result.json"
        angles.write_text(json.dumps(fitted_result))
        assert run_cli("observables", "--angles", str(angles),
                       "--out", str(tmp_path)) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {angles}: 'theta' must be {refusal}\n")
        assert not (tmp_path / "observables.json").exists()

    @pytest.mark.parametrize("energy, field", [
        (5, "'energy'"),
        ({"value": "19476.1", "mode": "exact"}, "'energy.value'"),
        ({"value": float("nan"), "mode": "exact"}, "'energy.value'"),
        ({"value": True, "mode": "exact"}, "'energy.value'"),
        ({"value": None, "mode": "exact"}, "'energy.value'"),
        ({"value": 19476.1, "mode": {"a": 1}}, "'energy.mode'"),
        ({"value": 19476.1, "mode": "banana"}, "'energy.mode'"),
    ], ids=["non-object", "string-value", "nan-value", "boolean-value",
            "null-value", "object-mode", "unknown-mode"])
    def test_non_object_stored_energy_exits_two(self, fitted_result, tmp_path,
                                                capsys, energy, field):
        fitted_result["energy"] = energy
        angles = tmp_path / "vqe_result.json"
        angles.write_text(json.dumps(fitted_result))
        assert run_cli("observables", "--angles", str(angles),
                       "--out", str(tmp_path)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "config error" in err and field in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vqe_result.json"]

    def test_unconverged_angles_warn_and_exit_zero(self, fitted_result,
                                                   tmp_path, capsys):
        # a run that did not converge still has angles to read, so the
        # observables follow with one line of warning that names the file
        fitted_result["converged"] = False
        angles = tmp_path / "vqe_result.json"
        angles.write_text(json.dumps(fitted_result))
        assert run_cli("observables", "--out", str(tmp_path)) == EXIT_OK
        assert capsys.readouterr().err == (
            f"warning: {angles} holds the angles of a vqe run that did not "
            f"converge\n")
        assert (tmp_path / "observables.json").exists()

    @pytest.mark.parametrize("converged", ["no", 0, 1, None, [False]],
                             ids=["string", "zero", "one", "null", "list"])
    def test_a_converged_that_is_no_boolean_exits_two(
            self, fitted_result, tmp_path, capsys, converged):
        fitted_result["converged"] = converged
        angles = tmp_path / "vqe_result.json"
        angles.write_text(json.dumps(fitted_result))
        assert run_cli("observables", "--out", str(tmp_path)) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: {angles}: 'converged' must be true or false, "
            f"got {converged!r}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["vqe_result.json"]

    @pytest.mark.parametrize("blob", [b'{"encoding": "compact\xff"}',
                                      b"[" * 100_000 + b"]" * 100_000],
                             ids=["non-utf8", "nested-too-deep"])
    def test_undecodable_angles_file_exits_two(self, tmp_path, capsys, blob):
        angles = tmp_path / "vqe_result.json"
        angles.write_bytes(blob)
        assert run_cli("observables", "--angles", str(angles),
                       "--out", str(tmp_path)) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("fitted, here, message", [
        ((), ("--kappa", "200"), "kappa = 227.0 there, 200.0 here"),
        ((), ("--b", "200"), "b = 227.0 there, 200.0 here"),
        (("--b", "200"), (), "b = 200.0 there, 227.0 here")],
        ids=["kappa", "b-set-here", "b-set-there"])
    def test_angles_from_other_physics_exit_two(self, tmp_path, capsys,
                                                fitted, here, message):
        # the default kappa is 227 MeV; the angles fitted there do not
        # describe the kappa = 200 MeV ground state, nor b = 200 MeV's
        assert run_cli("vqe", *fitted, "--out", str(tmp_path)) == EXIT_OK
        capsys.readouterr()
        assert run_cli("observables", *here,
                       "--out", str(tmp_path)) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "observables.json").exists()

    @pytest.mark.parametrize("provenance", [None, {}, {"config": "x"},
                                            {"config": {"kappa": 227.0}}],
                             ids=["absent", "empty", "not-an-object",
                                  "partial"])
    def test_angles_without_provenance_exit_two(self, tmp_path, capsys,
                                                provenance):
        stored = {"encoding": "compact", "theta": [0.1, 0.2, 0.3],
                  "energy": {"value": 1.0, "mode": "exact"}}
        if provenance is not None:
            stored["provenance"] = provenance
        angles = tmp_path / "vqe_result.json"
        angles.write_text(json.dumps(stored))
        assert run_cli("observables", "--angles", str(angles),
                       "--out", str(tmp_path)) == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "observables.json").exists()

    @pytest.mark.parametrize("field, value", [
        ("m", 338.0), ("mbar", 338.0), ("kappa", 200.0), ("b", 200.0),
        ("g_pi", 10.0)])
    def test_each_physics_field_is_checked(self, fitted_result, tmp_path,
                                           capsys, field, value):
        fitted_result["provenance"]["config"][field] = value
        angles = tmp_path / "vqe_result.json"
        angles.write_text(json.dumps(fitted_result))
        assert run_cli("observables", "--out", str(tmp_path)) == EXIT_CONFIG
        assert f"{field} = {value!r} there" in capsys.readouterr().err
        assert not (tmp_path / "observables.json").exists()

    @pytest.mark.parametrize("fitted, here", [
        ((), ("--b", "227")), (("--b", "227"), ()),
        (("--kappa", "200"), ("--kappa", "200", "--b", "200"))],
        ids=["b-unset-there", "b-unset-here", "b-unset-there-kappa-200"])
    def test_an_unset_b_matches_b_equal_to_kappa(self, tmp_path, fitted,
                                                 here):
        # both spellings build the same Hamiltonian, so the angles apply
        assert run_cli("vqe", *fitted, "--out", str(tmp_path)) == EXIT_OK
        assert run_cli("observables", *here, "--out", str(tmp_path)) == EXIT_OK
        energy = read_json(tmp_path / "vqe_result.json")["energy"]["value"]
        table = read_json(tmp_path / "observables.json")
        assert table["m_pi2"]["value"] == pytest.approx(energy, rel=1e-9)

    @pytest.mark.parametrize("field, value, refusal", [
        ("m", "337.01", "m must be a number, got '337.01'"),
        ("b", "227", "b must be a number, got '227'"),
        ("mbar", None, "mbar must be a number, got None"),
        ("kappa", -1.0, "masses and scales must be positive"),
        ("b", [227.0], "b must be a number, got [227.0]"),
        ("g_pi", 10**400, "g_pi must be finite"),
        ("m", float("nan"), "m must be finite")],
        ids=["text", "text-b", "null", "negative", "list", "beyond-float",
             "nan"])
    def test_a_stored_model_setting_that_is_no_model_exits_two(
            self, fitted_result, tmp_path, capsys, field, value, refusal):
        fitted_result["provenance"]["config"][field] = value
        angles = tmp_path / "vqe_result.json"
        angles.write_text(json.dumps(fitted_result))
        assert run_cli("observables", "--out", str(tmp_path)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {angles}: provenance.config")
        assert refusal in err
        assert not (tmp_path / "observables.json").exists()

    def test_a_stored_boolean_model_setting_exits_two(
            self, fitted_result, tmp_path, capsys):
        # true would read as m = 1 MeV and match --mq 1
        fitted_result["provenance"]["config"]["m"] = True
        angles = tmp_path / "vqe_result.json"
        angles.write_text(json.dumps(fitted_result))
        assert run_cli("observables", "--mq", "1",
                       "--out", str(tmp_path)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {angles}: provenance.config")
        assert "m must be a number, not a boolean" in err
        assert not (tmp_path / "observables.json").exists()

    @pytest.mark.parametrize("field, value", [
        ("seed", 99), ("shots", 1024), ("mode", "sampled"),
        ("optimizer", "linear-trust-region"), ("tolerance", 0.5)])
    def test_other_settings_may_differ(self, fitted_result, tmp_path, field,
                                       value):
        fitted_result["provenance"]["config"][field] = value
        angles = tmp_path / "vqe_result.json"
        angles.write_text(json.dumps(fitted_result))
        assert run_cli("observables", "--out", str(tmp_path)) == EXIT_OK
        table = read_json(tmp_path / "observables.json")
        assert table["m_pi2"]["value"] == pytest.approx(
            fitted_result["energy"]["value"], rel=1e-9)

    def test_angles_recording_an_optimizer_setting_are_read(
            self, fitted_result, tmp_path):
        # files written while `optimizer` was a setting record it in their
        # provenance; only the model settings are compared, so such a file
        # gives the observables of the same file without it
        outputs = []
        for old in (False, True):
            if old:
                fitted_result["provenance"]["config"]["optimizer"] = "simplex"
            out = tmp_path / f"old-{old}"
            out.mkdir()
            (out / "vqe_result.json").write_text(json.dumps(fitted_result))
            assert run_cli("observables", "--out", str(out)) == EXIT_OK
            outputs.append([(out / name).read_bytes() for name in
                            ("observables.json", "form_factor.csv", "pdf.csv")])
        assert outputs[0] == outputs[1]

    # a default fitted result sits in the output directory, so runs without
    # --exact or --angles read it
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(OBSERVABLES_FLAGS, CONFIG_BYTES)
    def test_any_flags_and_config_end_in_an_exit_code(
            self, fitted_vqe_result, tmp_path, capsys, flags, blob):
        out = tmp_path / "out"
        out.mkdir(exist_ok=True)
        (out / "observables.json").unlink(missing_ok=True)
        (out / "vqe_result.json").write_text(json.dumps(fitted_vqe_result))
        code = run_any("observables", flags, blob, out, capsys)
        if code == EXIT_OK:
            assert_finite_json(out / "observables.json")

    def test_angles_and_config_files_are_closed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("encoding = compact\n")
        run_cli("vqe", "--config", str(cfg), "--out", str(tmp_path))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli("observables", "--config", str(cfg),
                           "--out", str(tmp_path)) == EXIT_OK
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


class TestScalingCommand:
    def test_output(self, tmp_path):
        assert run_cli("scaling", "--encoding", "compact", "--seed", "2024",
                       "--out", str(tmp_path)) == EXIT_OK
        summary = read_json(tmp_path / "scaling.json")
        assert 1.8 <= summary["exponent"] <= 2.2
        assert summary["constant"] > 0
        header, rows = read_csv(tmp_path / "scaling.csv")
        assert header == ["shots_per_term", "rms_relative_error"]
        shots = [int(r[0]) for r in rows]
        assert shots == sorted(shots) and len(shots) == 6

    # shots per term summed over the grid (504) x measured terms x repeats
    @pytest.mark.parametrize("encoding,total", [("compact", 504 * 5 * 600),
                                                ("direct", 504 * 16 * 244)])
    def test_total_shots(self, tmp_path, encoding, total):
        assert run_cli("scaling", "--encoding", encoding, "--seed", "3",
                       "--out", str(tmp_path)) == EXIT_OK
        assert read_json(tmp_path / "scaling.json")["total_shots"] == total

    # the table's angles come in closed form, with no fit that could stop
    # short, so no run ends in exit 3
    @settings(max_examples=50, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(SCALING_FLAGS, CONFIG_BYTES)
    def test_any_flags_and_config_end_in_an_exit_code(self, tmp_path, capsys,
                                                      flags, blob):
        out = tmp_path / "out"
        code = run_any("scaling", flags, blob, out, capsys)
        assert code != EXIT_NONCONVERGENCE
        if code == EXIT_OK:
            assert_finite_json(out / "scaling.json")

    @pytest.mark.parametrize("physics", [("--mq", "6204329972905358.0"),
                                         ("--mq", "1e-300", "--b", "3.6e66",
                                          "--kappa", "1e-8"),
                                         ("--kappa", "3.9e16", "--b", "7.2e16")])
    def test_unfittable_table_exits_four(self, tmp_path, capsys, physics):
        # a non-finite Hamiltonian, or a state with no shot noise (RMS rows
        # at zero or at the energy's rounding scale), leaves the
        # relative-error law undefined
        assert run_cli("scaling", *physics,
                       "--out", str(tmp_path)) == EXIT_NUMERICAL
        assert "numerical failure" in capsys.readouterr().err
        assert not (tmp_path / "scaling.json").exists()

    @pytest.mark.parametrize("flags, setting", [
        (["--mode", "sampled"], "mode"),
        (["--mode", "noisy", "--noise-p01", "0.2", "--noise-p10", "0.1"],
         "mode"),
        (["--mode", "noisy", "--noise-p01", "0.2", "--noise-p10", "0.1",
          "--mitigate"], "mode"),
        (["--shots", "7"], "shots"),
    ], ids=["sampled", "noisy", "mitigated", "shots"])
    def test_sampling_settings_exit_two(self, tmp_path, capsys, flags,
                                        setting):
        # the table never uses them, so provenance must not record them
        out = tmp_path / "out"
        assert run_cli("scaling", *flags, "--out", str(out)) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: scaling in mode ")
        assert f" does not read {setting}; it must stay " in err
        assert not out.exists()

    def test_sampling_mode_in_config_file_exits_two(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("mode = noisy\nnoise_p01 = 0.03\nnoise_p10 = 0.03\n")
        out = tmp_path / "out"
        assert run_cli("scaling", "--config", str(cfg),
                       "--out", str(out)) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            "config error: scaling in mode 'noisy' does not read mode; "
            "it must stay 'exact', got 'noisy'")
        assert not out.exists()

    def test_reproducible(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            out.mkdir()
            run_cli("scaling", "--encoding", "compact", "--seed", "1",
                    "--out", str(out))
        assert (a / "scaling.csv").read_bytes() == (b / "scaling.csv").read_bytes()
        assert (a / "scaling.json").read_bytes() == (b / "scaling.json").read_bytes()


@pytest.mark.parametrize("command", [["hamiltonian"], ["vqe"],
                                     ["observables", "--exact"], ["scaling"]],
                         ids=["hamiltonian", "vqe", "observables", "scaling"])
def test_non_finite_hamiltonian_exits_four(tmp_path, capsys, command):
    # this quark mass leaves NaN in the contact matrix elements
    out = tmp_path / "out"
    assert run_cli(*command, "--mq", "6204329972905358.0",
                   "--out", str(out)) == EXIT_NUMERICAL
    assert "numerical failure: entries must be finite" in capsys.readouterr().err
    assert not list(out.iterdir())


@pytest.mark.parametrize("argv, setting", [
    (["vqe", "--mq", "1e200"], "m = 1e+200"),
    (["observables", "--exact", "--mq", "1e200"], "m = 1e+200"),
    (["scaling", "--mbar", "1e300"], "mbar = 1e+300"),
    (["vqe", "--b", "1e200"], "b = 1e+200"),
    (["hamiltonian", "--kappa", "1e-200"], "kappa = 1e-200"),
], ids=["vqe-mq", "observables-mq", "scaling-mbar", "vqe-b", "hamiltonian-kappa"])
def test_overflowing_settings_exit_four(tmp_path, capsys, argv, setting):
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: the model settings ")
    assert setting in err and "g_pi = 0.000250785" in err
    assert not list(out.iterdir())


def test_non_finite_observables_exit_four(tmp_path, capsys):
    # this quark mass leaves a finite Hamiltonian but NaN longitudinal modes
    out = tmp_path / "out"
    assert run_cli("observables", "--exact", "--mq", "6.395647384642358e16",
                   "--out", str(out)) == EXIT_NUMERICAL
    assert "|F| must be finite" in capsys.readouterr().err
    assert not list(out.iterdir())


@pytest.mark.parametrize("argv, message", [
    (["hamiltonian", "--gpi", "1e300"], "entries must be finite"),
    (["observables", "--exact", "--mq", "6.395647384642358e16"],
     "|F| must be finite"),
], ids=["hamiltonian-gpi", "observables-mq"])
def test_numerical_failure_is_one_line(tmp_path, capsys, argv, message):
    # numpy warns on the way to both failures; none of it may reach stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv, "--out", str(tmp_path)) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and err.count("\n") == 1
    assert message in err


def test_non_finite_sampled_error_exits_four(tmp_path, capsys):
    # the energy stays finite, but its standard error overflows to NaN
    out = tmp_path / "out"
    assert run_cli("vqe", "--mode", "sampled", "--encoding", "direct",
                   "--mq", "1e50", "--max-iterations", "50",
                   "--out", str(out)) == EXIT_NUMERICAL
    assert "is not finite" in capsys.readouterr().err
    assert not list(out.iterdir())


@pytest.mark.parametrize("argv, command", [
    (["hamiltonian"], "cmd_hamiltonian"), (["vqe"], "cmd_vqe"),
    (["observables", "--exact"], "cmd_observables"),
    (["scaling"], "cmd_scaling")], ids=["hamiltonian", "vqe", "observables",
                                        "scaling"])
def test_main_calls_the_traced_names_through_the_module(
        tmp_path, monkeypatch, argv, command):
    # bench/spans.py replaces these module attributes, so `main` must look
    # each one up on the module at call time; the model is built once
    calls = []
    build = cli.build_effective_hamiltonian

    def spy_build(params):
        calls.append(("build_effective_hamiltonian", params))
        return build(params)

    def spy_command(name):
        def spy(*args):
            calls.append((name, args))
            return EXIT_OK
        return spy

    monkeypatch.setattr(cli, "build_effective_hamiltonian", spy_build)
    for name in ("cmd_hamiltonian", "cmd_vqe", "cmd_observables",
                 "cmd_scaling"):
        monkeypatch.setattr(cli, name, spy_command(name))
    assert run_cli(*argv, "--kappa", "210.0", "--out", str(tmp_path)) == EXIT_OK
    (built, params), (called, args) = calls
    assert (built, called) == ("build_effective_hamiltonian", command)
    assert params.kappa == 210.0
    config, h = args[:2]
    assert isinstance(config, RunConfig) and config.kappa == 210.0
    assert np.array_equal(h.entries,
                          build_effective_hamiltonian(params).entries)


def test_an_empty_budget_exits_two(tmp_path, capsys):
    out = tmp_path / "out"
    assert run_cli("vqe", "--max-iterations", "0",
                   "--out", str(out)) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        "config error: max_iterations must be a whole number of at least 1, "
        "got 0\n")
    assert not out.exists()


def test_benchmark_traced_names_exist():
    # bench/spans.py wraps these attributes by name; a missing one would
    # only surface as an AttributeError in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [(module, attr) for module, attr, _ in spans.TRACED
               if not hasattr(importlib.import_module(f"blfqvqe.{module}"), attr)]
    assert spans.TRACED and not missing


def test_benchmark_workload_names_exist():
    # bench/workloads.py reaches the package as `pkg` or `self.pkg`, and
    # through locals such as `vqe = self.pkg.vqe`; a renamed export would
    # only surface as failed benchmark jobs
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    aliases = {}

    def package_path(node):
        """The names after the package in an attribute chain, or None."""
        names = []
        while isinstance(node, ast.Attribute):
            names.insert(0, node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        if node.id == "self" and names[:1] == ["pkg"]:
            return names[1:]
        if node.id == "pkg":
            return names
        return aliases[node.id] + names if node.id in aliases else None

    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            names = package_path(node.value)
            if names:
                aliases[node.targets[0].id] = names
    looked_up = {tuple(names) for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and (names := package_path(node))}

    def exists(names):
        obj = importlib.import_module("blfqvqe")
        for name in names:
            if not hasattr(obj, name):
                return False
            obj = getattr(obj, name)
        return True

    assert {("vqe", "prepared_state"), ("vqe", "GOOD_GUESS"),
            ("cli", "main"), ("embed_direct",)} <= looked_up
    assert sorted(".".join(n) for n in looked_up if not exists(n)) == []


@pytest.mark.parametrize("argv", [
    [], ["hamiltonian"], ["observables", "--exact"], ["scaling"],
    ["vqe", "--encoding", "compact", "--mode", "sampled", "--seed", "7"]],
    ids=["import", "hamiltonian", "observables-exact", "scaling", "vqe"])
def test_no_command_loads_scipy(tmp_path, argv):
    # the runtime needs numpy alone: log-Gamma, the Gauss-Legendre rules
    # and the Laguerre polynomials are the package's own, the minimizer
    # is `vqe.minimize`, and the scaling table's angles come in closed form
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    # the command's own report goes to a buffer, so stdout is the one answer
    command = ("with contextlib.redirect_stdout(io.StringIO()): "
               f"assert blfqvqe.cli.main({argv + ['--out', str(tmp_path)]!r})"
               " == 0\n" if argv else "")
    run = subprocess.run(
        [sys.executable, "-c", "import contextlib, io, sys, blfqvqe.cli\n"
         + command + "print(sorted(m for m in sys.modules"
         " if m.partition('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
