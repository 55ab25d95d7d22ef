"""Preset registry and the command line surface: schemas, exit codes,
and byte-for-byte reproducibility of artifacts."""

import argparse
import ast
import csv
import importlib.util
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mwclab import cli, mmv
from mwclab.distributions import NonzeroDistribution
from mwclab.mmv import recovery_experiment
from mwclab.presets import TABLE2_ROW_ORDER, Preset, list_presets, load_preset
from mwclab.reports import fig2_report, table1_report

REQUIRED_PRESETS = (
    "table1_mwc",
    "table2_maximal",
    "table2_gold",
    "table2_hadamard",
    "table2_random1",
    "table2_kasami",
    "table2_random2",
    "fig2_sweep",
)


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.update(env_extra or {})
    return subprocess.run(
        [sys.executable, "-m", "mwclab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def test_required_presets_exist():
    names = list_presets()
    for name in REQUIRED_PRESETS:
        assert name in names
    assert set(TABLE2_ROW_ORDER) <= set(names)


def test_preset_parameters():
    gold = load_preset("table2_gold")
    assert gold.get_int("m") == 80
    assert gold.get_int("n") == 9
    assert gold.get_int("k") == 24
    assert gold.get_float("delta") == pytest.approx(0.41421356237309515)
    spec = gold.family_spec()
    assert spec.family == "gold" and spec.length == 511

    kas = load_preset("table2_kasami").family_spec()
    assert kas.family == "kasami" and kas.m == 16 and kas.length == 255

    r2 = load_preset("table2_random2")
    assert r2.family_spec().seed == 2 and r2.family_spec().M == 195

    sweep = load_preset("fig2_sweep")
    assert sweep.get_int("m_start") == 20
    assert sweep.get_int("m_stop") == 100
    assert sweep.get_int("m_step") == 5


def test_unknown_preset_raises():
    with pytest.raises(ValueError):
        load_preset("table3_nope")


def test_cli_gen_and_measures_round_trip(tmp_path):
    pat = tmp_path / "g.pat"
    r = run_cli("gen", "--family", "gold", "--n", "5", "--m", "6", "--out", str(pat))
    assert r.returncode == 0, r.stderr
    header = pat.read_text().splitlines()[0]
    assert header == "6 31 gold none"

    out = tmp_path / "m.json"
    r = run_cli("measures", "--pattern", str(pat), "--out", str(out))
    assert r.returncode == 0, r.stderr
    d = json.loads(out.read_text())
    assert set(d) == {"alpha", "beta", "gamma", "mu", "spectral_norm_sq", "m", "M", "zero_columns"}
    assert d["m"] == 6 and d["M"] == 31


def test_cli_gen_is_reproducible(tmp_path):
    a, b = tmp_path / "a.pat", tmp_path / "b.pat"
    for path in (a, b):
        r = run_cli("gen", "--family", "random", "--M", "63", "--m", "10", "--seed", "5", "--out", str(path))
        assert r.returncode == 0, r.stderr
    assert a.read_bytes() == b.read_bytes()


def test_cli_exrip_schema(tmp_path):
    out = tmp_path / "e.json"
    r = run_cli("exrip", "--preset", "table2_kasami", "--out", str(out))
    assert r.returncode == 0, r.stderr
    d = json.loads(out.read_text())
    assert set(d) == {"bound", "probability", "raw_value", "feasible", "params"}
    assert d["bound"] == "exrip"
    assert 0.65 <= d["probability"] <= 0.72


def test_cli_bounds_schema(tmp_path):
    out = tmp_path / "b.json"
    r = run_cli(
        "bounds", "--family", "random", "--M", "63", "--m", "10",
        "--family-seed", "1", "--k", "4", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    d = json.loads(out.read_text())
    for key in ("mu", "donoho_elad_max_k", "calderbank", "gan", "tropp", "rip_min_m", "exrip"):
        assert key in d
    assert d["candes_plan"] == {"evaluable": False, "mu_ok": None, "k_ok": None}
    for sub in ("calderbank", "gan", "tropp", "exrip"):
        assert set(d[sub]) == {"bound", "probability", "raw_value", "feasible", "params"}
    # table1's policy: target 0.97, and Tropp's t puts 1 - (k/2)^(-t) there
    assert d["rip_target_prob"] == 0.97
    assert 1.0 - (4 / 2) ** -d["tropp"]["params"]["t"] == pytest.approx(0.97, abs=1e-12)


def test_cli_verify_thread_independent(tmp_path):
    outs = []
    for name, threads in (("v1.json", "1"), ("v2.json", "2")):
        out = tmp_path / name
        r = run_cli(
            "verify", "--preset", "table2_kasami", "--trials", "2000", "--out", str(out),
            env_extra={"MWCLAB_THREADS": threads},
        )
        assert r.returncode == 0, r.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    d = json.loads(outs[0])
    assert d["lower_bound_holds"] is True
    assert d["mean_z2_is_one"] is True


THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "OMP_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@pytest.mark.parametrize(
    "given, want",
    [
        ({}, ("1",) * 5),
        # criterion 11's second side: the suite's own pin is inherited
        ({"MWCLAB_THREADS": "2", "OPENBLAS_NUM_THREADS": "1"}, ("2",) * 5),
        ({"OPENBLAS_NUM_THREADS": "3"}, ("3",) + ("1",) * 4),
    ],
)
def test_package_import_pins_threads(given, want):
    # a fresh interpreter importing one numeric submodule, not the CLI
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS + ("MWCLAB_THREADS",)}
    env.update(given)
    code = (
        "import os, mwclab.sequences; "
        f"print(' '.join(os.environ[v] for v in {THREAD_VARS!r}))"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    assert tuple(r.stdout.split()) == want


def test_cli_recover_runs(tmp_path):
    out = tmp_path / "r.json"
    r = run_cli(
        "recover", "--family", "random", "--M", "63", "--m", "16",
        "--family-seed", "2", "--k-rows", "3", "--r", "4", "--trials", "40",
        "--seed", "0", "--out", str(out),
    )
    assert r.returncode == 0, r.stderr
    d = json.loads(out.read_text())
    assert d["trials"] == 40
    assert 0.0 <= d["success_rate"] <= 1.0


def test_cli_sweep_schema_and_determinism(tmp_path):
    a, b = tmp_path / "s1.csv", tmp_path / "s2.csv"
    for path, threads in ((a, "1"), (b, "2")):
        r = run_cli("sweep", "--out", str(path), env_extra={"MWCLAB_THREADS": threads})
        assert r.returncode == 0, r.stderr
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "m,p_exact,p_approx"
    assert len(lines) == 18  # header + 17 channel counts
    assert lines[1].startswith("20,")


def test_cli_table1_trimmed(tmp_path):
    out = tmp_path / "t1.csv"
    r = run_cli("table1", "--attempts", "2", "--ceiling", "64", "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "bound,k,target,m_required,status,note"
    assert len(lines) == 10  # header + nine bounds
    rows = {line.split(",")[0]: line for line in lines[1:]}
    assert "never" in rows["candes_plan"]
    assert "never" in rows["calderbank"]
    assert rows["exrip_approx"].split(",")[3] == "39"
    record = json.loads(r.stderr.strip().splitlines()[-1])
    assert (record["preset"], record["seed"]) == ("table1_mwc", 0)


def test_cli_table2_full(tmp_path):
    out = tmp_path / "t2.csv"
    r = run_cli("table2", "--out", str(out))
    assert r.returncode == 0, r.stderr
    lines = out.read_text().splitlines()
    assert lines[0].startswith("family,m,M,k,alpha100")
    families = [line.split(",")[0] for line in lines[1:]]
    assert families == ["maximal", "gold", "hadamard", "random1", "kasami", "random2"]
    assert all(line.rstrip().endswith("ok") for line in lines[1:])


def _break_preset(monkeypatch, name, exc=None, drop=None):
    """Make reports load `name` with a register length gold cannot use,
    or without the key `drop`, or raise `exc` when it loads that preset."""
    from mwclab import reports

    real = reports.load_preset

    def fake(preset_name):
        preset = real(preset_name)
        if preset_name != name:
            return preset
        if exc is not None:
            raise exc
        values = dict(preset.values)
        if drop is None:
            values["n"] = "1"
        else:
            del values[drop]
        return type(preset)(preset.name, values)

    monkeypatch.setattr(reports, "load_preset", fake)


def test_cli_table2_broken_row_exits_nonzero_after_writing(tmp_path, monkeypatch, capsys):
    from mwclab import cli

    _break_preset(monkeypatch, "table2_gold")
    out = tmp_path / "t2.csv"
    assert cli.main(["table2", "--out", str(out)]) == 2
    with open(out, newline="") as fh:
        status = {row["family"]: row["status"] for row in csv.DictReader(fh)}
    assert list(status) == ["maximal", "gold", "hadamard", "random1", "kasami", "random2"]
    assert status.pop("gold").startswith("error: ")
    assert set(status.values()) == {"ok"}
    assert "gold" in capsys.readouterr().err


def test_cli_table2_row_without_k_is_a_usage_error(tmp_path, monkeypatch, capsys):
    _break_preset(monkeypatch, "table2_kasami", drop="k")
    out = tmp_path / "t2.csv"
    assert cli.main(["table2", "--out", str(out)]) == 2
    with open(out, newline="") as fh:
        status = {row["family"]: row["status"] for row in csv.DictReader(fh)}
    # table2 has no --k flag, so the message names the bare key
    assert status.pop("kasami") == "error: k is required (no flag or preset supplies it)"
    assert set(status.values()) == {"ok"}
    assert "internal error" not in capsys.readouterr().err


# every subcommand that reads a preset, with the flags that keep it quick
PRESET_COMMANDS = {
    "gen": (),
    "measures": (),
    "exrip": (),
    "bounds": (),
    "verify": ("--trials", "1000"),
    "recover": ("--trials", "1000"),
    "sweep": (),
    "table1": ("--attempts", "1", "--ceiling", "64"),
}


@pytest.mark.parametrize("preset", list_presets())
@pytest.mark.parametrize("command", PRESET_COMMANDS)
def test_cli_every_preset_pairing_exits_0_or_2(command, preset, tmp_path, capsys):
    argv = [command, "--preset", preset, *PRESET_COMMANDS[command]]
    if command == "recover" and "k_rows" in load_preset(preset).values:
        argv += ["--k-rows", "1", "--r", "1"]  # one active row keeps 1000 trials cheap
    code = cli.main([*argv, "--out", str(tmp_path / "artifact")])
    err = capsys.readouterr().err
    assert code in (0, 2), err
    assert "internal error" not in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["recover", "--preset", "table2_gold"], "--k-rows is required (no preset supplies it)"),
        (["measures", "--family", "gold", "--n", "5"], "--m is required (no preset supplies it)"),
        # neither command has a flag for the key, so none is named
        (["sweep", "--preset", "table1_mwc"], "m_start is required (no flag or preset supplies it)"),
        (["table1", "--preset", "table2_gold"], "M is required (no flag or preset supplies it)"),
    ],
)
def test_cli_missing_preset_key_names_its_flag_if_any(argv, message, capsys):
    assert cli.main(argv) == 2
    assert f"error: {message}" in capsys.readouterr().err


def test_cli_recover_takes_a_pattern(tmp_path):
    pat = tmp_path / "r.pat"
    assert cli.main(["gen", "--preset", "recover_mwc", "--out", str(pat)]) == 0
    base = ["recover", "--preset", "recover_mwc", "--trials", "50"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main([*base, "--out", str(a)]) == 0
    assert cli.main([*base, "--pattern", str(pat), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert json.loads(a.read_bytes())["params"]["family_seed"] == 2


def test_recover_fallbacks_are_recovery_experiments_defaults(monkeypatch):
    # `recover` passes on only the keys it was given, so what it lacks
    # takes recovery_experiment's defaults, the one place they are written
    seen = []

    def spy(*args, **kwargs):
        bound = inspect.signature(recovery_experiment).bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(bound.arguments)
        raise ValueError("stop")

    monkeypatch.setattr(mmv, "recovery_experiment", spy)
    argv = ["recover", "--family", "random", "--M", "15", "--m", "6", "--family-seed", "1"]
    argv += ["--k-rows", "1", "--r", "3"]
    assert cli.main(argv) == 2
    assert cli.main([*argv, "--dist", "real-uniform", "--seed", "4"]) == 2
    got = [(a["r"], a["trials"], a["dist"], a["seed"]) for a in seen]
    assert got == [
        (3, 500, NonzeroDistribution("complex_normal"), 0),
        (3, 500, NonzeroDistribution("real_uniform"), 4),
    ]


def test_reports_read_the_hyphen_law_token():
    # the CLI's spelling of a law works in a preset for every report;
    # both presets say complex_normal
    sweep = load_preset("fig2_sweep")
    table1 = load_preset("table1_mwc")
    small = {"attempts": "1", "ceiling": "256"}
    hyphen = {"dist": "complex-normal"}
    got = (
        fig2_report(Preset(sweep.name, {**sweep.values, **hyphen})),
        table1_report(Preset(table1.name, {**table1.values, **small, **hyphen})),
    )
    assert got == (
        fig2_report(sweep),
        table1_report(Preset(table1.name, {**table1.values, **small})),
    )


def test_reproduce_tables_quick_matches_the_cli(tmp_path, capsys):
    # the script's artifacts are the bytes cli.main writes for the argv
    # it prints beside each
    path = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_tables.py"
    spec = importlib.util.spec_from_file_location("reproduce_tables", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    verify = {f"verify_{p}.json" for p in TABLE2_ROW_ORDER}
    # --quick supplies --trials 10000 only when --trials is not given
    for flags, trials in ((["--quick"], 10_000), (["--quick", "--trials", "1000"], 1000)):
        out = tmp_path / "out" / str(trials)
        assert script.main(["--outdir", str(out), *flags]) == 0
        capsys.readouterr()
        assert {p.name for p in out.iterdir()} == {
            "table2.csv", "sweep.csv", "recover.json", *verify
        }
        gold = json.loads((out / "verify_table2_gold.json").read_text(encoding="utf-8"))
        assert gold["estimate"]["trials"] == trials
        verify_argv = ["verify", "--preset", "table2_gold", "--trials", str(trials)]
        for name, argv in (
            ("recover.json", ["recover", "--preset", "recover_mwc"]),
            ("verify_table2_gold.json", verify_argv),
        ):
            assert cli.main([*argv, "--out", str(tmp_path / name)]) == 0
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), (flags, name)


def test_step_peaks_prints_one_row_per_step(tmp_path):
    # one channel_budget pass: the set-up row, then the table1 step with
    # its exit code, wall time and the high-water RSS so far
    script = Path(__file__).resolve().parents[1] / "scripts" / "step_peaks.py"
    argv = [sys.executable, str(script), "channel_budget", "0", "--outdir", str(tmp_path)]
    r = subprocess.run(argv, capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    header, setup, step = r.stdout.splitlines()
    assert header.split() == ["step", "exit", "wall_s", "maxrss_mb"]
    assert setup.split()[0] == "set-up"
    assert step.split()[:3] == ["table1", "table1.csv", "0"]
    assert float(step.split()[-1]) >= float(setup.split()[-1]) > 0
    assert (tmp_path / "table1.csv").is_file()


def test_cli_table2_unexpected_error_is_not_a_row(tmp_path, monkeypatch):
    from mwclab import cli

    _break_preset(monkeypatch, "table2_maximal", RuntimeError("boom"))
    assert cli.main(["table2", "--out", str(tmp_path / "t2.csv")]) == 1


def test_cli_run_record_on_stderr(tmp_path):
    out = tmp_path / "g.pat"
    r = run_cli("gen", "--family", "random", "--M", "15", "--m", "3", "--seed", "1", "--out", str(out))
    assert r.returncode == 0
    record = json.loads(r.stderr.strip().splitlines()[-1])
    assert record["command"] == "gen"
    assert record["outputs"] == [str(out)]
    assert "wall_time_s" in record

    r = run_cli("sweep", "--seed", "3", "--out", str(tmp_path / "s.csv"))
    assert r.returncode == 0, r.stderr
    record = json.loads(r.stderr.strip().splitlines()[-1])
    assert (record["preset"], record["seed"]) == ("fig2_sweep", 3)


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--family", "random", "--M", "63", "--m", "10", "--family-seed", "1", "--k", "4"),
        ("recover", "--family", "random", "--M", "63", "--m", "16", "--family-seed", "2",
         "--k-rows", "3", "--r", "4", "--trials", "40"),
    ],
)
def test_cli_run_record_states_the_default_seed_that_ran(argv):
    # no preset and no --seed: the report ran at its library default
    r = run_cli(*argv)
    assert r.returncode == 0, r.stderr
    report = json.loads(r.stdout)
    seed = report["estimate"]["seed"] if argv[0] == "verify" else report["seed"]
    record = json.loads(r.stderr.strip().splitlines()[-1])
    assert (record["preset"], record["seed"]) == (None, seed) == (None, 0)


def _parser_state(parser):
    # every parser's defaults and every action's default and choices
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    parsers = [parser, *(p for a in subs for p in a.choices.values())]
    return [
        (p._defaults.copy(), [(a.dest, a.default, a.choices) for a in p._actions if a.dest != "command"])
        for p in parsers
    ]


def test_cli_parser_is_built_once_and_main_leaves_it_alone(tmp_path, capsys):
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    before = repr(_parser_state(parser))
    pat = tmp_path / "g.pat"
    assert cli.main(["gen", "--family", "gold", "--n", "5", "--m", "4", "--out", str(pat)]) == 0
    assert cli.main(["measures", "--pattern", str(pat), "--out", str(tmp_path / "q.json")]) == 0
    assert cli.main(["exrip", "--pattern", str(pat)]) == 2  # no k
    assert cli.build_parser() is parser
    assert repr(_parser_state(parser)) == before


def test_cli_exit_codes():
    assert run_cli("measures").returncode == 2  # no input source
    assert run_cli("gen", "--family", "gold", "--n", "10", "--m", "4").returncode == 2
    assert run_cli("nosuchcommand").returncode == 2  # argparse
    assert run_cli("exrip", "--family", "gold", "--n", "5", "--m", "4").returncode == 2  # no k


def test_cli_bounds_candes_c_at_one_column_is_a_usage_error(capsys):
    argv = ["bounds", "--family", "random", "--M", "1", "--m", "1", "--family-seed", "0"]
    assert cli.main([*argv, "--k", "1", "--candes-c", "1"]) == 2
    assert "error: " in (err := capsys.readouterr().err) and "M=1" in err
    assert "internal error" not in err


@pytest.mark.parametrize("c", ["nan", "inf", "0", "-1"])
def test_cli_bounds_meaningless_candes_c_is_a_usage_error(c, capsys):
    argv = ["bounds", "--family", "gold", "--n", "9", "--m", "80", "--k", "12"]
    assert cli.main([*argv, f"--candes-c={c}"]) == 2
    assert "error: candes_plan_c must be finite and positive" in capsys.readouterr().err


_RANDOM_8X4 = ["--family", "random", "--M", "8", "--m", "4", "--family-seed", "0"]


@pytest.mark.parametrize(
    "argv",
    [
        ["exrip", *_RANDOM_8X4, "--k", "2", "--delta", "1e-200"],
        ["bounds", *_RANDOM_8X4, "--k", "1", "--delta", "1e-200"],
        ["verify", *_RANDOM_8X4, "--k", "1", "--delta", "1e-300", "--trials", "1000"],
    ],
)
def test_cli_delta_whose_square_underflows_is_a_usage_error(argv, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "error: delta must be in (0, 1)" in err and "internal error" not in err


@pytest.mark.parametrize("snr", ["1e308", "-4000"])
def test_cli_recover_snr_outside_float_range_is_a_usage_error(snr, capsys):
    argv = ["recover", *_RANDOM_8X4, "--k-rows", "2", "--r", "1", "--trials", "3"]
    assert cli.main([*argv, f"--snr={snr}"]) == 2
    err = capsys.readouterr().err
    assert "error: snr_db must be finite with a noise level in float range" in err


@pytest.mark.parametrize("ceiling", ["0", "-4"])
def test_cli_table1_ceiling_below_one_is_a_usage_error(ceiling, tmp_path, capsys):
    out = tmp_path / "table1.csv"
    argv = ["table1", "--attempts", "2", "--ceiling", ceiling, "--out", str(out)]
    assert cli.main(argv) == 2
    assert f"error: ceiling must be positive, got {ceiling}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
def test_cli_recover_non_finite_snr_is_a_usage_error(snr, tmp_path, capsys):
    out = tmp_path / "recover.json"
    argv = ["recover", "--preset", "recover_mwc", f"--snr={snr}", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "snr_db must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--preset", "table2_kasami", "--trials", "1000"],
        ["recover", "--preset", "recover_mwc", "--trials", "20"],
    ],
    ids=["verify", "recover"],
)
def test_cli_seed_outside_64_bits_is_a_usage_error(argv, seed, tmp_path, capsys):
    # neither may run another seed's stream and record its own
    out = tmp_path / "report.json"
    assert cli.main([*argv, f"--seed={seed}", "--out", str(out)]) == 2
    assert f"error: seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


RANDOM = ("--family", "random", "--M", "7", "--m", "2")


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--seed"],
        ["gen", *RANDOM, "--seed"],
        ["gen", *RANDOM, "--family-seed"],
        ["measures", *RANDOM, "--family-seed"],
    ],
    ids=["sweep", "gen-seed", "gen-family-seed", "measures"],
)
def test_cli_sign_stream_seed_outside_64_bits_is_a_usage_error(argv, seed, tmp_path, capsys):
    # numpy's own message on a negative seed names neither the flag nor the value
    out = tmp_path / "artifact"
    assert cli.main([*argv[:-1], f"{argv[-1]}={seed}", "--out", str(out)]) == 2
    assert f"error: seed must be in [0, 2**64), got {seed}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [14, 2])
def test_cli_maximal_degree_outside_the_range_is_a_usage_error(n, capsys):
    argv = ["gen", "--family", "maximal", "--n", str(n), "--m", "4"]
    assert cli.main(argv) == 2
    assert f"error: register degree {n} outside 3..13" in capsys.readouterr().err


def test_cli_stdout_when_no_out_flag():
    r = run_cli("gen", "--family", "random", "--M", "7", "--m", "2", "--seed", "3")
    assert r.returncode == 0
    assert r.stdout.splitlines()[0] == "2 7 random 3"
    record = json.loads(r.stderr.strip().splitlines()[-1])
    assert record["outputs"] == ["-"]


GOLD = ("--family", "gold", "--n", "5", "--m", "8")


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", *GOLD),
        ("measures", *GOLD),
        ("exrip", *GOLD, "--k", "3"),
        ("bounds", *GOLD, "--k", "3"),
        ("verify", *GOLD, "--k", "3", "--trials", "1000"),
        ("recover", "--preset", "recover_mwc", "--trials", "20"),
        ("sweep",),
        ("table1", "--attempts", "1", "--ceiling", "64"),
        ("table2",),
    ],
    ids=lambda argv: argv[0],
)
def test_cli_stdout_is_the_out_file(argv, tmp_path, capsys):
    # main hands the writer sys.stdout or the --out path: the same bytes
    out = tmp_path / "artifact"
    assert cli.main([*argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert cli.main(list(argv)) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_only_the_text_file_helper_opens_files():
    # every artifact and pattern file goes through signmatrix._text_file;
    # the preset file is a package resource read by presets._read_config
    allowed = {("signmatrix.py", "_text_file"), ("presets.py", "_read_config")}
    root = Path(__file__).resolve().parents[1]
    hits = []
    sources = [*(root / "src" / "mwclab").glob("*.py"), *(root / "scripts").glob("*.py")]
    for path in sorted(sources):
        source = path.read_text(encoding="utf-8")
        spans = [
            (node.lineno, node.end_lineno, node.name)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for lineno, line in enumerate(source.splitlines(), 1):
            if re.search(r"open\(|write_text|read_text|ExitStack", line):
                # the innermost function holding the line (the last to start)
                owner = max((s for s in spans if s[0] <= lineno <= s[1]), default=(0, 0, None))
                if (path.name, owner[2]) not in allowed:
                    hits.append(f"{path.name}:{lineno}: {line.strip()}")
    assert not hits, "\n".join(hits)


def _artifact(tmp_path, *args):
    out = tmp_path / "artifact"
    r = run_cli(*args, "--out", str(out))
    assert r.returncode == 0, r.stderr
    return out.read_bytes()


# table2_kasami's pattern keys spelled as flags; its k is 12 and its
# delta, seed and trials are the flag defaults
KASAMI = ("--family", "kasami", "--n", "8", "--m", "16")


@pytest.mark.parametrize(
    "with_preset, flags_only",
    [
        (
            ("measures", "--preset", "table2_kasami", "--m", "8"),
            ("measures", "--family", "kasami", "--n", "8", "--m", "8"),
        ),
        (
            ("exrip", "--preset", "table2_kasami", "--k", "5", "--dist", "complex-uniform"),
            ("exrip", *KASAMI, "--k", "5", "--dist", "complex-uniform"),
        ),
        (
            ("verify", "--preset", "table2_kasami", "--trials", "1000", "--seed", "7"),
            ("verify", *KASAMI, "--k", "12", "--trials", "1000", "--seed", "7"),
        ),
        (
            # the parent ignored every pattern flag but --m next to --preset
            ("measures", "--preset", "table2_gold", "--n", "11"),
            ("measures", "--family", "gold", "--n", "11", "--m", "80"),
        ),
        (
            ("gen", "--family", "random", "--M", "31", "--m", "4", "--seed", "9"),
            ("gen", "--family", "random", "--M", "31", "--m", "4", "--family-seed", "9"),
        ),
    ],
)
def test_cli_flags_win_over_preset(tmp_path, with_preset, flags_only):
    got = _artifact(tmp_path, *with_preset)
    assert got == _artifact(tmp_path, *flags_only)
    if with_preset[0] == "exrip":
        assert json.loads(got)["params"]["K"] == 5
    if with_preset[0] == "verify":
        estimate = json.loads(got)["estimate"]
        assert (estimate["trials"], estimate["seed"]) == (1000, 7)
    if with_preset[0] == "measures":
        assert json.loads(got)["M"] == (2047 if "table2_gold" in with_preset else 255)


def test_cli_missing_inputs_keep_their_messages():
    r = run_cli("measures")
    assert r.returncode == 2
    assert "error: need --pattern, --preset or --family" in r.stderr
    r = run_cli("exrip", "--family", "gold", "--n", "5", "--m", "4")
    assert r.returncode == 2
    assert "error: --k is required (no preset supplies it)" in r.stderr
    # a preset without a family is a validation error, not a KeyError
    r = run_cli("measures", "--preset", "table1_mwc")
    assert r.returncode == 2
    assert "error: need --pattern, --preset or --family" in r.stderr
