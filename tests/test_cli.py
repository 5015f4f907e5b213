"""CLI tests: exit codes, report round-trips, scenario files."""

import csv
import json
import pathlib

import numpy as np
import pytest

import bjsystem.cli as cli
import bjsystem.fronttrack as ft
import bjsystem.wavecurves as wc
from bjsystem.errors import ConvergenceError, DomainError
from bjsystem.flux import ModelParams


def run_cli(*argv):
    return cli.main(list(argv))


def test_riemann_identical_states(capsys):
    code = run_cli("riemann", "--ul", "0.1,0,-0.1", "--ur", "0.1,0,-0.1", "--eta", "0")
    out = capsys.readouterr().out
    assert code == 0
    assert "no waves" in out


def test_riemann_composed_input_matches(tmp_path, capsys):
    p0 = ModelParams(0.0)
    Ul = np.array([0.25, 0.0, -0.25])
    Um = wc.wave_fan_curve(2, Ul, -0.2, p0).state
    Ur = wc.wave_fan_curve(1, Um, -0.1, p0).state
    out_path = tmp_path / "fan.json"
    code = run_cli(
        "riemann",
        "--ul", "0.25,0,-0.25",
        "--ur", ",".join(str(c) for c in Ur),
        "--eta", "0",
        "--out", str(out_path),
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["schema_version"] == "1"
    strengths = doc["strengths"]
    assert abs(strengths[0] - (-0.09090909)) <= 1e-7
    assert abs(strengths[1] - (-0.2)) <= 1e-12
    assert abs(strengths[2] - 0.00822511) <= 1e-7
    assert [w["family"] for w in doc["waves"]] == [1, 2, 3]


def test_riemann_rejects_states_outside_ball(capsys):
    code = run_cli("riemann", "--ul", "1.2,0,0", "--ur", "0,0,0", "--eta", "0")
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_riemann_profile_sampling(tmp_path):
    out_path = tmp_path / "profile.csv"
    code = run_cli(
        "riemann",
        "--ul", "0.25,0.1,-0.25",
        "--ur", ",".join(str(c) for c in wc.hugoniot2_closed_form([0.25, 0.1, -0.25], -0.15).state),
        "--eta", "0",
        "--sample", "11",
        "--sample-out", str(out_path),
    )
    assert code == 0
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 11
    # piecewise-constant profile: left state before the shock, right after
    assert abs(float(rows[0]["v"]) - 0.1) <= 1e-12
    assert abs(float(rows[-1]["v"]) - (-0.05)) <= 1e-12


def test_riemann_numeric_failure_exit_code(monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise ConvergenceError("forced failure", residual=1.0)

    monkeypatch.setattr(cli, "solve_riemann", boom)
    monkeypatch.setitem(cli._SUITES, "taylor22", (boom, {}))
    for argv in (["riemann", "--ul", "0.1,0,0", "--ur", "0.2,0,0", "--eta", "0"],
                 ["verify", "taylor22"]):
        assert run_cli(*argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"{argv[0]}: numeric failure: forced failure (residual 1.0)\n"
        assert captured.out == ""


def test_verify_rejects_eta_out_of_range(capsys):
    code = run_cli("verify", "hyperbolicity", "--eta", "0.3")
    assert code == 1
    assert "eta" in capsys.readouterr().err


def test_verify_requires_known_suite(capsys):
    code = run_cli("verify", "--scenario", "/nonexistent")
    assert code == 1


def test_verify_hyperbolicity_report_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "hyp.csv"
    code = run_cli(
        "verify", "hyperbolicity", "--samples", "500", "--seed", "3", "--out", str(out_path)
    )
    assert code == 0
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 1
    assert rows[0]["pass"] == "True"
    assert rows[0]["seed"] == "3"
    assert float(rows[0]["min_gap_12"]) > 0.0


def test_verify_bounds12_rows(tmp_path):
    out_path = tmp_path / "bounds.csv"
    code = run_cli(
        "verify", "bounds12", "--samples", "15", "--seed", "7", "--out", str(out_path)
    )
    assert code == 0
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 15
    assert all(r["pattern"] == "SSS" for r in rows)
    assert all(r["pass"] == "True" for r in rows)
    # records carry the resolved configuration
    assert all(r["eta"] == "0.001" and r["seed"] == "7" for r in rows)


def test_verify_taylor22(capsys):
    code = run_cli("verify", "taylor22")
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_verify_pattern22(tmp_path):
    out_path = tmp_path / "p22.csv"
    code = run_cli(
        "verify", "pattern22", "--samples", "25", "--seed", "1", "--out", str(out_path)
    )
    assert code == 0
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 25 and all(r["pattern"] == "SSS" for r in rows)


def test_verify_json_report(tmp_path):
    out_path = tmp_path / "report.json"
    code = run_cli(
        "verify", "contraction", "--samples", "5", "--out", str(out_path), "--format", "json"
    )
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["schema_version"] == "1"
    assert len(doc["records"]) == 5


def write_fronttrack_scenario(path, jumps, u_left, eta=1e-4, t_end=1e4, max_events=50, **more):
    doc = {
        "schema_version": "1",
        "model": {"eta": eta},
        "fronttrack": {
            "u_left": list(u_left),
            "jumps": [[x, list(state)] for x, state in jumps],
            "t_end": t_end,
            "max_events": max_events,
            **more,
        },
    }
    path.write_text(json.dumps(doc))


def test_fronttrack_scenario_run(tmp_path, capsys):
    params = ModelParams(1e-4)
    U0 = np.array([0.25, 0.004, -0.25])
    Um = wc.wave_fan_curve(2, U0, -2e-3, params).state
    Ur = wc.wave_fan_curve(2, Um, -2.2e-3, params).state
    scenario = tmp_path / "scenario.json"
    write_fronttrack_scenario(scenario, [(-0.1, Um), (0.1, Ur)], U0)
    prefix = tmp_path / "run"
    code = run_cli("fronttrack", "--scenario", str(scenario), "--out", str(prefix))
    assert code == 0
    events = list(csv.DictReader((tmp_path / "run_events.csv").open()))
    assert len(events) == 1
    assert events[0]["classification"] == "22"
    lines = (tmp_path / "run_trajectories.tsv").read_text().strip().splitlines()
    assert lines[0].split("\t") == ["front_id", "family", "t0", "x0", "t1", "x1"]
    assert len(lines) == 1 + 5  # two dead incoming fronts + three outgoing
    rows = list(csv.DictReader((tmp_path / "run_observables.csv").open()))
    assert list(rows[0]) == [
        "time", "n_events", "n_fronts", "tv_u", "tv_v", "tv_w", "max_state_norm",
        "balance_u", "balance_v", "balance_w",
    ]
    assert len(rows) == 1 + len(events)
    assert [int(r["n_events"]) for r in rows] == [0, 1]
    assert [int(r["n_fronts"]) for r in rows] == [2, 3]
    balance = np.array([[float(r[f"balance_{c}"]) for c in "uvw"] for r in rows])
    assert np.max(np.abs(balance - balance[0])) <= 1e-10


def test_fronttrack_constant_data(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    write_fronttrack_scenario(scenario, [], [0.1, 0.0, -0.1])
    code = run_cli("fronttrack", "--scenario", str(scenario))
    assert code == 0
    assert "0 events" in capsys.readouterr().out


def _three_2_shocks():
    """Left state and jumps of three weak 2-shocks that meet in turn at eta = 1e-4."""
    params = ModelParams(1e-4)
    U0 = np.array([0.25, 0.006, -0.25])
    cur = U0
    jumps = []
    for x, s in zip([-0.3, -0.1, 0.1], [-2e-3, -2.4e-3, -2.8e-3]):
        cur = wc.wave_fan_curve(2, cur, s, params).state
        jumps.append((x, cur))
    return U0, jumps


def test_fronttrack_truncation(tmp_path, capsys):
    U0, jumps = _three_2_shocks()
    scenario = tmp_path / "scenario.json"
    write_fronttrack_scenario(scenario, jumps, U0, max_events=2)
    code = run_cli("fronttrack", "--scenario", str(scenario))
    assert code == 0
    assert "truncated" in capsys.readouterr().out


def test_fronttrack_failed_event_leaves_the_partial_log(tmp_path, capsys, monkeypatch):
    U0, jumps = _three_2_shocks()
    scenario = tmp_path / "scenario.json"
    write_fronttrack_scenario(scenario, jumps, U0)
    # three solves at init and one at the first event; the second event fails
    calls = []
    solve = ft._solve_fan

    def failing_solve(*args):
        calls.append(args)
        if len(calls) == 5:
            raise ConvergenceError("synthetic failure", residual=1.0)
        return solve(*args)

    monkeypatch.setattr(ft, "_solve_fan", failing_solve)
    prefix = tmp_path / "run"
    code = run_cli("fronttrack", "--scenario", str(scenario), "--out", str(prefix))
    assert code == 2
    err = capsys.readouterr().err
    assert "event 1 at t=" in err and "synthetic failure" in err
    events = list(csv.DictReader((tmp_path / "run_events.csv").open()))
    assert [e["index"] for e in events] == ["0"]
    rows = list(csv.DictReader((tmp_path / "run_observables.csv").open()))
    assert [int(r["n_events"]) for r in rows] == [0, 1]
    lines = (tmp_path / "run_trajectories.tsv").read_text().strip().splitlines()
    assert len(lines) == 1 + 2 + int(rows[-1]["n_fronts"])  # two dead fronts + the live ones


def _rarefaction_jumps(params):
    """Left state and jumps of one weak 3-wave followed by eleven 2-rarefactions of 5e-3."""
    rng = np.random.default_rng(813)
    layout = [(3, 1e-3)] + [(2, 5e-3)] * 11
    xs = -1.0 + (np.arange(len(layout)) + rng.uniform(0.4, 0.6, len(layout))) * (2.0 / len(layout))
    U0 = cur = np.array([0.2, 0.0, -0.2])
    jumps = []
    for x, (fam, s) in zip(xs, layout):
        cur = wc.wave_fan_curve(fam, cur, s, params).state
        jumps.append((float(x), cur))
    return U0, jumps


def test_fronttrack_stopped_by_the_front_limit_leaves_the_partial_log(
    tmp_path, capsys, monkeypatch
):
    params = ModelParams(1e-3)
    U0, jumps = _rarefaction_jumps(params)
    limit = len(ft.init_from_piecewise(jumps, U0, params, delta=2e-3).fronts) + 5
    monkeypatch.setattr(ft, "MAX_FRONTS", limit)
    scenario = tmp_path / "scenario.json"
    write_fronttrack_scenario(scenario, jumps, U0, eta=1e-3, delta=2e-3)
    prefix = tmp_path / "run"
    assert run_cli("fronttrack", "--scenario", str(scenario), "--out", str(prefix)) == 1
    err = capsys.readouterr().err
    # event 7 (index 6) would emit a 3-shock past the limit
    assert err.startswith("error: event 6 at t=") and err.count("\n") == 1
    assert f"is more than the {limit} fronts" in err
    events = list(csv.DictReader((tmp_path / "run_events.csv").open()))
    assert [e["index"] for e in events] == [str(i) for i in range(6)]
    rows = list(csv.DictReader((tmp_path / "run_observables.csv").open()))
    assert [int(r["n_events"]) for r in rows] == list(range(7))
    assert (tmp_path / "run_trajectories.tsv").exists()


@pytest.mark.parametrize(
    "eta, u_left, jumps, named",
    [
        # each state outside the ball failed inside the solver before any output was written:
        # a Riemann solve that did not converge, and a 2-rarefaction whose step size collapsed
        (0.2, [0.1, 0.0, -0.1], [(0.0, [0.1, 0.1, -0.1]), (0.5, [3.0, 1.9, 2.0])],
         "state of jump 1 (x=0.5) violates |U| < 1: [3.0, 1.9, 2.0]"),
        (0.0, [0.1, 0.0, -0.1], [(0.5, [30, 5, 2])],
         "state of jump 0 (x=0.5) violates |U| < 1: [30.0, 5.0, 2.0]"),
        (0.0, [0.6, 0.6, 0.6], [(0.5, [0.1, 0.0, -0.1])],
         "u_left violates |U| < 1: [0.6, 0.6, 0.6]"),
    ],
)
def test_fronttrack_refuses_a_state_outside_the_ball(tmp_path, capsys, eta, u_left, jumps, named):
    scenario = tmp_path / "scenario.json"
    write_fronttrack_scenario(scenario, jumps, u_left, eta=eta)
    assert run_cli("fronttrack", "--scenario", str(scenario), "--out", str(tmp_path / "run")) == 1
    captured = capsys.readouterr()
    assert _one_error_line(captured)
    assert captured.err == f"error: {named}\n"
    assert list(tmp_path.glob("run*")) == []


def test_verify_help_shows_the_samples_each_suite_runs_with(capsys, monkeypatch):
    with pytest.raises(SystemExit):
        run_cli("verify", "--help")
    text = " ".join(capsys.readouterr().out.split())
    assert "--eta ETA default: 0.0; bounds12 0.001, contraction 0.001 --a" in text
    assert "--radius RADIUS default: 0.9; gnl 0.89 --out" in text
    samples = "default: 1000; hyperbolicity 10000, gnl 2000, contraction 200"
    assert f"--samples SAMPLES {samples} --seed" in text
    # the value the help shows for each suite that samples is the one its runner gets
    shown = {"hyperbolicity": 10000, "gnl": 2000, "pattern22": 1000, "bounds12": 1000,
             "contraction": 200}
    received = {}
    for suite in shown:

        def recording(cfg, params, suite=suite):
            received[suite] = cfg.samples
            return [{"pass": True}]

        monkeypatch.setitem(cli._SUITES, suite, (recording, cli._SUITES[suite][1]))
        assert run_cli("verify", suite) == 0
    assert received == shown


def test_scenario_rejects_unknown_keys(tmp_path, capsys):
    scenario = tmp_path / "bad.json"
    scenario.write_text(json.dumps({"schema_version": "1", "bogus": {}}))
    code = run_cli("fronttrack", "--scenario", str(scenario))
    assert code == 1
    assert "unknown scenario keys" in capsys.readouterr().err


def test_scenario_rejects_unknown_section_keys(tmp_path, capsys):
    scenario = tmp_path / "bad.json"
    scenario.write_text(
        json.dumps({"schema_version": "1", "model": {"eta": 0.0, "zeta": 1.0}})
    )
    code = run_cli("verify", "hyperbolicity", "--scenario", str(scenario))
    assert code == 1
    assert "zeta" in capsys.readouterr().err


def test_verify_ball_suites_reject_zero_samples(capsys):
    for suite in ("hyperbolicity", "gnl", "bounds12", "pattern22", "contraction"):
        for samples in ("0", "-3"):
            code = run_cli("verify", suite, "--samples", samples)
            assert code == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error: n_samples must be >= 1")
            assert "PASS" not in captured.out


def test_verify_hugoniot_checks_the_requested_eta(tmp_path, monkeypatch, capsys):
    out_path = tmp_path / "hugoniot.csv"
    assert run_cli("verify", "hugoniot", "--eta", "0.2", "--out", str(out_path)) == 0
    rows = list(csv.DictReader(out_path.open()))
    assert len(rows) == 425 and all(r["eta"] == "0.2" and r["pass"] == "True" for r in rows)
    capsys.readouterr()

    seen = []

    def bad_point(fam, base, s, params):
        seen.append((fam, params.eta))
        return wc.CurvePoint(state=base, speed=0.0, residual=1e-9)

    monkeypatch.setattr(wc, "hugoniot", bad_point)
    assert run_cli("verify", "hugoniot", "--eta", "0.2") == 1
    assert "FAIL" in capsys.readouterr().out
    assert set(seen) == {(2, 0.2)}


def test_verify_gnl_takes_the_requested_radius(capsys):
    for argv, radius in ((["--radius", "0.95"], 0.95), ([], 0.89)):
        assert run_cli("verify", "gnl", "--eta", "0.1", "--samples", "50", "--format", "json",
                       *argv) == 0
        doc, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
        (record,) = doc["records"]
        assert record["radius"] == radius


def test_verify_verdict_comes_from_the_records(monkeypatch, capsys):
    def failing_suite(cfg, params):
        return [{"scenario_id": 0, "pass": False}]

    monkeypatch.setitem(cli._SUITES, "taylor22", (failing_suite, {}))
    assert run_cli("verify", "taylor22") == 1
    assert capsys.readouterr().out.splitlines()[-1] == (
        "verify taylor22: 1 records, 1 failures -> FAIL"
    )


# key: (its flag's value on the command line or None without a flag, what
# that resolves to, a scenario file value)
SETTING_CASES = {
    "eta": ("0.125", 0.125, 0.0625),
    "ul": ("0.1,0,0", [0.1, 0.0, 0.0], [0.2, 0.0, 0.0]),
    "ur": ("0.1,0,0", [0.1, 0.0, 0.0], [0.2, 0.0, 0.0]),
    "sample": ("3", 3, 5),
    "xi_min": ("-1.5", -1.5, -2.5),
    "xi_max": ("1.5", 1.5, 2.5),
    "which": ("gnl", "gnl", "hugoniot"),
    "a": ("0.125", 0.125, 0.375),
    "eps": ("0.005", 0.005, 0.02),
    "samples": ("3", 3, 5),
    "seed": ("3", 3, 5),
    "radius": ("0.5", 0.5, 0.75),
    "u_left": (None, None, [0.2, 0.0, 0.0]),
    "jumps": (None, None, [[0.5, [0.2, 0.0, 0.0]]]),
    "delta": ("0.01", 0.01, 0.02),
    "t_end": ("2", 2.0, 3.0),
    "max_events": ("3", 3, 5),
}


@pytest.mark.parametrize(
    "section, key", [(section, key) for section, keys in cli._SETTINGS.items() for key in keys]
)
def test_setting_flag_beats_file_beats_default(section, key):
    flag, from_flag, from_file = SETTING_CASES[key]
    command = "riemann" if section == "model" else section
    base = [command, "--scenario", "unused.json"]
    spec = cli._SETTINGS[section][key]

    def resolve(argv, scenario):
        args = cli.build_parser().parse_args(base + argv)
        return cli._setting(args, scenario, section, key, spec)

    scenario = {section: {key: from_file}}
    if flag is not None:
        argv = [flag] if key == "which" else ["--" + key.replace("_", "-"), flag]
        np.testing.assert_equal(resolve(argv, scenario), from_flag)
    np.testing.assert_equal(resolve([], scenario), from_file)
    if callable(spec):
        with pytest.raises(DomainError, match=f"needs '{key}'"):
            resolve([], {})
    else:
        assert resolve([], {}) == spec


def _subparsers():
    """Each command's parser, by command name."""
    (commands,) = [a.choices for a in cli.build_parser()._actions if a.choices is not None]
    return commands


def _value_flags():
    """(command, flag) for every flag of every command that takes a value."""
    return [
        (command, flag)
        for command, parser in _subparsers().items()
        for action in parser._actions
        if action.nargs is None
        for flag in action.option_strings
    ]


# each command's flags that take a value; -h and --help take none
VALUE_FLAGS = {
    "riemann": {"--scenario", "--eta", "--ul", "--ur", "--sample", "--xi-min", "--xi-max",
                "--out", "--sample-out", "--format"},
    "verify": {"--scenario", "--eta", "--a", "--eps", "--samples", "--seed", "--radius",
               "--out", "--format"},
    "fronttrack": {"--scenario", "--eta", "--delta", "--t-end", "--max-events", "--out"},
}


@pytest.mark.parametrize("command", VALUE_FLAGS)
def test_each_command_has_exactly_its_flags(command):
    parser = _subparsers()[command]
    nargs = {flag: a.nargs for a in parser._actions for flag in a.option_strings}
    assert nargs == {"-h": 0, "--help": 0, **dict.fromkeys(VALUE_FLAGS[command])}
    positionals = [(a.dest, a.nargs) for a in parser._actions if not a.option_strings]
    assert positionals == ([("which", "?")] if command == "verify" else [])
    if command == "fronttrack":
        assert not {"--u-left", "--jumps", "--format"} & set(nargs)


@pytest.mark.parametrize("command", VALUE_FLAGS)
def test_help_shows_each_setting_flag_with_its_default(capsys, command):
    with pytest.raises(SystemExit) as info:
        run_cli(command, "--help")
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    settings = {**cli._SETTINGS["model"], **cli._SETTINGS[command]}
    for key, spec in settings.items():
        if key in ("which", "u_left", "jumps"):
            continue
        flag = "--" + key.replace("_", "-")
        shown = spec.__doc__.splitlines()[0] if callable(spec) else f"default: {spec}"
        assert f"{flag} {key.upper()} {shown}" in text
    if command == "riemann":
        assert "--xi-min XI_MIN default: -6.0" in text


@pytest.mark.parametrize("command, flag", _value_flags())
def test_an_abbreviated_flag_is_refused(tmp_path, capsys, command, flag):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"fronttrack": _TRACK}))
    argv = [a.format(out=tmp_path / "run", scenario=scenario) for a in _COMMAND_LINES[command]]
    assert run_cli(*argv, flag[:-1], "1") == 1
    captured = capsys.readouterr()
    assert _one_error_line(captured)
    assert captured.err.startswith("error: unrecognized arguments: ")
    assert list(tmp_path.glob("run*")) == []


@pytest.mark.parametrize("command, flag", _value_flags())
def test_a_value_flag_takes_the_next_token_even_when_it_starts_with_a_minus(command, flag):
    def parsed(*argv):
        try:
            return vars(cli.build_parser().parse_args([command, *argv]))
        except DomainError as exc:
            return str(exc)

    spaced = parsed(flag, "-inf")
    assert spaced == parsed(f"{flag}=-inf")
    if flag == "--format":
        assert spaced.startswith("argument --format: invalid choice: '-inf'")
    else:
        assert spaced[flag[2:].replace("-", "_")] == "-inf"
    # a flag of the command after a value flag, -h included, is not taken as its value
    for after in ("-h", flag):
        assert parsed(flag, after) == f"argument {flag}: expected one argument"
    assert parsed(flag) == f"argument {flag}: expected one argument"


@pytest.mark.parametrize(
    "argv, section, key",
    [
        (["riemann", "--ur", "0,0,0"], None, "ul"),
        (["riemann", "--ul", "0,0,0"], None, "ur"),
        (["verify"], None, "which"),
        (["fronttrack"], {"jumps": []}, "u_left"),
        (["fronttrack"], {"u_left": [0.1, 0.0, 0.0]}, "jumps"),
        (["fronttrack"], None, "u_left"),
    ],
)
def test_missing_required_setting_exits_1_naming_it(tmp_path, capsys, argv, section, key):
    if section is not None:
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({argv[0]: section}))
        argv = argv + ["--scenario", str(scenario)]
    assert run_cli(*argv) == 1
    assert capsys.readouterr().err == f"error: {argv[0]} needs '{key}'\n"


_TRACK = {"u_left": [0.1, 0.0, -0.1], "jumps": [[0.0, [0.1, 0.1, -0.1]]]}


@pytest.mark.parametrize(
    "command, doc, named",
    [
        ("fronttrack", {"schema_version": "7", "fronttrack": _TRACK}, "schema_version"),
        ("fronttrack", {"fronttrack": {**_TRACK, "jumps": 5}}, "'jumps'"),
        ("fronttrack", {"fronttrack": {**_TRACK, "jumps": [[0.5]]}}, "'jumps'"),
        ("fronttrack", {"fronttrack": {**_TRACK, "jumps": [[[0.5], [0, 0, 0]]]}}, "'jumps'"),
        ("fronttrack", {"fronttrack": {**_TRACK, "u_left": {"u": 0.1}}}, "'u_left'"),
        ("fronttrack", {"model": {"eta": [0.1]}, "fronttrack": _TRACK}, "'eta'"),
        ("fronttrack", {"model": None, "fronttrack": _TRACK}, "'model'"),
        ("fronttrack", {"fronttrack": {**_TRACK, "t_end": [1]}}, "'t_end'"),
        ("fronttrack", {"fronttrack": {**_TRACK, "max_events": 1e999}}, "'max_events'"),
        ("fronttrack", {"fronttrack": {**_TRACK, "delta": 0}}, "delta"),
        ("riemann", {"riemann": {"ul": [0, 0, 0], "ur": {"u": 0.1}}}, "'ur'"),
        ("verify", {"verify": {"which": "taylor22", "a": 0}}, "parameter a"),
        ("riemann", {"riemann": {"ul": [True, 0, 0], "ur": [0, 0, 0]}}, "'ul'"),
        ("fronttrack", {"fronttrack": {**_TRACK, "jumps": [[True, [0, 0, 0]]]}}, "'jumps'"),
        ("fronttrack", {"fronttrack": {**_TRACK, "delta": 1e-12}}, "delta = 1e-12"),
    ],
)
def test_malformed_scenario_exits_1_naming_the_key(tmp_path, capsys, command, doc, named):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    assert run_cli(command, "--scenario", str(scenario)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def _one_error_line(captured):
    return (
        captured.out == "" and captured.err.startswith("error: ")
        and captured.err.count("\n") == 1 and "Traceback" not in captured.err
    )


_COMMAND_LINES = {
    "riemann": ["riemann", "--ul", "0.1,0,0", "--ur", "0.2,0,0", "--sample", "3",
                "--out", "{out}.json", "--sample-out", "{out}.csv"],
    "verify": ["verify", "gnl", "--samples", "5", "--out", "{out}.csv"],
    "fronttrack": ["fronttrack", "--scenario", "{scenario}", "--out", "{out}"],
}


@pytest.mark.parametrize(
    "command, flag, value, section",
    [
        ("riemann", "--eta", "x", "model"),
        ("riemann", "--sample", "2.5", "riemann"),
        ("riemann", "--xi-min", "x", "riemann"),
        ("riemann", "--xi-max", "1,2", "riemann"),
        ("verify", "--a", "x", "verify"),
        ("verify", "--eps", "x", "verify"),
        ("verify", "--samples", "1.5", "verify"),
        ("verify", "--seed", "x", "verify"),
        ("verify", "--radius", "x", "verify"),
        ("fronttrack", "--delta", "x", "fronttrack"),
        ("fronttrack", "--t-end", "x", "fronttrack"),
        ("fronttrack", "--max-events", "2.5", "fronttrack"),
    ],
)
def test_malformed_flag_exits_1_naming_the_setting(tmp_path, capsys, command, flag, value, section):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"fronttrack": _TRACK}))
    argv = [a.format(out=tmp_path / "run", scenario=scenario) for a in _COMMAND_LINES[command]]
    assert run_cli(*argv, flag, value) == 1
    captured = capsys.readouterr()
    key = flag[2:].replace("-", "_")
    assert _one_error_line(captured)
    assert captured.err.startswith(f"error: bad {section} setting '{key}': ")
    assert list(tmp_path.glob("run*")) == []


@pytest.mark.parametrize(
    "argv",
    [["verify", "--bogus"], [], ["verify", "taylor22", "--format", "xml"], ["verify", "nosuch"]],
    ids=["unknown-flag", "no-command", "bad-choice", "unknown-suite"],
)
def test_usage_error_exits_1_with_one_error_line(capsys, argv):
    assert run_cli(*argv) == 1
    assert _one_error_line(capsys.readouterr())


def test_unwritable_report_exits_1_with_one_error_line(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    assert run_cli("verify", "hyperbolicity", "--samples", "10", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert _one_error_line(captured) and str(out) in captured.err


@pytest.mark.parametrize(
    "out, sample_out, named",
    [
        ("missing/fan.json", "p.csv", "missing/fan.json"),
        ("fan.json", "missing/p.csv", "missing/p.csv"),
        (".", "p.csv", "."),
    ],
    ids=["out-dir-missing", "sample-out-dir-missing", "out-is-a-directory"],
)
def test_riemann_bad_output_path_exits_1_before_any_output(
    tmp_path, capsys, monkeypatch, out, sample_out, named
):
    solves = []
    monkeypatch.setattr(cli, "solve_riemann", lambda *args: solves.append(args))
    argv = ["riemann", "--ul", "0.1,0,0", "--ur", "0.2,0,0", "--sample", "3"]
    paths = ["--out", str(tmp_path / out), "--sample-out", str(tmp_path / sample_out)]
    assert run_cli(*argv, *paths) == 1
    captured = capsys.readouterr()
    assert _one_error_line(captured) and f"'{tmp_path / named}'" in captured.err
    assert solves == [] and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "flag, value", [("--xi-min", "nan"), ("--xi-max", "inf"), ("--xi-min", "-inf")]
)
def test_riemann_non_finite_xi_bound_exits_1_before_any_output(
    tmp_path, capsys, monkeypatch, flag, value
):
    solves = []
    monkeypatch.setattr(cli, "solve_riemann", lambda *args: solves.append(args))
    fan_path = tmp_path / "fan.json"
    argv = ["riemann", "--ul", "0.1,0,0", "--ur", "0.2,0,0", "--sample", "3", flag, value]
    assert run_cli(*argv, "--out", str(fan_path)) == 1
    captured = capsys.readouterr()
    assert _one_error_line(captured)
    assert captured.err == f"error: {flag[2:].replace('-', '_')} must be finite, got {value}\n"
    assert solves == [] and list(tmp_path.iterdir()) == []


def test_fronttrack_bad_out_prefix_exits_1_before_the_run(tmp_path, capsys, monkeypatch):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"fronttrack": _TRACK}))
    runs = []
    monkeypatch.setattr(ft, "run", lambda *args, **kwargs: runs.append(args))
    prefix = tmp_path / "missing" / "run"
    assert run_cli("fronttrack", "--scenario", str(scenario), "--out", str(prefix)) == 1
    captured = capsys.readouterr()
    assert _one_error_line(captured) and f"{prefix}_events.csv" in captured.err
    assert runs == [] and sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


@pytest.mark.parametrize(
    "argv, work",
    [
        (["verify", "bounds12", "--samples", "300", "--out", ""], (cli.ia, "verify_bounds_12")),
        (["riemann", "--ul", "0.1,0,0", "--ur", "0.2,0,0", "--out", ""], (cli, "solve_riemann")),
        (["riemann", "--ul", "0.1,0,0", "--ur", "0.2,0,0", "--sample", "3", "--sample-out", ""],
         (cli, "solve_riemann")),
        (["fronttrack", "--scenario", "scenario.json", "--out", ""], (ft, "run")),
    ],
    ids=["verify", "riemann-out", "riemann-sample-out", "fronttrack"],
)
def test_empty_output_path_exits_1_before_any_work(tmp_path, capsys, monkeypatch, argv, work):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "scenario.json").write_text(json.dumps({"fronttrack": _TRACK}))
    calls = []
    monkeypatch.setattr(*work, lambda *args, **kwargs: calls.append(args))
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert _one_error_line(captured) and "empty output path" in captured.err
    assert calls == [] and sorted(p.name for p in tmp_path.iterdir()) == ["scenario.json"]


@pytest.mark.parametrize(
    "suite", ["hyperbolicity", "gnl", "bounds12", "pattern22", "contraction"]
)
def test_verify_negative_seed_exits_1(capsys, suite):
    assert run_cli("verify", suite, "--seed", "-1", "--samples", "5") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be >= 0, got -1\n" and "PASS" not in captured.out


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("verify", {"verify": {"which": "hyperbolicity", "seed": 1.5}},
         "error: bad verify setting 'seed': expected an integer, got 1.5\n"),
        ("riemann", {"riemann": {"ul": [0.1, 0, 0], "ur": [0.2, 0, 0], "sample": True}},
         "error: bad riemann setting 'sample': expected a number, got True\n"),
    ],
)
def test_integer_setting_is_not_truncated(tmp_path, capsys, command, doc, message):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(doc))
    assert run_cli(command, "--scenario", str(scenario)) == 1
    assert capsys.readouterr().err == message


def test_integral_float_setting_is_accepted(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"verify": {"which": "hyperbolicity", "seed": 2.0, "samples": 5.0}}))
    assert run_cli("verify", "--scenario", str(scenario), "--format", "json") == 0
    doc, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
    (record,) = doc["records"]
    assert (record["seed"], record["n_samples"]) == (2, 5)


@pytest.mark.parametrize(
    "text, err",
    [
        ("20.0", ""),
        ("2e1", ""),
        ("1.5", "error: bad verify setting 'samples': expected an integer, got 1.5\n"),
        ("abc", "error: bad verify setting 'samples': expected an integer, got 'abc'\n"),
    ],
    ids=["20.0", "2e1", "1.5", "abc"],
)
def test_integer_flag_converts_like_the_file_value(tmp_path, capsys, text, err):
    # the file holds the number the text spells, or the string where it spells none
    value = text if text != "abc" else json.dumps(text)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(f'{{"verify": {{"which": "hyperbolicity", "samples": {value}}}}}')
    outcomes = []
    for argv in (["--samples", text], ["--scenario", str(scenario)]):
        code = run_cli("verify", "hyperbolicity", *argv, "--format", "json")
        outcomes.append((code, capsys.readouterr()))
    (code, captured), (file_code, file_captured) = outcomes
    assert (code, captured.out, captured.err) == (file_code, file_captured.out, file_captured.err)
    assert captured.err == err and code == (1 if err else 0)
    if not err:
        doc, _ = json.JSONDecoder().raw_decode(captured.out)
        assert doc["records"][0]["n_samples"] == 20


def test_riemann_sample_flag_zero_overrides_the_scenario(tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    doc = {"riemann": {"ul": [0.1, 0, 0], "ur": [0.2, 0, 0], "sample": 4}}
    scenario.write_text(json.dumps(doc))
    assert run_cli("riemann", "--scenario", str(scenario)) == 0
    assert "xi,u,v,w" in capsys.readouterr().out
    assert run_cli("riemann", "--scenario", str(scenario), "--sample", "0") == 0
    assert "xi,u,v,w" not in capsys.readouterr().out


def test_readme_scenario_example_runs(tmp_path, capsys):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
    scenario = tmp_path / "scenario.json"
    scenario.write_text(readme.split("```json\n", 1)[1].split("```", 1)[0])
    assert run_cli("fronttrack", "--scenario", str(scenario), "--max-events", "5") == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("fronttrack: 5 events")


def test_negative_counts_exit_1_before_any_output(tmp_path, capsys):
    fan_path = tmp_path / "fan.json"
    argv = ["riemann", "--ul", "0.1,0,0", "--ur", "0.1,0.1,0", "--out", str(fan_path)]
    assert run_cli(*argv, "--sample", "-3") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: sample must be >= 0, got -3\n" and captured.out == ""
    assert not fan_path.exists()

    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"fronttrack": _TRACK}))
    argv = ["fronttrack", "--scenario", str(scenario), "--out", str(tmp_path / "run")]
    assert run_cli(*argv, "--max-events", "-5") == 1
    captured = capsys.readouterr()
    assert captured.err == "error: max_events must be >= 0, got -5\n" and captured.out == ""
    assert list(tmp_path.glob("run_*")) == []
    assert run_cli(*argv, "--max-events", "0") == 0
    assert capsys.readouterr().out.startswith("fronttrack: 0 events")


@pytest.mark.parametrize(
    "jumps, argv, named",
    [
        ([[float("nan"), [0.1, 0.1, -0.1]]], [], "got [nan]"),
        ([[0.0, [0.1, 0.1, -0.1]], [float("inf"), [0.2, 0.1, -0.1]]], [], "got [0.0, inf]"),
        (_TRACK["jumps"], ["--t-end", "nan"], "t_end must be finite, got nan"),
        (_TRACK["jumps"], ["--t-end", "inf"], "t_end must be finite, got inf"),
    ],
)
def test_fronttrack_non_finite_input_exits_1_writing_nothing(tmp_path, capsys, jumps, argv, named):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"fronttrack": {**_TRACK, "jumps": jumps}}))  # NaN literal
    out = ["--out", str(tmp_path / "run")]
    assert run_cli("fronttrack", "--scenario", str(scenario), *out, *argv) == 1
    captured = capsys.readouterr()
    assert _one_error_line(captured) and named in captured.err
    assert list(tmp_path.glob("run_*")) == []


@pytest.mark.parametrize(
    "suite, argv, named",
    [
        ("hugoniot", ["--samples", "5"], "--samples"),
        ("hugoniot", ["--seed", "3"], "--seed"),
        ("hugoniot", ["--radius", "0.5", "--a", "0.3"], "--a, --radius"),
        ("taylor22", ["--samples", "5"], "--samples"),
        ("taylor22", ["--seed", "3", "--eps", "0.02"], "--eps, --seed"),
        ("taylor22", ["--radius", "0.5"], "--radius"),
        ("pattern22", ["--eta", "0.1"], "--eta"),
        ("bounds12", ["--radius", "0.5"], "--radius"),
        ("contraction", ["--a", "0.3"], "--a"),
        ("hyperbolicity", ["--eps", "0.02"], "--eps"),
    ],
)
def test_verify_refuses_a_flag_its_suite_does_not_read(tmp_path, capsys, suite, argv, named):
    out = tmp_path / "report.csv"
    assert run_cli("verify", suite, *argv, "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert _one_error_line(captured)
    assert captured.err == f"error: verify {suite} does not read {named}\n"
    assert not out.exists()


def test_verify_reads_an_unread_setting_from_a_file_without_complaint(tmp_path, capsys):
    # a scenario file may serve several suites: only a flag is refused
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({"verify": {"which": "taylor22", "samples": 5, "seed": 3}}))
    assert run_cli("verify", "--scenario", str(scenario)) == 0
    assert "PASS" in capsys.readouterr().out


class _Reading:
    """Hands out `values` by attribute and notes each name read."""

    def __init__(self, values, seen):
        self._values, self._seen = values, seen

    def __getattr__(self, key):
        self._seen.add(key)
        return self._values[key]


@pytest.mark.parametrize("suite", cli.VERIFY_SUITES)
def test_each_suite_entry_names_exactly_the_settings_its_runner_reads(suite):
    run, reads = cli._SUITES[suite]
    table = {**cli._SETTINGS["model"], **cli._SETTINGS["verify"], **reads}
    seen = set()
    cfg = _Reading({**table, "samples": min(table["samples"], 3)}, seen)
    records = run(cfg, _Reading({"eta": table["eta"]}, seen))
    assert records and all(r["pass"] for r in records)
    assert seen == set(reads)


@pytest.mark.parametrize(
    "suite, argv, columns",
    [
        ("hugoniot", [], {"eta"}),
        ("taylor22", ["--a", "0.25"], {"eta"}),
        ("pattern22", ["--samples", "3", "--seed", "2"], {"seed"}),
        ("hyperbolicity", ["--samples", "3", "--seed", "2"], {"eta", "seed"}),
        ("contraction", ["--samples", "3", "--seed", "2"], {"eta", "seed"}),
    ],
)
def test_verify_records_carry_only_the_eta_and_seed_their_suite_reads(tmp_path, suite, argv,
                                                                       columns):
    out = tmp_path / "report.json"
    assert run_cli("verify", suite, *argv, "--out", str(out), "--format", "json") == 0
    for record in json.loads(out.read_text())["records"]:
        assert {"eta", "seed"} & set(record) == columns
        assert record.get("seed", 2) == 2


def test_riemann_fan_json_ends_with_the_solver_iterations(tmp_path):
    params = ModelParams(0.05)
    Ul = np.array([0.25, 0.0, -0.25])
    Ur = Ul
    for fam, s in ((1, -0.02), (2, 0.1), (3, -0.03)):
        Ur = wc.wave_fan_curve(fam, Ur, s, params).state
    out = tmp_path / "fan.json"
    argv = ["--ul", ",".join(map(repr, Ul.tolist())), "--ur", ",".join(map(repr, Ur.tolist()))]
    assert run_cli("riemann", *argv, "--eta", "0.05", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert list(doc)[-1] == "iterations"
    assert doc["iterations"] == cli.solve_riemann(Ul, Ur, params).iterations > 1
