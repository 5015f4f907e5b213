"""Command-line front end: Riemann solves, verification suites, front tracking.

Exit codes: 0 all checks passed, 1 check failure or bad input (one `error:`
line: a usage error, a malformed flag or file, an unwritable output), 2
numeric breakdown.  Output paths are checked before any work, so a bad one
exits 1 with nothing printed or written.  Scenario files are JSON with the
sections and keys of `_SETTINGS` and an optional schema_version "1".  A
setting is its flag, else the file's value, else its default; a flag's
string converts exactly like the file's value, and a missing required value,
or one that does not convert to its default's type, exits 1 naming the key.
Reports are CSV (header row; TSV on request), trajectories TSV, single-fan
dumps JSON.
"""

import argparse
import csv
import errno
import json
import os
import sys

import numpy as np

from .errors import ConvergenceError, DomainError, HyperbolicityError, TrackerEventError
from . import interactions as ia
from . import fronttrack as ft
from . import wavecurves as wc
from .flux import (
    ModelParams,
    check_genuine_nonlinearity,
    check_in_ball,
    check_strict_hyperbolicity,
)
from .riemann import evaluate_fan, solve_riemann

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NUMERIC = 2


def _parse_state(value):
    """A 'u,v,w' string (commas or spaces) or a list of three numbers."""
    parts = value.replace(",", " ").split() if isinstance(value, str) else value
    if len(parts) != 3:
        raise DomainError(f"expected three components, got {value!r}")
    return np.array([_coerce(p, float) for p in parts])


def _parse_jumps(value):
    """[x, [u, v, w]] pairs, each giving the state to the right of x."""
    if not (isinstance(value, list) and all(isinstance(j, list) and len(j) == 2 for j in value)):
        raise DomainError(f"expected a list of [x, [u, v, w]] pairs, got {value!r}")
    return [(_coerce(x, float), _parse_state(state)) for x, state in value]


# Each scenario section's keys with their defaults.  A required key has no
# default: its parser stands in its place.  The flags carry the same names.
_SETTINGS = {
    "model": {"eta": 0.0},
    "riemann": {
        "ul": _parse_state, "ur": _parse_state, "sample": 0, "xi_min": -6.0, "xi_max": 6.0,
    },
    "verify": {
        "which": str, "a": 0.25, "eps": ia.DEFAULT_EPS_22, "samples": 1000, "seed": 0,
        "radius": 0.9,
    },
    "fronttrack": {
        "u_left": _parse_state, "jumps": _parse_jumps, "delta": ft.DELTA_DEFAULT, "t_end": 1.0,
        "max_events": ft.MAX_EVENTS,
    },
}


def load_scenario(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DomainError(f"cannot read scenario file {path!r}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DomainError("scenario file must hold a JSON object")
    unknown = set(doc) - {"schema_version", *_SETTINGS}
    if unknown:
        raise DomainError(f"unknown scenario keys: {sorted(unknown)}")
    version = doc.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise DomainError(f"schema_version must be {SCHEMA_VERSION!r}, got {version!r}")
    for section, keys in _SETTINGS.items():
        sub = doc.get(section, {})
        if not isinstance(sub, dict):
            raise DomainError(f"scenario section {section!r} must be an object")
        bad = set(sub) - set(keys)
        if bad:
            raise DomainError(f"unknown keys in scenario section {section!r}: {sorted(bad)}")
    return doc


def _setting(args, scenario, section, key, spec):
    """The flag `key` if given, else the scenario's value, else the default `spec`.

    The value is coerced to the default's type, which takes no bool for a
    number and no fractional number for an integer.  A required key passes
    its parser as `spec`: it has no default, and the parser reads the value.
    """
    value = getattr(args, key, None)
    if value is None:
        value = scenario.get(section, {}).get(key)
    if value is None:
        if callable(spec):
            raise DomainError(f"{args.command} needs {key!r}")
        return spec
    try:
        return spec(value) if callable(spec) else _coerce(value, type(spec))
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"bad {section} setting {key!r}: {exc}") from None


def _coerce(value, kind):
    """`value` (a number or a flag's string) as a `kind`, refusing a bool or a truncation.

    A string read as an integer is read by `int` if it can be, so a large
    integer stays exact, and else as a float that must be integral, as a
    file's number.
    """
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    if kind is int and isinstance(value, str):
        try:
            return int(value)
        except ValueError:
            pass
        try:
            value = float(value)
        except ValueError:
            raise ValueError(f"expected an integer, got {value!r}") from None
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise ValueError(f"expected an integer, got {value!r}")
    return kind(value)


def _settings(args, scenario, section, **defaults):
    """Every setting of the model section and of `section`; `defaults` replace the table's."""
    return argparse.Namespace(**{
        key: _setting(args, scenario, sec, key, defaults.get(key, spec))
        for sec in ("model", section)
        for key, spec in _SETTINGS[sec].items()
    })


def _check_out_paths(*paths):
    """Raise OSError unless every output path names a file in an existing directory.

    Called before any work, so that a bad path exits 1 with nothing printed
    or written.  None and "-" stand for stdout; an empty path is refused.
    """
    for path in paths:
        if path in (None, "-"):
            continue
        if not path:
            raise FileNotFoundError(errno.ENOENT, "empty output path", path)
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        if not os.path.isdir(os.path.dirname(path) or "."):
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def write_records(records, fieldnames, path, fmt):
    """Emit flat report records as CSV, TSV or a JSON document."""
    stream, close = _open_out(path)
    try:
        if fmt == "json":
            json.dump({"schema_version": SCHEMA_VERSION, "records": records}, stream, indent=2)
            stream.write("\n")
        else:
            delimiter = "\t" if fmt == "tsv" else ","
            writer = csv.DictWriter(stream, fieldnames=fieldnames, delimiter=delimiter)
            writer.writeheader()
            for rec in records:
                writer.writerow(rec)
    finally:
        if close:
            stream.close()


def _fmt_num(x):
    return f"{x:.12g}"


# ---------------------------------------------------------------------------
# riemann command


def _speed(w, num=float):
    """A wave's speed: one number, or a rarefaction's [first, last] pair."""
    return [num(s) for s in w.speed] if isinstance(w.speed, tuple) else num(w.speed)


def fan_document(fan):
    return {
        "schema_version": SCHEMA_VERSION,
        "eta": fan.params.eta,
        "left_state": fan.left_state.tolist(),
        "right_state": fan.right_state.tolist(),
        "strengths": list(fan.strengths),
        "residual": fan.residual,
        "warnings": list(fan.warnings),
        "waves": [
            {
                "family": w.family,
                "kind": w.kind,
                "strength": w.strength,
                "speed": _speed(w),
                "left": w.left.tolist(),
                "right": w.right.tolist(),
            }
            for w in fan.waves
        ],
        "iterations": fan.iterations,
    }


def cmd_riemann(args, scenario):
    cfg = _settings(args, scenario, "riemann")
    check_in_ball("left state", cfg.ul)
    check_in_ball("right state", cfg.ur)
    if cfg.sample < 0:
        raise DomainError(f"sample must be >= 0, got {cfg.sample}")
    for name, xi in (("xi_min", cfg.xi_min), ("xi_max", cfg.xi_max)):
        if not np.isfinite(xi):
            raise DomainError(f"{name} must be finite, got {xi}")
    _check_out_paths(args.out, args.sample_out if cfg.sample else None)
    params = ModelParams(cfg.eta)
    fan = solve_riemann(cfg.ul, cfg.ur, params)

    if not fan.waves:
        print("no waves (states coincide)")
    else:
        print(f"{'family':>6} {'kind':<12} {'strength':>22} speed / states")
        for w in fan.waves:
            speed = _speed(w, _fmt_num)
            speed = speed if isinstance(speed, str) else f"[{', '.join(speed)}]"
            print(f"{w.family:>6} {w.kind:<12} {_fmt_num(w.strength):>22} {speed}")
            print(f"       left:  {' '.join(_fmt_num(c) for c in w.left)}")
            print(f"       right: {' '.join(_fmt_num(c) for c in w.right)}")
    print(
        f"strengths: ({', '.join(_fmt_num(s) for s in fan.strengths)})  "
        f"residual: {fan.residual:.3e}"
    )

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(fan_document(fan), fh, indent=2)
            fh.write("\n")

    if cfg.sample:
        rows = [
            {
                "xi": _fmt_num(xi),
                "u": _fmt_num(state[0]),
                "v": _fmt_num(state[1]),
                "w": _fmt_num(state[2]),
            }
            for xi in np.linspace(cfg.xi_min, cfg.xi_max, cfg.sample)
            for state in [evaluate_fan(fan, float(xi))]
        ]
        write_records(rows, ["xi", "u", "v", "w"], args.sample_out, args.format)
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify command


def _verify_hyperbolicity(cfg, params):
    report = check_strict_hyperbolicity(
        params, radius=cfg.radius, n_samples=cfg.samples, seed=cfg.seed
    )
    return [{
        "radius": report.radius,
        "n_samples": report.n_samples,
        "min_gap_12": report.min_gap_12,
        "min_gap_23": report.min_gap_23,
        "lambda1_min": report.lambda1_range[0],
        "lambda3_max": report.lambda3_range[1],
        "pass": report.passed,
    }]


def _verify_gnl(cfg, params):
    report = check_genuine_nonlinearity(
        params, radius=cfg.radius, n_samples=cfg.samples, seed=cfg.seed
    )
    return [{
        "radius": report.radius,
        "n_samples": report.n_samples,
        "family1_min": report.family1[0],
        "family1_max": report.family1[1],
        "family2_min": report.family2[0],
        "family2_max": report.family2[1],
        "family3_min": report.family3[0],
        "family3_max": report.family3[1],
        "degenerate_families": ";".join(str(f) for f in report.degenerate_families),
        "pass": report.passed,
    }]


def _verify_hugoniot(cfg, params):
    """2-Hugoniot points at the model's eta against the Rankine-Hugoniot residual."""
    corners = [(-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5),
               (-0.5, 0.0), (0.5, 0.0), (0.0, -0.5), (0.0, 0.5)]
    records = []
    for vbar in np.arange(-0.4, 0.4001, 0.05):
        for s in np.arange(-0.25, -0.0099, 0.01):
            worst = 0.0
            for ub, wb in corners:
                base = np.array([ub, vbar, wb])
                point = wc.hugoniot(2, base, float(s), params)
                worst = max(worst, point.residual)
            records.append({
                "vbar": round(float(vbar), 10),
                "s": round(float(s), 10),
                "max_rh_residual": worst,
                "pass": worst <= 1e-12,
            })
    return records


def _verify_taylor22(cfg, params):
    fit = ia.taylor_fit_22(a=cfg.a, eta=params.eta)
    rel_s = abs(fit.c_sigma - fit.c_sigma_target) / abs(fit.c_sigma_target)
    rel_t = abs(fit.c_tau - fit.c_tau_target) / abs(fit.c_tau_target)
    g_rel = float(np.max(np.abs(fit.g_cubic - ia.G_CUBIC_TARGET) / np.abs(ia.G_CUBIC_TARGET)))
    return [{
        "a": fit.a,
        "c_sigma": fit.c_sigma,
        "c_sigma_target": fit.c_sigma_target,
        "c_sigma_rel_err": rel_s,
        "c_tau": fit.c_tau,
        "c_tau_target": fit.c_tau_target,
        "c_tau_rel_err": rel_t,
        "g_max_rel_err": g_rel,
        "axis_max_abs": fit.axis_max_abs,
        "pass": rel_s <= 0.02 and rel_t <= 0.02 and g_rel <= 0.02,
    }]


def _verify_pattern22(cfg, params):
    """Outgoing-sign certification for sampled 2-2 collisions."""
    records = []
    for sc in ia.sample_scenarios_22(cfg.samples, a=cfg.a, eps=cfg.eps, seed=cfg.seed):
        rep = ia.interact_22(sc)
        records.append({
            "a": sc.a,
            "eps": sc.eps,
            "scenario_eta": sc.eta,
            "s1": sc.s1,
            "s2": sc.s2,
            "sigma": rep.outgoing[0],
            "tau": rep.outgoing[2],
            "pattern": rep.pattern,
            "pass": rep.pattern == "SSS",
        })
    return records


def _verify_bounds12(cfg, params):
    records = []
    for row in ia.verify_bounds_12(cfg.samples, eta=params.eta, seed=cfg.seed):
        rec = {
            "ul_u": row.scenario.Ul[0],
            "ul_v": row.scenario.Ul[1],
            "ul_w": row.scenario.Ul[2],
            "s": row.scenario.s,
            "sigma": row.scenario.sigma,
            "sigma_prime": row.report.outgoing[0],
            "tau_prime": row.report.outgoing[2],
            "pattern": row.report.pattern,
            "oracle_agreement": row.oracle_agreement,
            "contraction_ratio": row.contraction.contraction_ratio,
        }
        for check in row.report.bound_checks:
            rec[f"{check.name}_pass"] = check.passed
        rec["pass"] = row.passed
        records.append(rec)
    return records


def _verify_contraction(cfg, params):
    records = []
    for sc in ia.sample_scenarios_12(cfg.samples, eta=params.eta, seed=cfg.seed):
        result = ia.contraction_solve_12(sc)
        records.append({
            "s": sc.s,
            "sigma": sc.sigma,
            "sigma_prime": result.x[0],
            "tau_prime": result.x[1],
            "iterations": result.iterations,
            "contraction_ratio": result.contraction_ratio,
            "empirical_k": result.empirical_k,
            "pass": result.contraction_ratio <= ia.CONTRACTION_RATIO_MAX,
        })
    return records


def _reads(*keys, **own):
    """The settings a suite reads, each with its default: `own`, else the table's."""
    table = {**_SETTINGS["model"], **_SETTINGS["verify"]}
    return {key: own.get(key, table[key]) for key in (*keys, *own)}


# each suite's runner and the settings it reads, with the defaults it runs with
# (`verify --help` lists those that differ from the table's); a runner returns its
# records unnumbered, and a record passes when its "pass" is true.  A flag for a
# setting the suite does not read is refused.
_SUITES = {
    "hyperbolicity": (_verify_hyperbolicity, _reads("eta", "seed", "radius", samples=10000)),
    "gnl": (_verify_gnl, _reads("eta", "seed", samples=2000, radius=0.89)),
    "hugoniot": (_verify_hugoniot, _reads("eta")),
    "taylor22": (_verify_taylor22, _reads("eta", "a")),
    "pattern22": (_verify_pattern22, _reads("a", "eps", "samples", "seed")),
    "bounds12": (_verify_bounds12, _reads("samples", "seed", eta=ia.DEFAULT_ETA_12)),
    "contraction": (_verify_contraction, _reads("seed", eta=ia.DEFAULT_ETA_12, samples=200)),
}
VERIFY_SUITES = tuple(_SUITES)


def cmd_verify(args, scenario):
    which = _setting(args, scenario, "verify", "which", str)
    if which not in _SUITES:
        raise DomainError(f"verify suite must be one of {VERIFY_SUITES}, got {which!r}")
    run, reads = _SUITES[which]
    cfg = _settings(args, scenario, "verify", **reads)
    keys = (*_SETTINGS["model"], *_SETTINGS["verify"])
    unread = [f"--{key.replace('_', '-')}" for key in keys
              if key != "which" and key not in reads and getattr(args, key) is not None]
    if unread:
        raise DomainError(f"verify {which} does not read {', '.join(unread)}")
    _check_out_paths(args.out)
    params = ModelParams(cfg.eta)
    # every record is numbered and carries the eta and seed it ran with, if its suite reads them
    config = {key: getattr(cfg, key) for key in ("eta", "seed") if key in reads}
    records = [{"scenario_id": i, **rec, **config} for i, rec in enumerate(run(cfg, params))]
    write_records(records, list(records[0]), args.out, args.format)
    n_fail = sum(1 for r in records if not r["pass"])
    print(
        f"verify {which}: {len(records)} records, {n_fail} failures -> "
        f"{'FAIL' if n_fail else 'PASS'}"
    )
    return EXIT_CHECK_FAILED if n_fail else EXIT_OK


# ---------------------------------------------------------------------------
# fronttrack command


def cmd_fronttrack(args, scenario):
    cfg = _settings(args, scenario, "fronttrack")
    _check_out_paths(*_out_files(args.out))
    params = ModelParams(cfg.eta)
    st = ft.init_from_piecewise(cfg.jumps, cfg.u_left, params, delta=cfg.delta)
    try:
        st, series = ft.run(st, cfg.t_end, max_events=cfg.max_events)
    except TrackerEventError as exc:
        # leave the partial log: everything up to the last completed event
        _write_tracker_outputs(args, st, exc.series)
        raise

    _write_tracker_outputs(args, st, series)
    last = series[-1]
    print(
        f"fronttrack: {len(st.event_log)} events, {last.n_fronts} fronts at t={st.time:g}"
        + (" (truncated)" if st.truncated else "")
    )
    return EXIT_OK


def _out_files(prefix):
    """The events, trajectories and observables files of `prefix`; all None (stdout) without.

    An empty prefix gives empty paths, which `_check_out_paths` refuses.
    """
    names = ("events.csv", "trajectories.tsv", "observables.csv")
    return [prefix and f"{prefix}_{name}" for name in names]


def _write_tracker_outputs(args, st, series):
    """Events and trajectories (to --out files or stdout) and, with --out, the observables."""
    events, trajectories, observables = _out_files(args.out)
    event_rows = [
        {
            "index": ev.index,
            "time": ev.time,
            "position": ev.position,
            "classification": ev.classification,
            "incoming": ";".join(f"{fam}:{_fmt_num(s)}" for fam, s in ev.incoming),
            "outgoing": ";".join(
                f"{fam}:{_fmt_num(s)}:{kind}" for fam, s, kind, _ in ev.outgoing
            ),
        }
        for ev in st.event_log
    ]
    fields = ["index", "time", "position", "classification", "incoming", "outgoing"]
    write_records(event_rows, fields, events, "csv")

    trajectory_lines = ["front_id\tfamily\tt0\tx0\tt1\tx1"]
    for f in st.dead_fronts + st.fronts:
        t1 = f.death_t if f.death_t is not None else st.time
        times_and_places = map(_fmt_num, (f.birth_t, f.birth_x, t1, f.position(t1)))
        trajectory_lines.append("\t".join([str(f.uid), str(f.family), *times_and_places]))
    if trajectories:
        with open(trajectories, "w", encoding="utf-8") as fh:
            fh.write("\n".join(trajectory_lines) + "\n")
    else:
        print("\n".join(trajectory_lines))

    if observables:
        fields = [
            "time", "n_events", "n_fronts", "tv_u", "tv_v", "tv_w", "max_state_norm",
            "balance_u", "balance_v", "balance_w",
        ]
        observable_rows = [
            dict(zip(fields, (
                rec.time, rec.n_events, rec.n_fronts, *map(float, rec.total_variation),
                rec.max_state_norm, *map(float, rec.balance),
            )))
            for rec in series
        ]
        write_records(observable_rows, fields, observables, "csv")


# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise DomainError, and the token after a value flag is its value.

    argparse takes a token that starts with `-` for a flag, so `--ul -0.1,0,0`
    or `--xi-min -inf` would leave the flag without its value.  Each parser
    joins every flag of its own that takes a value to the next token, as
    `--ul=-0.1,0,0`, before argparse reads them.  A next token that is one of
    the parser's flags, such as -h, is not joined, and neither is a value
    flag with nothing after it: argparse reports those as before.
    """

    def error(self, message):
        raise DomainError(message)

    def parse_known_args(self, args=None, namespace=None):
        flags = self._option_string_actions
        joined = []
        for token in sys.argv[1:] if args is None else args:
            action = flags.get(joined[-1]) if joined else None
            if action is not None and action.nargs is None and token not in flags:
                joined[-1] = f"{joined[-1]}={token}"
            else:
                joined.append(token)
        return super().parse_known_args(joined, namespace)


_FORMAT = {"choices": ("csv", "json", "tsv"), "default": "csv", "help": "report format"}

# each command's help, its handler and its flags that are not settings; the
# settings of the model section and of the command's own section are flags too
_COMMANDS = {
    "riemann": ("solve one Riemann problem and print the wave table", cmd_riemann, {
        "--out": {"help": "write the fan as JSON to this path"},
        "--sample-out": {"help": "write profile samples here"},
        "--format": _FORMAT,
    }),
    "verify": ("run a certification suite", cmd_verify, {
        "--out": {"help": "report path (default stdout)"},
        "--format": _FORMAT,
    }),
    "fronttrack": ("run the front tracker on a scenario file", cmd_fronttrack, {
        "--out": {"help": "output prefix for _events.csv, _trajectories.tsv and _observables.csv"},
    }),
}
# settings that only a scenario file gives
_FILE_ONLY = ("u_left", "jumps")


def build_parser():
    """Flags only name the settings: `_setting` converts and checks their strings.

    A setting flag's help is its default, followed on `verify` by the suites
    that set their own, or for a required key the first line of its parser's
    docstring; abbreviated flags are refused.
    """
    parser = _Parser(
        prog="bjsystem",
        description="Riemann solves, interaction certification and front tracking "
        "for the Baiti-Jenssen 3x3 system.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (about, _, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=about, allow_abbrev=False)
        p.add_argument("--scenario", help="JSON scenario file")
        for key, spec in {**_SETTINGS["model"], **_SETTINGS[command]}.items():
            if key == "which":
                p.add_argument(key, nargs="?", help=f"the suite: {', '.join(VERIFY_SUITES)} "
                               "(a suite may set its own defaults, as the flags show, and "
                               "refuses a flag for a setting it does not read)")
            elif key not in _FILE_ONLY:
                doc = spec.__doc__.splitlines()[0] if callable(spec) else f"default: {spec}"
                own = [f"{name} {d[key]}" for name, (_, d) in _SUITES.items()
                       if d.get(key, spec) != spec]
                if command == "verify" and own:
                    doc += f"; {', '.join(own)}"
                p.add_argument("--" + key.replace("_", "-"), help=doc)
        for flag, options in flags.items():
            p.add_argument(flag, **options)
    return parser


def main(argv=None) -> int:
    """Run one command; every error it raises becomes one stderr line and an exit code.

    Bad input exits 1, and so does an event that the tracker refused as bad
    input (past the front limit); a numeric failure exits 2.
    """
    try:
        args = build_parser().parse_args(argv)
        scenario = load_scenario(args.scenario) if args.scenario else {}
        return _COMMANDS[args.command][1](args, scenario)
    except (ValueError, OSError, ConvergenceError, HyperbolicityError, TrackerEventError) as exc:
        if isinstance(exc, (ValueError, OSError)) or isinstance(exc.__cause__, DomainError):
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CHECK_FAILED
        residual = getattr(exc, "residual", None)
        suffix = "" if residual is None else f" (residual {residual})"
        print(f"{args.command}: numeric failure: {exc}{suffix}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
