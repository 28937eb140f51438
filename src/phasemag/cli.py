"""Command-line interface with deterministic file output.

Commands: ``signal``, ``sweep``, ``estimate``, ``decohere``, ``calibrate``.
Interface units are MHz for drive frequencies (ordinary, i.e. Omega/2pi),
microseconds for times and millitesla for fields; everything is converted
to internal angular-frequency units at this boundary.

Usage: ``phasemag COMMAND [--config FILE] [--key value | --key=value ...]``.
Every key of a command is listed in ``_COMMAND_KEYS`` with the converter
that reads its text, and an option spells the key with dashes for
underscores (``--t-us`` for ``t_us``).  A long option may be shortened to
any prefix that names one option only, a repeated option keeps its last
value, and a value that starts with '-' is taken as one when it reads as a
negative number (``--p -0.5``); any other needs ``--key=value``.
``-h``/``--help`` lists the commands, or after a command its keys, and
``--version`` prints the version; both exit 0.

Configuration comes from an optional flat key-value file (``key = value``
per line, ``#`` comments) selected with ``--config``; its texts go through
the same converters, and command-line options override file values.  An
unknown, ambiguous or valueless option, a value its converter rejects, and
an unknown config key are configuration errors: exit 2 with one
``config error: ...`` line on stderr and no file written.  Every output
file embeds a comment block with the fully resolved configuration and the
tool version, and all numbers are printed with 9 significant digits, so
identical config plus seed yields byte-identical output.

Exit codes: 0 ok, 2 configuration error, 3 computation error, 4 partial
sweep failure (file still written), 5 unresolvable estimate.
"""

from __future__ import annotations

import math
import re
import sys
from typing import Optional

import numpy as np

from . import __version__, analytic, harness, noise as noise_mod
from .analytic import DynamicModel, GeometricModel, HyperfineModel
from .constants import (TWO_PI, angular_from_mhz, check_adiabaticity,
                        check_count, check_gamma, check_positive)
from .errors import InvalidParameter, PhasemagError, Unresolvable
from .estimate import (Measurement, estimate_dynamic, estimate_geometric,
                       geometric_candidates)
from .harness import SweepSpec, fmt
from .noise import Lorentzian

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COMPUTE = 3
EXIT_PARTIAL = 4
EXIT_UNRESOLVABLE = 5

SIGNAL_HEADER = "B_mT,P,engine,protocol,omega_MHz,N,T_us"


class ConfigError(Exception):
    pass


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected boolean, got {text!r}")


def _parse_float_list(text: str):
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated numbers, got {text!r}") from exc


def _parse_int_list(text: str):
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ConfigError(f"expected comma-separated integers, got {text!r}") from exc


def read_config_file(path: str) -> dict:
    """Flat ``key = value`` file; '#' starts a comment; keys must be known."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = val
    return values


# per-command key registry: name -> (converter, default)
_COMMON_KEYS = {
    "seed": (int, 0),
    "workers": (int, 1),
    "out": (str, "-"),
}

_NOISE_KEYS = {
    "t2star_us": (float, None),
    "t2_us": (float, None),
    "delta_rad_s": (float, None),
    "tau_c_us": (float, None),
}

_COMMAND_KEYS = {
    "signal": {
        **_COMMON_KEYS, **_NOISE_KEYS,
        "protocol": (str, None),
        "engine": (str, "analytic"),
        "omega_mhz": (float, None),
        "n": (int, None),
        "t_us": (float, None),
        "b_start_mt": (float, 0.0),
        "b_stop_mt": (float, None),
        "b_points": (int, None),
        "hyperfine": (_parse_bool, False),
        "ensemble": (int, 200),
        "gamma_ghz_per_t": (float, 28.0),
        "hyperfine_mhz": (float, 2.16),
    },
    "sweep": {
        **_COMMON_KEYS, **_NOISE_KEYS,
        "protocol": (str, None),
        "engine": (str, "analytic"),
        "omega_mhz_list": (_parse_float_list, None),
        "n_list": (_parse_int_list, None),
        "t_us_list": (_parse_float_list, None),
        "b_start_mt": (float, 0.0),
        "b_stop_mt": (float, None),
        "b_points": (int, None),
        "sigma_p": (float, 1.0),
        "overhead_us": (float, 0.0),
        "ensemble": (int, 200),
        "fit": (_parse_bool, True),
        "gamma_ghz_per_t": (float, 28.0),
    },
    "estimate": {
        **_COMMON_KEYS,
        "protocol": (str, None),
        "p": (float, None),
        "slope_per_mt": (float, None),
        "sigma": (float, 0.0),
        "omega_mhz": (float, None),
        "n": (int, None),
        "t_us": (float, None),
        "window_start_mt": (float, 0.0),
        "window_stop_mt": (float, None),
        "gamma_ghz_per_t": (float, 28.0),
    },
    "decohere": {
        **_COMMON_KEYS, **_NOISE_KEYS,
        "a_list": (_parse_float_list, None),
        "engine": (str, "eq3"),
        "ensemble": (int, 100),
        "overlay_a": (float, None),
        "overlay_t_us": (float, None),
        "gamma_ghz_per_t": (float, 28.0),
    },
    "calibrate": {
        **_COMMON_KEYS,
        "t2star_us": (float, None),
        "t2_us": (float, None),
    },
}

# most fields a curve may hold: 166 times the 601 of the example curve
_MAX_FIELDS = 100_000

_DEFAULT_A_LIST = [0.01, 0.0215, 0.0464, 0.1, 0.147, 0.215,
                   0.316, 0.464, 0.681, 1.0, 1.47, 2.0]


def _convert(registry: dict, key: str, text: str, where: str):
    conv, _ = registry[key]
    try:
        return conv(text)
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def _resolve(command: str, config_path: Optional[str], overrides: dict) -> dict:
    """Defaults, then the config file's values, then ``overrides``."""
    registry = _COMMAND_KEYS[command]
    resolved = {k: default for k, (_, default) in registry.items()}
    if config_path:
        for key, text in read_config_file(config_path).items():
            if key not in registry:
                raise ConfigError(f"unknown config key {key!r} for command {command!r}")
            resolved[key] = _convert(registry, key, text, f"config key {key!r}")
    resolved.update(overrides)
    try:
        check_count("workers", resolved["workers"])
    except InvalidParameter as exc:
        raise ConfigError(str(exc)) from exc
    if resolved["seed"] < 0:
        raise ConfigError(f"seed must be >= 0, got {resolved['seed']}")
    return resolved


def _require(cfg: dict, *keys):
    for k in keys:
        if cfg.get(k) is None:
            raise ConfigError(f"missing required key {k!r}")


def _gamma(cfg: dict) -> float:
    """``gamma_ghz_per_t`` in rad/s per tesla: the one gamma check of every
    command that has the key, a ConfigError unless positive and finite."""
    try:
        return check_gamma(TWO_PI * cfg["gamma_ghz_per_t"] * 1e9)
    except InvalidParameter as exc:
        raise ConfigError(str(exc)) from exc


def _noise_model(cfg: dict) -> Optional[Lorentzian]:
    if cfg.get("delta_rad_s") is not None or cfg.get("tau_c_us") is not None:
        _require(cfg, "delta_rad_s", "tau_c_us")
        return Lorentzian(delta=cfg["delta_rad_s"], tau_c=cfg["tau_c_us"] * 1e-6)
    if cfg.get("t2star_us") is not None or cfg.get("t2_us") is not None:
        _require(cfg, "t2star_us", "t2_us")
        return noise_mod.calibrate_noise(cfg["t2star_us"] * 1e-6, cfg["t2_us"] * 1e-6)
    return None


def _header_lines(command: str, cfg: dict) -> list[str]:
    lines = [f"# phasemag {__version__}", f"# command = {command}"]
    for key in sorted(cfg):
        val = cfg[key]
        if val is None:
            continue
        if isinstance(val, bool):
            text = "true" if val else "false"
        elif isinstance(val, float):
            text = fmt(val)
        elif isinstance(val, list):
            text = ",".join(fmt(v) if isinstance(v, float) else str(v) for v in val)
        else:
            text = str(val)
        lines.append(f"# {key} = {text}")
    return lines


def _field_grid(cfg: dict, min_points: int, what: str = "") -> np.ndarray:
    """The ``b_points`` fields from ``b_start_mt`` to ``b_stop_mt``, in tesla.

    ConfigError for fewer than ``min_points`` points (``what`` ends that
    message) or more than ``_MAX_FIELDS``, before numpy allocates, and for
    a window numpy could not span without a warning.
    """
    if cfg["b_points"] < min_points:
        raise ConfigError(f"b_points must be >= {min_points}{what}")
    if cfg["b_points"] > _MAX_FIELDS:
        raise ConfigError(f"b_points must be <= {_MAX_FIELDS}")
    start, stop = cfg["b_start_mt"], cfg["b_stop_mt"]
    if not math.isfinite(stop - start):
        raise ConfigError("fields must be finite")
    return np.linspace(start, stop, cfg["b_points"]) * 1e-3


def _table(template: str, *columns) -> str:
    """``template % row`` and a newline for every row of ``columns``, in one
    pass; ``%.9g`` writes ``fmt``'s digits, and a literal '%' is spelled '%%'."""
    values = np.array(columns, dtype=float).T.ravel().tolist()
    return ((template + "\n") * len(columns[0])) % tuple(values)


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_signal(cfg: dict) -> int:
    _require(cfg, "protocol", "b_stop_mt", "b_points")
    protocol = cfg["protocol"]
    engine = cfg["engine"]
    b_grid = _field_grid(cfg, 1)
    if protocol == "berry":
        _require(cfg, "omega_mhz", "n", "t_us")
    else:
        _require(cfg, "t_us")
    S = _noise_model(cfg)
    duration = cfg["t_us"] * 1e-6
    omega = angular_from_mhz(cfg["omega_mhz"]) if protocol == "berry" else None
    gamma = _gamma(cfg)
    try:
        h = HyperfineModel.triplet(angular_from_mhz(cfg["hyperfine_mhz"]))
        fields = b_grid
        if cfg["hyperfine"]:
            # a hyperfine line at detuning d is the curve at the fields
            # b + d/gamma, so the request check sees every line's fields, and
            # refuses one that overflows
            with np.errstate(over="ignore"):
                fields = np.concatenate([b_grid + d / gamma for d in h.detunings])
        harness.check_curve_request(protocol, engine, S, cfg["ensemble"],
                                    cfg["workers"], [duration], fields,
                                    [omega] if omega is not None else (), gamma)
    except InvalidParameter as exc:
        raise ConfigError(str(exc)) from exc

    def curve(b):
        return harness.signal_curve(protocol, engine, duration, b, omega,
                                    cfg["n"], S, cfg["ensemble"], (cfg["seed"],),
                                    gamma)

    p = (analytic.hyperfine_average(lambda d, b: curve(b + d / gamma), h, b_grid)
         if cfg["hyperfine"] else curve(b_grid))

    omega_txt = fmt(cfg["omega_mhz"]) if protocol == "berry" else ""
    n_txt = str(cfg["n"]) if protocol == "berry" else ""
    fixed = ",".join([engine, protocol, omega_txt, n_txt, fmt(duration * 1e6)])
    _write_text(cfg["out"], "\n".join(_header_lines("signal", cfg) + [SIGNAL_HEADER, ""])
                + _table("%.9g,%.9g," + fixed.replace("%", "%%"), b_grid * 1e3, p))
    return EXIT_OK


def cmd_sweep(cfg: dict) -> int:
    _require(cfg, "protocol", "t_us_list", "b_stop_mt", "b_points")
    b_grid = list(_field_grid(cfg, 2, " for sweeps"))
    S = _noise_model(cfg)
    times = [t * 1e-6 for t in cfg["t_us_list"]]
    omegas = ([angular_from_mhz(f) for f in cfg["omega_mhz_list"]]
              if cfg.get("omega_mhz_list") else None)
    try:
        spec = SweepSpec(protocol=cfg["protocol"], times=times, b_grid=b_grid,
                         omegas=omegas, n_rotations=cfg.get("n_list"),
                         engine=cfg["engine"], noise=S, seed=cfg["seed"],
                         ensemble=cfg["ensemble"], sigma_p=cfg["sigma_p"],
                         overhead=cfg["overhead_us"] * 1e-6,
                         gamma=_gamma(cfg), workers=cfg["workers"])
    except PhasemagError as exc:
        raise ConfigError(str(exc)) from exc

    result = harness.run_sweep(spec)
    fits = []
    if cfg["fit"]:
        controls = []
        if len(set(times)) >= 3:
            controls.append("duration")
        if spec.protocol == "berry":
            if omegas and len(set(omegas)) >= 3:
                controls.append("omega")
            if cfg.get("n_list") and len(set(cfg["n_list"])) >= 3:
                controls.append("n_rotations")
        if controls:
            for response in ("eta", "b_max"):
                try:
                    fits.append(harness.fit_power_law(result, response, controls))
                except PhasemagError:
                    pass
    text = "\n".join(_header_lines("sweep", cfg)) + "\n" + harness.to_jsonl(result, fits)
    _write_text(cfg["out"], text)
    return EXIT_OK if result.ok else EXIT_PARTIAL


def cmd_estimate(cfg: dict) -> int:
    _require(cfg, "protocol", "p")
    gamma = _gamma(cfg)
    out = []
    code = EXIT_OK
    if cfg["protocol"] == "berry":
        _require(cfg, "omega_mhz", "n", "slope_per_mt")
        model = GeometricModel(angular_from_mhz(cfg["omega_mhz"]), cfg["n"],
                               gamma)
        meas = Measurement(p=cfg["p"], slope=cfg["slope_per_mt"] * 1e3,
                           sigma=cfg["sigma"])
        cands = geometric_candidates(model, max(-1.0, min(1.0, cfg["p"])))
        out.append("candidates_mT = " + _table(
            "%.9g", [b * 1e3 for b, _ in cands])[:-1].replace("\n", ","))
        try:
            est = estimate_geometric(model, meas)
        except Unresolvable as exc:
            out.append(f"unresolvable: {exc}")
            code = EXIT_UNRESOLVABLE
        else:
            out.append(f"B_hat_mT = {fmt(est.b_hat * 1e3)}")
            out.append(f"lobe_index = {est.lobe_index}")
            out.append(f"candidates_considered = {est.candidates_considered}")
            out.append(f"confidence = {fmt(est.confidence)}")
    elif cfg["protocol"] == "ramsey":
        _require(cfg, "t_us", "window_stop_mt")
        model = DynamicModel(cfg["t_us"] * 1e-6, gamma)
        meas = Measurement(p=cfg["p"], slope=(None if cfg.get("slope_per_mt") is None
                                              else cfg["slope_per_mt"] * 1e3),
                           sigma=cfg["sigma"])
        ests = estimate_dynamic(model, meas,
                                (cfg["window_start_mt"] * 1e-3,
                                 cfg["window_stop_mt"] * 1e-3))
        out.append((f"candidates_considered = {len(ests)}\n" + _table(
            "candidate_mT = %.9g fringe = %d confidence = %.9g",
            [e.b_hat * 1e3 for e in ests], [e.lobe_index for e in ests],
            [e.confidence for e in ests]))[:-1])
    else:
        raise ConfigError(f"estimation supports ramsey or berry, got {cfg['protocol']!r}")
    _write_text(cfg["out"], "\n".join(_header_lines("estimate", cfg) + out) + "\n")
    if cfg["out"] != "-":
        print("\n".join(out))
    return code


def cmd_decohere(cfg: dict) -> int:
    gamma = _gamma(cfg)
    S = _noise_model(cfg)
    if S is None:
        raise ConfigError("decohere needs t2star_us/t2_us or delta_rad_s/tau_c_us")
    if cfg["out"] == "-":
        raise ConfigError("decohere writes multiple files; --out is required")
    a_list = cfg.get("a_list")
    if a_list is None:
        a_list = list(_DEFAULT_A_LIST)
    elif not a_list:
        raise ConfigError("a_list must name at least one adiabaticity")
    overlay_a = cfg.get("overlay_a")
    overlay_a = a_list[0] if overlay_a is None else overlay_a
    t_over = cfg.get("overlay_t_us")
    if t_over is None:
        t_over = cfg["t2star_us"] / 2.0 if cfg.get("t2star_us") else 25.0
    try:
        check_adiabaticity(overlay_a)
        t_over = check_positive("overlay_t_us", t_over) * 1e-6
    except InvalidParameter as exc:
        raise ConfigError(str(exc)) from exc
    # the overlay is cheap and rejects its own bad numbers, so it goes first
    w0 = TWO_PI / t_over
    if not 1e2 * w0 < math.inf:
        raise ConfigError(f"overlay_t_us is too short: the overlay grid "
                          f"would reach {1e2 * w0:g} rad/s")
    omega_grid = np.geomspace(1e-3 * w0, 1e2 * w0, 200)
    ov = noise_mod.spectral_overlay(S, overlay_a, t_over, omega_grid)
    try:
        rows = harness.decoherence_regime_scan(a_list, S, engine=cfg["engine"],
                                               ensemble=cfg["ensemble"],
                                               seed=cfg["seed"],
                                               gamma=gamma)
    except InvalidParameter as exc:
        raise ConfigError(str(exc)) from exc

    header = "\n".join(_header_lines("decohere", cfg)) + "\n"
    # (T, W) curves per A, as the eq3 scan kept them: an A with none writes no
    # rows (its regimes row says why); with none at all the first error exits 3
    curves = {r.a_value: r.curve for r in rows}
    if cfg["engine"] != "eq3":
        for a in curves:
            try:
                curves[a] = harness._eq3_decay_curve(S, a)
            except PhasemagError:
                pass
    kept = [(a, curves[a]) for a in map(float, a_list) if curves[a] is not None]
    if not kept:
        raise InvalidParameter(rows[0].error)
    a_col, t_col, w_col = np.concatenate(
        [[np.full(len(c.times), a), c.times, c.values] for a, c in kept], axis=1)
    _write_text(cfg["out"] + "_coherence.csv", header + "A,T_us,W\n"
                + _table("%.9g,%.9g,%.9g", a_col, t_col * 1e6, w_col))
    # why each error row failed, in "#" lines that table readers skip
    errors = "".join(f"# error A={fmt(r.a_value)}: {r.error}\n"
                     for r in rows if r.status == "error")
    _write_text(cfg["out"] + "_regimes.csv", header + errors
                + "A,T2g_us,residual,regime,status\n"
                + "".join(f"{fmt(r.a_value)},{fmt(None if r.t2g is None else r.t2g * 1e6)},"
                          f"{fmt(r.residual)},{r.regime},{r.status}\n" for r in rows))
    _write_text(cfg["out"] + "_overlay.csv",
                header + "omega_rad_s,S,geometric_weight,dynamic_weight\n" + _table(
                    "%.9g,%.9g,%.9g,%.9g", ov.omega, ov.psd, ov.geometric_weight,
                    ov.dynamic_weight))
    return EXIT_OK


def cmd_calibrate(cfg: dict) -> int:
    _require(cfg, "t2star_us", "t2_us")
    S = noise_mod.calibrate_noise(cfg["t2star_us"] * 1e-6, cfg["t2_us"] * 1e-6)
    lines = _header_lines("calibrate", cfg)
    lines.append(f"delta_rad_s = {fmt(S.delta)}")
    lines.append(f"delta_over_2pi_kHz = {fmt(S.delta / TWO_PI / 1e3)}")
    lines.append(f"tau_c_us = {fmt(S.tau_c * 1e6)}")
    _write_text(cfg["out"], "\n".join(lines) + "\n")
    if cfg["out"] != "-":
        print(f"delta_rad_s = {fmt(S.delta)}")
        print(f"tau_c_us = {fmt(S.tau_c * 1e6)}")
    return EXIT_OK


_COMMANDS = {
    "signal": cmd_signal,
    "sweep": cmd_sweep,
    "estimate": cmd_estimate,
    "decohere": cmd_decohere,
    "calibrate": cmd_calibrate,
}


# a token that reads as a negative number, not an option: such a token, or
# one holding a space, can be an option's value
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")

_TOP_FLAGS = {"-h": "help", "--help": "help", "--version": "version"}
_FLAGS = {command: {"-h": "help", "--help": "help", "--config": "config",
                    **{f"--{key.replace('_', '-')}": key for key in registry}}
          for command, registry in _COMMAND_KEYS.items()}


def _flag(token: str, flags: dict):
    """What ``token`` names among ``flags``: None for a value, else (key,
    value after '=' or None), with key None for an unknown option.

    A long option may be shortened to any prefix that begins one flag only;
    one that begins several is a ConfigError.  A token that does not start
    with '-', is '-' alone, or names no flag but reads as a negative number
    or holds a space is a value.
    """
    if token[:1] != "-" or token == "-":
        return None
    if token == "--":
        return None, None
    if token in flags:
        return flags[token], None
    name, eq, value = token.partition("=")
    value = value if eq else None
    if name in flags:
        return flags[name], value
    if token[1] == "-":
        matches = [f for f in flags if f.startswith(name)]
        if len(matches) > 1:
            raise ConfigError(f"ambiguous option {name}: could be {', '.join(matches)}")
        if matches:
            return flags[matches[0]], value
    if _NEGATIVE_NUMBER.match(token) or " " in token:
        return None
    return None, None


def _help(command: Optional[str] = None) -> str:
    if command is None:
        return ("usage: phasemag COMMAND [--config FILE] [--KEY VALUE ...]\n"
                "Dynamic- and geometric-phase magnetometry simulator.\n"
                f"commands: {', '.join(_COMMAND_KEYS)}\n"
                "'phasemag COMMAND --help' lists the keys of one command.")
    names = {_parse_bool: "BOOL", _parse_float_list: "NUMBERS",
             _parse_int_list: "INTEGERS"}
    lines = [f"usage: phasemag {command} [--config FILE] [--KEY VALUE ...]",
             "keys (a config file spells them with underscores):"]
    for key, (conv, default) in _COMMAND_KEYS[command].items():
        line = f"  --{key.replace('_', '-')} {names.get(conv, conv.__name__.upper())}"
        lines.append(line if default is None else f"{line} (default {default})")
    return "\n".join(lines)


def _parse_argv(argv: list[str]):
    """``COMMAND --key value ...`` as (command, config path or None, {key:
    value}), or the text to print for ``--help`` and ``--version``.

    Options are ``--key value`` or ``--key=value``, with dashes for the
    underscores of the key.  Each value goes through its key's converter as
    it is read, and a repeated option keeps its last value.  An ambiguous
    option is refused before any option is read, and an unknown option or
    a stray argument once all are read, so ``--help`` wins over those.
    """
    if not argv:
        raise ConfigError(f"missing command; expected one of {', '.join(_COMMAND_KEYS)}")
    command = argv[0]
    if command not in _COMMAND_KEYS:
        key, value = _flag(command, _TOP_FLAGS) or (None, None)
        if key is None or value is not None:
            raise ConfigError(f"expected a command ({', '.join(_COMMAND_KEYS)}), "
                              f"--help or --version, got {command!r}")
        return _help() if key == "help" else f"phasemag {__version__}"
    flags, registry = _FLAGS[command], _COMMAND_KEYS[command]
    tokens = argv[1:]
    # no token after a bare '--' is an option; '--' itself is unknown
    end = tokens.index("--") + 1 if "--" in tokens else len(tokens)
    options = [_flag(token, flags) for token in tokens[:end]] + [None] * (len(tokens) - end)
    values, pending, stray = {}, None, None
    for token, option in zip(tokens, options):
        if pending is not None:
            if option is not None:
                raise ConfigError(f"option --{pending.replace('_', '-')} needs a "
                                  f"value, got {token!r} (a value that starts "
                                  f"with '-' can follow '=')")
            key, text = pending, token
        elif option is None or option[0] is None:
            stray = stray or (f"unknown option {token!r}" if option
                              else f"unexpected argument {token!r}")
            continue
        else:
            key, text = option
            if key == "help":
                if text is not None:
                    raise ConfigError(f"option --help takes no value, got {token!r}")
                return _help(command)
            if text is None:
                pending = key
                continue
        pending = None
        # --config names a file; every other option's text is converted
        values[key] = text if key == "config" else _convert(
            registry, key, text, f"option --{key.replace('_', '-')}")
    if pending is not None:
        raise ConfigError(f"option --{pending.replace('_', '-')} needs a value")
    if stray:
        raise ConfigError(f"{stray} for command {command!r}")
    return command, values.pop("config", None), values


def main(argv=None) -> int:
    """Run one command; returns its exit code."""
    try:
        parsed = _parse_argv(sys.argv[1:] if argv is None else list(argv))
        if isinstance(parsed, str):
            print(parsed)
            return EXIT_OK
        command, config_path, overrides = parsed
        return _COMMANDS[command](_resolve(command, config_path, overrides))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Unresolvable as exc:
        print(f"unresolvable: {exc}", file=sys.stderr)
        return EXIT_UNRESOLVABLE
    except PhasemagError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
