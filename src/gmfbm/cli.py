"""Command-line front end: simulate paths, tabulate oracle vs asymptotic
covariances and moments, run the long-range-dependence verification, and
run the built-in self test.

Exit codes: 0 success, 1 usage/config error, 2 I/O error, 3 statistical
verification failure, 4 numerical failure (a quadrature that could not
reach its tolerance, a covariance with an eigenvalue below -1e-6 of its
largest, an oracle covariance or correlation lost to cancellation or with
a rounding error bound above 1e-3 of itself, a value beyond the float
range, or a positive value that underflows to 0).
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import sys
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from gmfbm import mclab, theory
from gmfbm.fbm import ConditioningError
from gmfbm.process import (
    CancellationError,
    GmfbmParams,
    TimeChangedSpec,
    exact_cov_oracle,
    sample_timechanged_path_with_clock,
)
from gmfbm.randkit import BLOCK_PATHS, path_blocks
from gmfbm.subordinators import (
    QuadratureError,
    SubordinatorSpec,
    subordinator_moment,
    subordinator_moment_asymptotic,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_STATISTICAL = 3
EXIT_NUMERICAL = 4


def _moment_orders(text: str) -> tuple[float, ...]:
    # argparse prints an ArgumentTypeError's text as given; any other error
    # it reports under the name of this function
    try:
        orders = tuple(float(q) for q in text.split(",") if q.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not orders:
        raise argparse.ArgumentTypeError(f"no moment order in {text!r}")
    return orders


# One row per run parameter: key -> (type, default, help, choices).  Each
# key is the flag --key with "-" for "_" (--lambda for lam, --q on moments
# only) and the --config key; the type converts the flag and the file value.
_PARAMS = {
    "subordinator": (str, "tss", None, ("tss", "gamma")),
    "alpha": (float, 0.7, "tempered stable index in (0,1)", None),
    "lam": (float, 1.0, "tempering parameter > 0", None),
    "nu": (float, 1.0, "Gamma clock parameter > 0", None),
    "a": (float, 1.0, "mixing weight of the H1 motion", None),
    "b": (float, 1.0, "mixing weight of the H2 motion", None),
    "h1": (float, 0.55, "Hurst index of the first motion, in (0,1)", None),
    "h2": (float, 0.8, "Hurst index of the second motion, in (0,1)", None),
    "s": (float, 1.0, "fixed earlier time", None),
    "t_min": (float, 100.0, "first time of the geometric grid, > 0", None),
    "t_max": (float, 10000.0, "last grid time, finite and > t-min", None),
    "t_count": (int, 12, "number of grid times, >= 2", None),
    "paths": (int, 10000, "number of sampled paths", None),
    "seed": (int, 12345, "master seed, in [0, 2**64)", None),
    "format": (str, "csv", "output format", ("csv", "json")),
    "out": (str, "-", "output path, '-' for stdout", None),
    "q": (_moment_orders, (0.6, 1.0, 1.6), "comma-separated moment orders", None),
}


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    spec: TimeChangedSpec
    values: dict

    def __getitem__(self, key: str):
        return self.values[key]

    def t_grid(self) -> np.ndarray:
        return np.geomspace(self["t_min"], self["t_max"], self["t_count"])

    def to_dict(self) -> dict:
        sub = self.spec.subordinator
        p = self.spec.gmfbm
        d = {"subordinator": sub.kind, "a": p.a, "b": p.b, "h1": p.h1, "h2": p.h2}
        for key in ("s", "t_min", "t_max", "t_count", "paths", "seed"):
            d[key] = self[key]
        d.update(block_paths=BLOCK_PATHS, format=self["format"], out=self["out"])
        if sub.kind == "tss":
            d["alpha"] = sub.params.alpha
            d["lambda"] = sub.params.lam
        else:
            d["nu"] = sub.params.nu
        return d


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gmfbm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, help=fn.__doc__)
        p.add_argument("--config", help="INI-style key=value file; flags override it")
        for key, (kind, _, text, choices) in _PARAMS.items():
            if key != "q" or name == "moments":
                flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
                p.add_argument(flag, dest=key, type=kind, choices=choices, help=text)
    sub.add_parser("selftest", help="run the nine acceptance criteria at full size")
    return parser


def _load_config_file(path: str) -> dict:
    import configparser  # only a --config run pays for the import

    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        try:
            cp.read_string(text)
        except configparser.MissingSectionHeaderError:
            cp.read_string("[run]\n" + text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config file: {exc}") from exc
    out = {}
    for section in cp.sections():
        for key, value in cp.items(section):
            key = key.strip().replace("-", "_")
            out["lam" if key == "lambda" else key] = value.strip()
    return out


def _make_config(args: argparse.Namespace) -> RunConfig:
    # precedence: flag, then --config file, then the table default
    file_values = _load_config_file(args.config) if args.config else {}
    for key in file_values:
        if key not in _PARAMS:
            raise ConfigError(f"unknown config key {key!r}")
    values = {}
    for key, (kind, default, _, choices) in _PARAMS.items():
        value = getattr(args, key, None)
        if value is None and key in file_values:
            try:
                value = kind(file_values[key])
            except (ValueError, argparse.ArgumentTypeError) as exc:
                raise ConfigError(f"bad value for {key}: {exc}") from exc
            if choices and value not in choices:
                raise ConfigError(f"unknown {key} {value!r}")
        values[key] = default if value is None else value
    try:
        if values["subordinator"] == "tss":
            sub = SubordinatorSpec.tss(values["alpha"], values["lam"])
        else:
            sub = SubordinatorSpec.gamma(values["nu"])
        params = GmfbmParams(values["a"], values["b"], values["h1"], values["h2"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not 0.0 < values["t_min"] < values["t_max"] < math.inf:
        raise ConfigError("need 0 < t-min < t-max, with t-max finite")
    if values["t_count"] < 2:
        raise ConfigError("t-count must be at least 2")
    if values["paths"] < 1:
        raise ConfigError("paths must be positive")
    if not 0 <= values["seed"] < 2**64:
        raise ConfigError("seed must be a nonnegative 64-bit integer")
    return RunConfig(TimeChangedSpec(params, sub), values)


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _json_chunks(config: RunConfig, names: list[str], inner: list, blocks, summary: dict):
    # the indent=2 document, a block of rows at a time (every table has a
    # row): the envelope is dumped with no rows and split where they go.
    # Each block's rows pass through json's C encoder (no indent), then one
    # number per line; row cells are numbers, so ", " and "], [" only separate
    head, tail = json.dumps({"config": config.to_dict(), "columns": names, "rows": [],
                             "summary": summary}, indent=2).split('"rows": []', 1)
    inner_keys = [np.asarray(axis).tolist() for axis in inner]
    lead = head + '"rows": [\n'
    for outer, values in blocks:
        keys = itertools.product(np.asarray(outer).tolist(), *inner_keys)
        cells = np.reshape(values, (-1, len(names) - 1 - len(inner))).tolist()
        text = json.dumps([[*key, *cell] for key, cell in zip(keys, cells)])[2:-2]
        yield (lead + "    [\n      " + text.replace("], [", "\n    ],\n    [\n      ")
               .replace(", ", ",\n      ") + "\n    ]")
        lead = ",\n"
    yield "\n  ]" + tail + "\n"


def _emit(config: RunConfig, names: list[str], inner: list, blocks, summary: dict) -> None:
    """Write one table to --out, as CSV or JSON, a block at a time.

    A row is its key cells, then its value cells.  ``blocks`` yields
    (outer, values): the rows keyed by outer x inner[0] x inner[1] ...,
    outer slowest, with their value cells in ``values`` in C order.
    """
    if config["format"] == "csv":
        from gmfbm import csvcells  # JSON runs never load the cell formatter
        chunks = csvcells.chunks(names, inner, blocks)
    else:
        chunks = _json_chunks(config, names, inner, blocks, summary)
    # the first block is ready before anything is opened, so a run that
    # fails there leaves no output behind; each chunk is dropped once it is
    # written (writelines too), before the next one is made
    first = next(chunks)
    with (contextlib.nullcontext(sys.stdout) if config["out"] == "-"
          else open(config["out"], "w")) as fh:
        fh.write(first)
        del first
        fh.writelines(chunks)


def _info(message: str) -> None:
    # human-readable notes go to stderr so they never corrupt a stdout table
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(config: RunConfig) -> int:
    """sample time-changed paths"""
    grid = config.t_grid()

    def blocks():
        # each block is written before the next one is sampled
        for stream, lo, hi in path_blocks(config["seed"], config["paths"]):
            clock, values = sample_timechanged_path_with_clock(
                config.spec, grid, stream, size=hi - lo)
            yield np.arange(lo, hi), np.stack([clock, values], axis=-1)

    _emit(config, ["path", "t", "subordinator", "value"], [grid], blocks(), {})
    return EXIT_OK


def cmd_cov_table(config: RunConfig) -> int:
    """oracle vs asymptotic vs Monte Carlo covariance"""
    s, grid = config["s"], config.t_grid()
    # the formula refuses a grid not above s before the oracle's quadrature runs
    asym = np.array([theory.cov_asymptotic(config.spec, s, t) for t in grid.tolist()])
    oracle = exact_cov_oracle(config.spec, s, grid)
    est = mclab.estimate_cov(config.spec, s, grid, config["paths"], config["seed"])
    values = np.column_stack([oracle, asym, oracle / asym, [e.value for e in est],
                              [e.stderr for e in est]])
    _emit(config, ["t", "oracle_cov", "asymptotic_cov", "ratio", "mc_cov", "mc_stderr"],
          [], [(grid, values)], {})
    return EXIT_OK


def cmd_lrd(config: RunConfig) -> int:
    """long-range-dependence verification"""
    t = config.t_grid()
    report = mclab.lrd_report(config.spec, config["s"], t, config["paths"], config["seed"])
    pred, tolerance = report.predicted, mclab.LRD_SLOPE_TOLERANCE
    gap = abs(report.oracle_fit.slope - pred.dominant)
    passed = gap < tolerance
    names = ["t", "oracle_corr", "mc_corr", "mc_stderr"]
    summary = asdict(report)
    values = np.column_stack([summary.pop(name) for name in names[1:]])
    summary.update(slope_gap=gap, slope_tolerance=tolerance, verdict=passed)
    _emit(config, names, [], [(t, values)], summary)
    p = config.spec.gmfbm
    if config["h1"] > config["h2"]:
        _info(f"note: h1 exceeds h2, so the two motions are swapped to (a, h1) = "
              f"({p.a:g}, {p.h1:g}) and (b, h2) = ({p.b:g}, {p.h2:g}); the exponents and "
              f"the long-range-dependence criterion below read that order, not the one given")
    if 0.0 in (p.a, p.b):
        _info(f"note: a motion of weight 0 is absent, so the exponents below read the other "
              f"one's index {p.h2 if p.a == 0.0 else p.h1:g} as both H1 and H2")
    _info(f"predicted exponents: mixed {pred.exponent_mixed:+.4f}, "
          f"pure {pred.exponent_pure:+.4f}, dominant {pred.dominant:+.4f}; "
          f"with the -H2 term {pred.exponent_plateau:+.4f}, "
          f"dominant of the three {pred.dominant_of_three:+.4f}")
    mc = report.mc_fit
    if mc is None:
        mc_text = "mc undefined (a Monte Carlo correlation is not positive)"
    else:
        mc_text = (f"mc {mc.slope:+.4f} (stderr {mc.slope_stderr:.4f}, "
                   f"paired {report.mc_slope_paired_stderr:.4f})")
    _info(f"fitted slopes: oracle {report.oracle_fit.slope:+.4f} "
          f"(stderr {report.oracle_fit.slope_stderr:.4f}), {mc_text}")
    _info(f"long-range dependent: {report.is_lrd}")
    if not passed:
        # for H2 < 1/2, Cov tends to V(s)/2, so the correlation decays like t**-H2
        if pred.exponent_plateau - pred.dominant > tolerance:
            advice = (f"the oracle slope tends to -H2 = {pred.exponent_plateau:+.4f}, a term "
                      f"the prediction lacks; a larger --t-max will not close the gap")
        else:
            advice = "the grid may end before the asymptote; try a larger --t-max"
        _info(f"FAIL: |oracle slope - predicted| = {gap:.4f} >= {tolerance} ({advice})")
        return EXIT_STATISTICAL
    _info(f"PASS: |oracle slope - predicted| = {gap:.4f} < {tolerance}")
    return EXIT_OK


def cmd_moments(config: RunConfig) -> int:
    """exact vs asymptotic clock moments"""
    sub = config.spec.subordinator
    grid = config.t_grid()
    exact = np.column_stack([subordinator_moment(sub, grid, q) for q in config["q"]])
    # per element, in Python: numpy's power can differ from libm in the last bit
    asym = np.array([[subordinator_moment_asymptotic(sub, t, q) for q in config["q"]]
                     for t in grid.tolist()])
    values = np.stack([exact, asym, exact / asym], axis=-1)
    _emit(config, ["t", "q", "exact_moment", "asymptotic_moment", "ratio"],
          [config["q"]], [(grid, values)], {"q_values": list(config["q"])})
    return EXIT_OK


_COMMANDS = {
    "simulate": cmd_simulate,
    "cov-table": cmd_cov_table,
    "lrd": cmd_lrd,
    "moments": cmd_moments,
}


def _raised_in(exc: BaseException) -> str:
    # "module.function" of the innermost traceback frame inside this package,
    # skipping the frames Python gives comprehensions (named "<listcomp>")
    package = Path(__file__).resolve().parent
    frame = [f for f in traceback.extract_tb(exc.__traceback__)
             if Path(f.filename).resolve().parent == package
             and not f.name.startswith("<")][-1]
    return f"{Path(frame.filename).stem}.{frame.name}"


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on bad usage, which is 1 here
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        if args.command == "selftest":
            from gmfbm.selftest import run_selftest
            return EXIT_OK if run_selftest() else EXIT_STATISTICAL
        return _COMMANDS[args.command](_make_config(args))
    except ConfigError as exc:
        print(f"gmfbm: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"gmfbm: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"gmfbm: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (QuadratureError, ConditioningError, CancellationError) as exc:
        print(f"gmfbm: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OverflowError, FloatingPointError) as exc:
        # the library raises FloatingPointError for a value that underflows
        kind = "overflow" if isinstance(exc, OverflowError) else "underflow"
        print(f"gmfbm: numerical failure: float {kind} in {_raised_in(exc)} "
              f"during {args.command!r}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
