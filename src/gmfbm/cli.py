"""Command-line front end: simulate paths, tabulate oracle vs asymptotic
covariances and moments, run the long-range-dependence verification, and
run the built-in self test.

Exit codes: 0 success, 1 usage/config error, 2 I/O error, 3 statistical
verification failure, 4 numerical failure (a quadrature or Cholesky
factorisation that could not reach its tolerance).
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass

import numpy as np

from gmfbm import mclab, theory
from gmfbm.fbm import ConditioningError, TimeGrid
from gmfbm.process import (
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

_DEFAULTS = {
    "subordinator": "tss",
    "alpha": 0.7,
    "lam": 1.0,
    "nu": 1.0,
    "a": 1.0,
    "b": 1.0,
    "h1": 0.55,
    "h2": 0.8,
    "s": 1.0,
    "t_min": 100.0,
    "t_max": 10000.0,
    "t_count": 12,
    "paths": 10000,
    "seed": 12345,
    "format": "csv",
    "out": "-",
    "q": "0.6,1.0,1.6",
}

# |oracle slope - predicted dominant exponent| beyond this fails the lrd check
LRD_SLOPE_TOLERANCE = 0.05


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    spec: TimeChangedSpec
    s: float
    t_min: float
    t_max: float
    t_count: int
    n_paths: int
    master_seed: int
    output_format: str
    output_path: str
    q_values: tuple[float, ...]

    def t_grid(self) -> np.ndarray:
        return np.geomspace(self.t_min, self.t_max, self.t_count)

    def to_dict(self) -> dict:
        sub = self.spec.subordinator
        p = self.spec.gmfbm
        d = {
            "subordinator": sub.kind,
            "a": p.a, "b": p.b, "h1": p.h1, "h2": p.h2,
            "s": self.s,
            "t_min": self.t_min, "t_max": self.t_max, "t_count": self.t_count,
            "paths": self.n_paths, "seed": self.master_seed,
            "block_paths": BLOCK_PATHS,
            "format": self.output_format, "out": self.output_path,
        }
        if sub.kind == "tss":
            d["alpha"] = sub.params.alpha
            d["lambda"] = sub.params.lam
        else:
            d["nu"] = sub.params.nu
        return d


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage by default; the contract here is 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="gmfbm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="INI-style key=value file; flags override it")
        p.add_argument("--subordinator", choices=["tss", "gamma"])
        p.add_argument("--alpha", type=float, help="tempered stable index in (0,1)")
        p.add_argument("--lambda", dest="lam", type=float, help="tempering parameter > 0")
        p.add_argument("--nu", type=float, help="Gamma clock parameter > 0")
        p.add_argument("--a", type=float, help="mixing weight of the H1 motion")
        p.add_argument("--b", type=float, help="mixing weight of the H2 motion")
        p.add_argument("--h1", type=float)
        p.add_argument("--h2", type=float)
        p.add_argument("--s", type=float, help="fixed earlier time")
        p.add_argument("--t-min", dest="t_min", type=float)
        p.add_argument("--t-max", dest="t_max", type=float)
        p.add_argument("--t-count", dest="t_count", type=int)
        p.add_argument("--paths", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--format", choices=["csv", "json"])
        p.add_argument("--out", help="output path, '-' for stdout")

    p_sim = sub.add_parser("simulate", help="sample time-changed paths")
    add_common(p_sim)

    p_cov = sub.add_parser("cov-table",
                           help="oracle vs asymptotic vs Monte Carlo covariance")
    add_common(p_cov)

    p_lrd = sub.add_parser("lrd", help="long-range-dependence verification")
    add_common(p_lrd)

    p_mom = sub.add_parser("moments", help="exact vs asymptotic clock moments")
    add_common(p_mom)
    p_mom.add_argument("--q", help="comma-separated moment orders")

    sub.add_parser("selftest", help="run the nine acceptance criteria at full size")

    return parser


def _load_config_file(path: str) -> dict:
    cp = configparser.ConfigParser()
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        cp.read_string(text)
    except configparser.MissingSectionHeaderError:
        cp.read_string("[run]\n" + text)
    except configparser.Error as exc:
        raise ConfigError(f"bad config file: {exc}") from exc
    merged = {}
    for section in cp.sections():
        merged.update(cp.items(section))
    out = {}
    for key, value in merged.items():
        key = key.strip().replace("-", "_")
        if key == "lambda":
            key = "lam"
        out[key] = value.strip()
    return out


_FLOAT_KEYS = {"alpha", "lam", "nu", "a", "b", "h1", "h2", "s", "t_min", "t_max"}
_INT_KEYS = {"t_count", "paths", "seed"}


def _resolve(args: argparse.Namespace) -> dict:
    values = dict(_DEFAULTS)
    if getattr(args, "config", None):
        for key, raw in _load_config_file(args.config).items():
            if key not in values:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = raw
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    try:
        for key in _FLOAT_KEYS:
            values[key] = float(values[key])
        for key in _INT_KEYS:
            values[key] = int(values[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad numeric value: {exc}") from exc
    if values["format"] not in ("csv", "json"):
        raise ConfigError(f"unknown format {values['format']!r}")
    if values["subordinator"] not in ("tss", "gamma"):
        raise ConfigError(f"unknown subordinator {values['subordinator']!r}")
    return values


def _make_config(values: dict, *, needs_fit_grid: bool = False,
                 grid_above_s: bool = False) -> RunConfig:
    try:
        if values["subordinator"] == "tss":
            sub = SubordinatorSpec.tss(values["alpha"], values["lam"])
        else:
            sub = SubordinatorSpec.gamma(values["nu"])
        params = GmfbmParams(values["a"], values["b"], values["h1"], values["h2"])
        q_values = tuple(float(q) for q in str(values["q"]).split(",") if q.strip())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if not 0.0 < values["t_min"] < values["t_max"]:
        raise ConfigError("need 0 < t-min < t-max")
    if values["t_count"] < 2:
        raise ConfigError("t-count must be at least 2")
    if needs_fit_grid and values["t_count"] < 5:
        raise ConfigError("fit commands need t-count >= 5")
    if grid_above_s and not values["t_min"] > values["s"]:
        raise ConfigError("grid minimum must exceed s")
    if values["paths"] < 1:
        raise ConfigError("paths must be positive")
    if values["seed"] < 0:
        raise ConfigError("seed must be a nonnegative 64-bit integer")
    return RunConfig(
        spec=TimeChangedSpec(params, sub),
        s=values["s"],
        t_min=values["t_min"], t_max=values["t_max"], t_count=values["t_count"],
        n_paths=values["paths"],
        master_seed=values["seed"],
        output_format=values["format"],
        output_path=values["out"],
        q_values=q_values,
    )


# ---------------------------------------------------------------------------
# output writers
# ---------------------------------------------------------------------------

def _fmt_value(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    # 17 significant digits: exact round trip for doubles
    return format(float(x), ".17g")


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _emit(config: RunConfig, columns: list[str], rows: list[list], summary: dict) -> None:
    if config.output_format == "csv":
        lines = [",".join(columns)]
        for row in rows:
            lines.append(",".join(_fmt_value(x) for x in row))
        _write_text(config.output_path, "\n".join(lines) + "\n")
    else:
        payload = {
            "config": config.to_dict(),
            "columns": columns,
            "rows": [[x if isinstance(x, int) else float(x) for x in row]
                     for row in rows],
            "summary": summary,
        }
        _write_text(config.output_path, json.dumps(payload, indent=2) + "\n")


def _info(message: str) -> None:
    # human-readable notes go to stderr so they never corrupt a stdout table
    print(message, file=sys.stderr)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(config: RunConfig) -> int:
    grid = TimeGrid(config.t_grid())
    m = len(grid)
    columns = ["path", "t", "subordinator", "value"]
    rows = []
    for stream, lo, hi in path_blocks(config.master_seed, config.n_paths):
        clock, values = sample_timechanged_path_with_clock(config.spec, grid, stream,
                                                           size=hi - lo)
        rows.extend(zip(np.repeat(np.arange(lo, hi), m).tolist(),
                        np.tile(grid.times, hi - lo).tolist(),
                        clock.ravel().tolist(),
                        values.ravel().tolist()))
    _emit(config, columns, rows, {"n_paths": config.n_paths,
                                  "grid_count": config.t_count})
    return EXIT_OK


def cmd_cov_table(config: RunConfig) -> int:
    columns = ["t", "oracle_cov", "asymptotic_cov", "ratio", "mc_cov", "mc_stderr"]
    rows = []
    for t in config.t_grid():
        oracle = exact_cov_oracle(config.spec, config.s, float(t))
        asym = theory.cov_asymptotic(config.spec, config.s, float(t))
        est = mclab.estimate_cov(config.spec, config.s, float(t),
                                 config.n_paths, config.master_seed)
        rows.append([float(t), oracle, asym, oracle / asym, est.value, est.stderr])
    _emit(config, columns, rows, {"s": config.s})
    return EXIT_OK


def cmd_lrd(config: RunConfig) -> int:
    report = mclab.lrd_report(config.spec, config.s, config.t_grid(),
                              config.n_paths, config.master_seed)
    gap = abs(report.oracle_fit.slope - report.predicted.dominant)
    columns = ["t", "oracle_corr", "mc_corr", "mc_stderr"]
    rows = [[t, c_oracle, c_mc, se]
            for (t, c_oracle), (_, c_mc, se)
            in zip(report.oracle_curve, report.mc_curve)]
    summary = report.to_dict()
    del summary["oracle_curve"], summary["mc_curve"]
    summary["slope_gap"] = gap
    summary["slope_tolerance"] = LRD_SLOPE_TOLERANCE
    summary["verdict"] = report.is_lrd
    _emit(config, columns, rows, summary)
    _info(f"predicted exponents: mixed {report.predicted.exponent_mixed:+.4f}, "
          f"pure {report.predicted.exponent_pure:+.4f}, "
          f"dominant {report.predicted.dominant:+.4f}")
    mc = report.mc_fit
    if mc is None:
        mc_text = "mc undefined (a Monte Carlo correlation is not positive)"
    else:
        boot = report.mc_slope_boot_stderr
        mc_text = (f"mc {mc.slope:+.4f} (stderr {mc.slope_stderr:.4f}, "
                   f"bootstrap {'undefined' if boot is None else f'{boot:.4f}'})")
    _info(f"fitted slopes: oracle {report.oracle_fit.slope:+.4f} "
          f"(stderr {report.oracle_fit.slope_stderr:.4f}), {mc_text}")
    _info(f"long-range dependent: {report.is_lrd}")
    if gap > LRD_SLOPE_TOLERANCE:
        _info(f"FAIL: |oracle slope - predicted| = {gap:.4f} > {LRD_SLOPE_TOLERANCE}")
        return EXIT_STATISTICAL
    _info(f"PASS: |oracle slope - predicted| = {gap:.4f} <= {LRD_SLOPE_TOLERANCE}")
    return EXIT_OK


def cmd_moments(config: RunConfig) -> int:
    columns = ["t", "q", "exact_moment", "asymptotic_moment", "ratio"]
    rows = []
    for t in config.t_grid():
        for q in config.q_values:
            exact = subordinator_moment(config.spec.subordinator, float(t), q)
            asym = subordinator_moment_asymptotic(config.spec.subordinator, float(t), q)
            rows.append([float(t), q, exact, asym, exact / asym])
    _emit(config, columns, rows, {"q_values": list(config.q_values)})
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else int(exc.code)
    try:
        if args.command == "selftest":
            from gmfbm.selftest import run_selftest
            return EXIT_OK if run_selftest() else EXIT_STATISTICAL
        values = _resolve(args)
        if args.command == "simulate":
            config = _make_config(values)
            return cmd_simulate(config)
        if args.command == "cov-table":
            config = _make_config(values, grid_above_s=True)
            return cmd_cov_table(config)
        if args.command == "lrd":
            config = _make_config(values, needs_fit_grid=True, grid_above_s=True)
            return cmd_lrd(config)
        if args.command == "moments":
            config = _make_config(values)
            return cmd_moments(config)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"gmfbm: config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"gmfbm: invalid parameters: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"gmfbm: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (QuadratureError, ConditioningError) as exc:
        print(f"gmfbm: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
