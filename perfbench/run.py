"""gmfbm benchmark: four CLI workloads, each instance a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src`` through PYTHONPATH, never installed.  Every instance calls
``gmfbm.cli.main(argv)`` once in a new interpreter (that is what a user
pays for one ``gmfbm`` command), is checked against the exact oracles, and
is hashed: all instances of a run use the run's seed, so their outputs must
be byte-identical.  An instance that raises, exits nonzero, fails a check
or hashes differently counts as failed.

``--trace 0`` repeats untraced instances for about S seconds (at least two)
and reports the end-to-end medians.  ``--trace 1`` runs pairs of one
untraced and one traced instance (see ``spans.py``) and reports per-layer
metrics; end-to-end numbers never come from a traced instance.

The harness measures only the processes it starts.  It changes no CPU
governor, cache or cgroup setting.  Children run with BLAS/OpenMP threads
set to 1.  The last line of stdout is the JSON result; a run record with
per-instance figures, host-speed probes and version metadata goes to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

MIN_INSTANCES = 2
SETUP_PROBES = 4
# every run must exit within 180 s; stop starting instances well before
RUN_BUDGET_S = 150.0

_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

# Model parameters are pinned to today's CLI defaults so that a change of
# default cannot silently change a workload.
A, B, H1, H2, S = 1.0, 1.0, 0.55, 0.8, 1.0
ALPHA, LAM, NU = 0.7, 1.0, 1.0
T_COUNT = 12
# The load knob.  3000 paths keep one instance at 1-3 s on a 2-core host, so
# a 25 s run holds 4-10 instances for its median, while criterion 7's slope
# gate still holds by more than four standard errors.
PATHS = 3000


@dataclass(frozen=True)
class Workload:
    command: list[str]
    subordinator: str
    t_min: float
    t_max: float
    check: str
    oracle: str

    def argv(self, seed: int, out: str) -> list[str]:
        clock = (["--alpha", str(ALPHA), "--lambda", str(LAM)]
                 if self.subordinator == "tss" else ["--nu", str(NU)])
        return [*self.command, "--subordinator", self.subordinator, *clock,
                "--a", str(A), "--b", str(B), "--h1", str(H1), "--h2", str(H2),
                "--s", str(S), "--t-min", str(self.t_min), "--t-max", str(self.t_max),
                "--t-count", str(T_COUNT), "--paths", str(PATHS),
                "--seed", str(seed), "--out", out]


WORKLOADS = {
    # criterion 7's command at 3% of its paths; spans t-s >= 99 take the
    # scalar double-rejection TSS sampler
    "lrd-tss": Workload(["lrd", "--format", "json"], "tss", 100.0, 1e4,
                        "check_lrd", "lrd_oracle"),
    # the same command on a Gamma clock: no TSS sampler, no quadrature
    "lrd-gamma": Workload(["lrd", "--format", "json"], "gamma", 100.0, 1e4,
                          "check_lrd", "lrd_oracle"),
    # criterion 4's short spans: 2-28 substeps straddle the scalar (4) and
    # vector (16) sampler switch points; estimate_cov has no bootstrap
    "cov-tss-short": Workload(["cov-table", "--format", "json"], "tss", 2.0, 20.0,
                              "check_cov_table", "cov_oracle"),
    # full-grid Cholesky per path, per-gap clock loop, 2 MB of CSV; no mclab
    "simulate-tss": Workload(["simulate", "--format", "csv"], "tss", 100.0, 1e4,
                             "check_simulate", "var_oracle"),
}

# (name, unit) of every per-layer metric, in BENCHMARK.json order
PER_LAYER = [
    ("randkit.derive_stream.calls", "count"), ("randkit.derive_stream.self_s", "s"),
    ("randkit.derive_substream.calls", "count"), ("randkit.derive_substream.self_s", "s"),
    *[(f"randkit.{b}.{k}", u) for b in ("tss_short", "tss_long")
      for k, u in (("draws", "count"), ("self_s", "s"), ("us_per_draw", "us"),
                   ("words_per_draw", "words"))],
    ("randkit.gamma.draws", "count"), ("randkit.gamma.self_s", "s"),
    ("fbm.pair.pairs", "count"), ("fbm.pair.self_s", "s"), ("fbm.pair.us_per_pair", "us"),
    ("fbm.at_times.calls", "count"), ("fbm.at_times.points", "count"),
    ("fbm.at_times.self_s", "s"),
    ("subordinators.sample_increment.self_s", "s"),
    ("subordinators.sample_path.calls", "count"), ("subordinators.sample_path.self_s", "s"),
    ("subordinators.moment.calls", "count"), ("subordinators.moment.self_s", "s"),
    ("process.pair.calls", "count"), ("process.pair.self_s", "s"),
    ("process.path.calls", "count"), ("process.path.self_s", "s"),
    ("process.oracle.calls", "count"), ("process.oracle.self_s", "s"),
    ("mclab.estimate.calls", "count"), ("mclab.estimate.self_s", "s"),
    ("mclab.lrd_report.self_s", "s"), ("mclab.fit.self_s", "s"),
    ("cli.main.self_s", "s"), ("cli.bytes_out", "B"),
    ("trace.overhead_frac", "ratio"), ("ops_failed_frac", "ratio"),
]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({var: "1" for var in _THREAD_VARS})
    return env


def host_probe() -> float:
    """Seconds for a fixed mix of interpreter and numpy work; a diagnostic
    of host speed only, never a metric."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(2_000_000):
        acc += i * i
    a = np.random.default_rng(0).standard_normal((200, 200))
    for _ in range(200):
        a = np.tanh(a @ a / 200.0)
    return time.perf_counter() - t0


def metadata() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "src_gmfbm_lines": sum(len(p.read_text().splitlines())
                               for p in sorted((SRC / "gmfbm").glob("*.py"))),
    }


class Run:
    """Instances of one workload at one seed, with their checks."""

    def __init__(self, name: str, seed: int, deadline: float):
        # checks imports gmfbm, which resolves only once SRC is on sys.path
        import checks
        from gmfbm.process import GmfbmParams, TimeChangedSpec
        from gmfbm.subordinators import SubordinatorSpec

        self.name = name
        w = WORKLOADS[name]
        self.deadline = deadline
        self.out_rel = f"perfbench/out/{name}.out"
        self.out_path = ROOT / self.out_rel
        self.argv = w.argv(seed, self.out_rel)
        self.grid = np.geomspace(w.t_min, w.t_max, T_COUNT)
        clock = (SubordinatorSpec.tss(ALPHA, LAM) if w.subordinator == "tss"
                 else SubordinatorSpec.gamma(NU))
        spec = TimeChangedSpec(GmfbmParams(A, B, H1, H2), clock)
        self.check = getattr(checks, w.check)
        self.oracle = getattr(checks, w.oracle)(spec, S, self.grid)
        self.env = child_env()
        self.reference_hash = None
        self.instances: list[dict] = []
        self.setups: list[float] = []

    def spawn(self, opts: list[str], argv: list[str]) -> dict:
        """Start one instance and wait for it; returns its result record."""
        result_path = OUT / f"{self.name}.result.json"
        result_path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "instance.py"), str(result_path), *opts, "--", *argv]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=max(1.0, self.deadline - spawned))
        except subprocess.TimeoutExpired:
            return {"problems": ["timed out"], "wall_s": time.monotonic() - spawned}
        rec = {"wall_s": time.monotonic() - spawned, "problems": []}
        if proc.returncode != 0 or not result_path.exists():
            rec["problems"].append(f"instance exited {proc.returncode}: "
                                   f"{proc.stderr.strip()[-2000:]}")
            return rec
        rec.update(json.loads(result_path.read_text()))
        rec["setup_s"] = rec.pop("ready") - spawned
        self.setups.append(rec["setup_s"])
        return rec

    def instance(self, traced: bool) -> dict:
        self.out_path.unlink(missing_ok=True)
        opts = ["--spans", str(OUT / f"{self.name}.spans.npz")] if traced else []
        rec = self.spawn(opts, self.argv)
        rec["traced"] = traced
        if not rec["problems"]:
            self._check(rec)
        self.instances.append(rec)
        status = "ok" if not rec["problems"] else "FAILED: " + "; ".join(rec["problems"])
        print(f"[{self.name}] instance {len(self.instances)}"
              f"{' traced' if traced else ''}: "
              f"verdict {rec.get('verdict_s', float('nan')):.3f} s, "
              f"setup {rec.get('setup_s', float('nan')):.3f} s, {status}", file=sys.stderr)
        return rec

    def _check(self, rec: dict) -> None:
        if rec["exit_code"] != 0:
            rec["problems"].append(f"gmfbm exited {rec['exit_code']}")
            return
        if not self.out_path.exists():
            rec["problems"].append("no output file")
            return
        data = self.out_path.read_bytes()
        rec["bytes_out"] = len(data)
        rec["sha256"] = hashlib.sha256(data).hexdigest()
        if self.reference_hash is None:
            self.reference_hash = rec["sha256"]
        elif rec["sha256"] != self.reference_hash:
            rec["problems"].append("output differs from the first same-seed instance")
        try:
            rec["problems"] += self.check(self.out_path, self.grid, PATHS, self.oracle)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            rec["problems"].append(f"malformed output: {exc!r}")

    def should_stop(self, started: float, seconds: float, durations: list[float],
                    minimum: int) -> bool:
        now = time.monotonic()
        if len(durations) < minimum:
            return now + max(durations, default=0.0) > self.deadline
        return (now - started + statistics.median(durations) > seconds
                or now + max(durations) > self.deadline)


def end_to_end(run: Run) -> dict:
    done = [r for r in run.instances if "verdict_s" in r]
    if not done:
        return {}
    metrics = {
        "verdict_s": (statistics.median(r["verdict_s"] for r in done), "s"),
        "cpu_s": (statistics.median(r["cpu_s"] for r in done), "s"),
        "setup_s": (statistics.median(run.setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in done), "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def check_trace_counts(run: Run) -> None:
    """Call and work counts must repeat exactly for a fixed seed."""
    traced = [r for r in run.instances if r["traced"] and "trace" in r]
    for r in traced[1:]:
        if (_span_calls(r) != _span_calls(traced[0])
                or r["trace"]["counts"] != traced[0]["trace"]["counts"]):
            r["problems"].append("trace counts differ from the first traced instance")


def _span_calls(rec: dict) -> dict:
    return {name: span["calls"] for name, span in rec["trace"]["spans"].items()}


def per_layer(run: Run, failed_frac: float) -> dict:
    plain = [r["verdict_s"] for r in run.instances if not r["traced"] and "verdict_s" in r]
    traced = [r for r in run.instances if r["traced"] and "trace" in r]
    if not plain or not traced:
        return {}
    # counts come from the first traced instance; self times are medians
    first = traced[0]["trace"]
    counts = first["counts"]

    def calls(span):
        return first["spans"].get(span, {"calls": 0})["calls"]

    def self_s(span):
        return statistics.median(r["trace"]["spans"].get(span, {"self_s": 0.0})["self_s"]
                                 for r in traced)

    def ratio(num, den):
        return num / den if den else 0.0

    values = {
        "cli.bytes_out": traced[0].get("bytes_out", 0),
        "trace.overhead_frac": (statistics.median(r["verdict_s"] for r in traced)
                                / statistics.median(plain) - 1.0),
        "ops_failed_frac": failed_frac,
    }
    for name, _ in PER_LAYER:
        span, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls(span)
        elif kind == "self_s":
            values[name] = self_s(span)
        elif kind in ("draws", "pairs", "points"):
            values[name] = counts.get(name, 0)
    for span, unit in (("randkit.tss_short", "draw"), ("randkit.tss_long", "draw"),
                       ("fbm.pair", "pair")):
        work = values[f"{span}.{unit}s"]
        values[f"{span}.us_per_{unit}"] = ratio(values[f"{span}.self_s"] * 1e6, work)
        if unit == "draw":
            values[f"{span}.words_per_draw"] = ratio(counts.get(f"{span}.words", 0), work)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "gmfbm" / "cli.py").is_file():
        print(f"benchmark: no gmfbm sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if not 0 <= args.seed < 1 << 64:
        print("benchmark: --seed must be a nonnegative 64-bit integer", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    started = time.monotonic()
    run = Run(args.workload, args.seed, started + RUN_BUDGET_S)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "argv": run.argv, "metadata": metadata(),
              "host_probe_start_s": host_probe()}
    for _ in range(SETUP_PROBES):
        run.spawn(["--setup-only"], [])
    durations: list[float] = []
    while True:
        t0 = time.monotonic()
        run.instance(traced=False)
        if args.trace:
            run.instance(traced=True)
        durations.append(time.monotonic() - t0)
        minimum = 1 if args.trace else MIN_INSTANCES
        if run.should_stop(started, args.seconds, durations, minimum):
            break
    record["host_probe_end_s"] = host_probe()

    if args.trace:
        check_trace_counts(run)
    attempted = len(run.instances)
    failed = sum(1 for r in run.instances if r["problems"])
    metrics = per_layer(run, failed / attempted) if args.trace else end_to_end(run)
    record.update({"attempted": attempted, "failed": failed,
                   "ops_failed_frac": failed / attempted,
                   "setups_s": run.setups, "instances": run.instances,
                   "metrics": metrics})
    record_path = OUT / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1, default=str))
    print(f"[{args.workload}] {attempted} instances, {failed} failed; host probe "
          f"{record['host_probe_start_s']:.3f} s -> {record['host_probe_end_s']:.3f} s; "
          f"record {record_path.relative_to(ROOT)}", file=sys.stderr)
    if not metrics:
        print("benchmark: no instance completed", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
