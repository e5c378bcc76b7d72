"""Outside-in tracing of gmfbm for the benchmark's traced run.

``install`` replaces each traced public function with a wrapper in every
``gmfbm`` module namespace that binds it, so calls made through
``from ... import`` names are recorded too.  Each call becomes one span
(name, parent span, start, end) kept in flat in-memory arrays; work counts
are added up at the same boundaries.  ``summary`` turns the spans into
per-layer call counts and self times (span duration minus the time covered
by its child spans) and ``dump`` writes the raw spans out at exit.

Nothing under ``src/`` is changed: the wrappers live only in the traced
process.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# Substep counts at or below this take the tilting-rejection samplers, above
# it the double-rejection sampler; it is the vector switch point in randkit.
TSS_SHORT_MAX_SUBSTEPS = 16

# span name of the Philox position reads around each TSS call; the probe
# encloses the TSS span so its cost lands in neither the sampler nor its caller
PROBE = "trace.probe"


def _philox_position(stream) -> int:
    state = stream.gen.bit_generator.state
    counter = sum(int(word) << (64 * i) for i, word in enumerate(state["state"]["counter"]))
    return counter * 4 + int(state["buffer_pos"])


def _count(size) -> int:
    return 1 if size is None else int(np.prod(size))


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.bindings: list[str] = []

    # -- span store ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def add(self, counter: str, n: int) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + n

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` in a span; ``count(*args, **kwargs)``, if given, is the
        work done by the call, added to the counter ``<name>.<count.__name__>``."""
        name_id = self._id(name)
        counter = None if count is None else f"{name}.{count.__name__}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if count is not None:
                self.add(counter, count(*args, **kwargs))
            idx = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def tss_span(self, fn, substep_count):
        """Wrap the tempered stable sampler: bucket each call by substep
        count and read the Philox position around it to count words."""
        short_id = self._id("randkit.tss_short")
        long_id = self._id("randkit.tss_long")
        probe_id = self._id(PROBE)

        @functools.wraps(fn)
        def wrapper(stream, alpha, lam, dt, size=None):
            short = substep_count(alpha, lam, dt) <= TSS_SHORT_MAX_SUBSTEPS
            bucket = "randkit.tss_short" if short else "randkit.tss_long"
            probe = self._open(probe_id)
            before = _philox_position(stream)
            idx = self._open(short_id if short else long_id)
            try:
                return fn(stream, alpha, lam, dt, size=size)
            finally:
                self._close(idx)
                self.add(bucket + ".words", _philox_position(stream) - before)
                self.add(bucket + ".draws", _count(size))
                self._close(probe)

        return wrapper

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        """Wrap the traced functions in every loaded gmfbm module."""
        from gmfbm import cli, fbm, mclab, process, randkit, subordinators

        # counters are named after these functions; the scalar fast path of
        # pairs keeps the counting cost out of the per-pair self time
        def pairs(u, v, h, stream, size=None):
            if size is None and isinstance(u, float) and isinstance(v, float):
                return 1
            return int(np.broadcast(u, v).size) * _count(size)

        def points(times, h, stream, size=None):
            return int(np.size(times)) * _count(size)

        def draws(stream, shape, size=None):
            return _count(size)

        plan = [
            (randkit, "derive_stream", "randkit.derive_stream", None),
            (randkit, "derive_substream", "randkit.derive_substream", None),
            (randkit, "sample_gamma", "randkit.gamma", draws),
            (fbm, "sample_fbm_pair", "fbm.pair", pairs),
            (fbm, "fbm_values_at_times", "fbm.at_times", points),
            (subordinators, "sample_increment", "subordinators.sample_increment", None),
            (subordinators, "sample_path", "subordinators.sample_path", None),
            (subordinators, "subordinator_moment", "subordinators.moment", None),
            (process, "sample_timechanged_pair", "process.pair", None),
            (process, "sample_timechanged_path_with_clock", "process.path", None),
            (process, "sample_timechanged_path", "process.path", None),
            (process, "exact_var_oracle", "process.oracle", None),
            (process, "exact_cov_oracle", "process.oracle", None),
            (process, "exact_increment_second_moment", "process.oracle", None),
            (mclab, "estimate_cov", "mclab.estimate", None),
            (mclab, "estimate_corr", "mclab.estimate", None),
            (mclab, "estimate_increment_sm", "mclab.estimate", None),
            (mclab, "lrd_report", "mclab.lrd_report", None),
            (mclab, "fit_decay", "mclab.fit", None),
            (cli, "main", "cli.main", None),
        ]
        replacements = {}
        for module, attr, name, count in plan:
            original = getattr(module, attr)
            replacements[id(original)] = (original, self.span(name, original, count))
        tss = randkit.sample_tempered_stable_increment
        replacements[id(tss)] = (tss, self.tss_span(tss, randkit.tempered_stable_substep_count))

        modules = {key: m for key, m in sys.modules.items()
                   if m is not None and (key == "gmfbm" or key.startswith("gmfbm."))}
        for key, module in sorted(modules.items()):
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self.bindings.append(f"{key}.{attr}")

    # -- results ------------------------------------------------------------

    def _arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return name_id, parent, start, end

    def summary(self) -> dict:
        """Per span name: call count and self time; plus the work counters."""
        name_id, parent, start, end = self._arrays()
        dur = end - start
        # parent index -1 marks a root span; shift so it lands in bin 0
        child = np.bincount(parent + 1, weights=dur, minlength=len(dur) + 1)[1:]
        self_time = dur - child
        calls = np.bincount(name_id, minlength=len(self.names))
        self_s = np.bincount(name_id, weights=self_time, minlength=len(self.names))
        return {
            "spans": {name: {"calls": int(calls[i]), "self_s": float(self_s[i])}
                      for i, name in enumerate(self.names)},
            "counts": dict(self.counts),
            "bindings": self.bindings,
            "span_count": int(len(dur)),
        }

    def dump(self, path: str) -> None:
        name_id, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=start, end=end)
