"""One benchmark instance: a fresh interpreter imports ``gmfbm.cli``, calls
``gmfbm.cli.main(argv)`` once and writes its measurements as JSON.

    python3 perfbench/instance.py RESULT.json [--setup-only] [--spans SPANS.npz] -- ARGV...

``ready`` is the CLOCK_MONOTONIC reading once ``gmfbm.cli`` is imported;
the parent subtracts its own reading taken just before the spawn to get
the set-up time.  With ``--spans`` the run is traced (see ``spans.py``) and
the raw spans are written to SPANS.npz.
"""

import sys
import time

import gmfbm.cli

READY = time.monotonic()

import json  # noqa: E402
import resource  # noqa: E402


def main() -> int:
    args = sys.argv[1:]
    split = args.index("--")
    opts, cli_argv = args[:split], args[split + 1:]
    result_path = opts[0]
    result = {"ready": READY}
    if "--setup-only" not in opts:
        tracer = None
        if "--spans" in opts:
            from spans import Tracer
            tracer = Tracer()
            tracer.install()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        result["exit_code"] = gmfbm.cli.main(cli_argv)
        result["verdict_s"] = time.perf_counter() - wall0
        result["cpu_s"] = time.process_time() - cpu0
        if tracer is not None:
            result["trace"] = tracer.summary()
            tracer.dump(opts[opts.index("--spans") + 1])
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
