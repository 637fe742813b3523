"""Run one cutchar invocation in this fresh interpreter and report on it.

Usage: child.py MODE STATS SRC ARG...

MODE is ``plain`` or ``trace``; STATS is the file this writes its report
to; SRC is the directory holding the ``cutchar`` package to import; ARG...
are the arguments of ``cutchar``, passed to ``cutchar.cli.main``.  The CLI
writes to this process's stdout as it does for a user.  The report holds
the exit status, the seconds spent in ``main`` (import excluded), the peak
resident set in KiB, and with ``trace`` the spans of ``spans.py``.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    mode, stats_path, src, *argv = sys.argv[1:]
    # assert statements are part of the program measured (morse_quotient
    # checks itself with one); -O would strip them.
    if sys.flags.optimize:
        raise SystemExit("refusing to run under python -O")
    sys.path.insert(0, src)
    import cutchar.characters
    import cutchar.cli
    import cutchar.verify

    if not Path(cutchar.cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        raise SystemExit(f"imported cutchar from {cutchar.cli.__file__}, not from {src}")
    entry = cutchar.cli.main
    tracer = None
    if mode == "trace":
        import spans

        tracer = spans.install(cutchar.cli, cutchar.verify, cutchar.characters)
        entry = tracer.span("cli.main", entry)
    start = time.perf_counter()
    rc = entry(argv)
    sys.stdout.flush()
    elapsed = time.perf_counter() - start
    stats = {
        "rc": rc,
        "main_s": elapsed,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        stats["trace"] = tracer.snapshot()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
