"""Benchmark worker: runs CLI invocations in one fresh interpreter.

Started by run.py from the root of a checkout with ``src`` on PYTHONPATH.
Prints one JSON line once the package is imported, then reads one request
per line from stdin and answers each with one JSON line on stdout:

  {"op": id, "argv": [...], "stdin": text}  -> runs graphentropy.cli.main
  {"finish": true}                          -> exit, without a reply

The CLI's own stdout and stderr are captured per op and returned, so the
parent can check them.  Each reply also carries the mean time of a fixed
loop of rational arithmetic run just before the op, every SPIN_EVERY_S during it (from
SIGALRM) and just after it, SPINS_AROUND times each side: the machine's speed while the op ran, which
run.py uses to calibrate op times.  With ``--trace PATH`` the package is
wrapped by tracer.install, each reply carries the op's per-layer summary,
and the op's spans are appended to PATH.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

SPIN_LOOPS = 600
SPIN_FRACTIONS = [Fraction(7 * i % 97 + 1, 11 * i % 89 + 1) for i in range(64)]
SPIN_EVERY_S = 0.1
SPINS_AROUND = 5


def spin_seconds() -> float:
    """Time of a fixed loop of rational arithmetic; about 1.5 ms on a 2020s core.

    The loop makes and frees small objects much as the library's exact
    arithmetic does, so it slows down with the machine as an op does; an
    integer-only loop slows down less than the ops on a busy machine and
    under-corrects them."""
    fr = SPIN_FRACTIONS
    started = time.perf_counter()
    for i in range(SPIN_LOOPS):
        fr[i & 63] * fr[(i * 7) & 63] + fr[(i * 13) & 63]
    return time.perf_counter() - started


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    trace_path = sys.argv[2] if len(sys.argv) > 2 and sys.argv[1] == "--trace" else None
    requests = sys.stdin
    replies = sys.stdout

    import graphentropy.cli
    from graphentropy.rationals import Rational

    # One untimed call, so the first op of a pass does not also pay the
    # CLI's first-call costs (about 3 ms); set-up time includes it.
    sys.stdin = io.StringIO("2; 1-2")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        graphentropy.cli.main(["bounds", "--graph", "-"])
    sys.stdin = requests

    tracer = None
    if trace_path is not None:
        import tracer as tracing

        tracer = tracing.Tracer(trace_path)
        tracing.install(tracer)
    numpy = sys.modules.get("numpy")
    replies.write(json.dumps({
        "ready": True,
        "rational": f"{Rational.__module__}.{Rational.__qualname__}",
        "numpy": getattr(numpy, "__version__", None),
        "python": platform.python_version(),
        "spin_s": statistics.mean(spin_seconds() for _ in range(SPINS_AROUND)),
    }) + "\n")
    replies.flush()

    spins: list[float] = []
    signal.signal(signal.SIGALRM, lambda signum, frame: spins.append(spin_seconds()))
    for line in requests:
        req = json.loads(line)
        if req.get("finish"):
            return 0
        out, err = io.StringIO(), io.StringIO()
        exc = None
        if tracer is not None:
            tracer.start_op(req["op"])
        sys.stdin = io.StringIO(req.get("stdin", ""))
        # Every op starts from a collected heap, as in a fresh CLI process,
        # whatever ops ran before it in this worker.
        gc.collect()
        spins = [spin_seconds() for _ in range(SPINS_AROUND)]
        signal.setitimer(signal.ITIMER_REAL, SPIN_EVERY_S, SPIN_EVERY_S)
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                status = graphentropy.cli.main(req["argv"])
        except SystemExit as stop:
            status = stop.code if isinstance(stop.code, int) else 2
        except Exception as error:  # reported to the parent as the op's failure cause
            status, exc = None, type(error).__name__
        elapsed = time.perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, 0)
        spins += [spin_seconds() for _ in range(SPINS_AROUND)]
        sys.stdin = requests
        reply = {
            "op": req["op"], "seconds": elapsed, "spin_s": statistics.mean(spins),
            "status": status, "exception": exc,
            "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:],
            "peak_rss_mb": _peak_rss_mb(),
        }
        if tracer is not None:
            reply["layers"] = tracer.finish_op()
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
