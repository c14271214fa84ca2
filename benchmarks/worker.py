"""Benchmark worker: one fresh, single-threaded interpreter that imports
sobprod and runs ops sent by ``run.py``, one at a time.

Protocol: JSON lines.  The worker prints ``{"ready": true}`` once sobprod
and sobprod.cli are imported, then answers every op line on stdin with one
result line.  A line ``{"cmd": "finish"}`` returns peak RSS and, in traced
runs, every recorded span, and ends the worker.

Each op runs under a SIGALRM time limit; the op's stdout and stderr are
captured so nothing it prints can corrupt the protocol stream.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback

# keep fd 1 for the protocol; anything else written to stdout goes to stderr
_proto = os.fdopen(os.dup(sys.stdout.fileno()), "w")
os.dup2(sys.stderr.fileno(), sys.stdout.fileno())

import sobprod  # noqa: E402  (timed by the parent as set-up)
import sobprod.cli  # noqa: E402


class OpTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the program cannot swallow it."""


def _on_alarm(signum, frame):
    raise OpTimeout()


def _report_record(report) -> dict:
    q = report.query
    rec = {k: getattr(report, k) for k in (
        "upper", "upper_weak", "upper_weak2", "lower_ground", "lower_bessel",
        "lower_fourier", "lower", "method_of_best_lower", "sharp",
        "log2_upper_over_n", "log2_lower_over_n")}
    rec["query"] = {"n": q.n, "a": q.a, "d": q.d, "regime": q.regime.value}
    rec["metadata"] = dict(report.metadata)
    return rec


def run_op(op: dict, limit_s: float) -> dict:
    out, err = io.StringIO(), io.StringIO()
    res = {"id": op["id"], "status": "ok", "exit": None, "tb": None, "record": None,
           "limit_s": limit_s}
    signal.setitimer(signal.ITIMER_REAL, limit_s)
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if op["kind"] == "cli":
                res["exit"] = sobprod.cli.main(list(op["argv"]), out)
            else:
                report = sobprod.best_bounds(sobprod.BoundQuery(op["n"], op["a"], op["d"]))
                res["exit"] = 0
    except OpTimeout:
        res["status"] = "timeout"
    except SystemExit as exc:  # argparse rejects malformed flags this way
        res["exit"] = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        res["status"], res["exit"], res["tb"] = "exception", 1, traceback.format_exc()
    finally:
        res["wall_s"] = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    if op["kind"] == "lib" and res["status"] == "ok":
        res["record"] = _report_record(report)
    res["out"], res["err"] = out.getvalue(), err.getvalue()[-2000:]
    return res


def main(argv: list[str]) -> int:
    traced = "--trace" in argv
    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    _send({"ready": True, "sobprod": sobprod.__file__})
    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("cmd") == "finish":
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            _send({"peak_rss_mb": peak_kb / 1024.0,
                   "spans": tracer.spans if tracer else None})
            return 0
        if tracer:
            tracer.op = msg["id"]
        _send(run_op(msg, msg["limit_s"]))
    return 0


def _send(obj: dict) -> None:
    _proto.write(json.dumps(obj) + "\n")
    _proto.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
