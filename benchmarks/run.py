"""sobprod benchmark: seeded workloads, checked outputs, end-to-end metrics
and, in a separate traced run, per-layer metrics.

    python3 benchmarks/run.py --workload bound-mix --seed 0 --seconds 28 --trace 0

Each run starts fresh single-threaded interpreters (``worker.py``) from
the checkout's ``src/``.  Set-up is measured on several of them; the last
one then runs the workload as one closed-loop client: the next op is sent
when the previous one has returned, until ``--seconds`` of wall time have
passed.  Caches persist across the ops of a run, never across runs.  Every
op is checked (``checker.py``) and each op is bounded by a time limit.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs ops for
half of ``--seconds`` untraced, then the same ops traced (``tracer.py``) in
a fresh worker, and prints the per-layer metrics plus the tracing overhead.  Human-readable
lines come first; the last line of stdout is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--dry`` prints the op list a run would start with, without running it.
Workload ``edge`` (not in BENCHMARK.json) runs the known-defect list.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import queue
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import checker
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = SRC / "sobprod" / "data" / "output_record.schema.json"
REFERENCE = HERE / "reference.json"

OP_LIMIT_S = 30.0  # per-op time limit; a hang ends here as a failed op
KILL_GRACE_S = 15.0  # the worker is killed if SIGALRM did not end the op
SETUP_SAMPLES = 11
TAIL_BEYOND = 10  # op_tail_s: highest percentile with this many ops beyond it

END_TO_END = (
    ("setup_s", "s"),
    ("rows_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("fail_frac", "1"),
    ("peak_rss_mb", "MB"),
)


class WorkerError(RuntimeError):
    """The worker could not start or stopped answering."""


class Worker:
    """One worker process speaking the JSON-lines protocol of worker.py."""

    def __init__(self, traced: bool) -> None:
        env = dict(os.environ)
        env.update({
            "PYTHONPATH": str(SRC),
            "PYTHONHASHSEED": "0",
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        })
        argv = [sys.executable, str(HERE / "worker.py")] + (["--trace"] if traced else [])
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     env=env, cwd=ROOT, text=True)
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            ready = self._receive(60.0)
        except WorkerError:
            self.close()
            raise
        self.setup_s = time.perf_counter() - t0
        path = Path(ready.get("sobprod", "")).resolve()
        if SRC.resolve() not in path.parents:
            self.close()
            raise WorkerError(f"imported sobprod from {path}, not from {SRC}")

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _receive(self, timeout: float) -> dict:
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise WorkerError(f"no answer within {timeout:.0f} s") from None
        if line is None:
            raise WorkerError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, msg: dict, timeout: float) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._receive(timeout)

    def finish(self) -> dict:
        out = self.call({"cmd": "finish"}, 120.0)
        self.close()
        return out

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdin.close()
        self._reader.join(timeout=5.0)
        self.proc.stdout.close()


def run_ops(ops, seconds: float | None, traced: bool, worker: Worker | None = None):
    """Run ops in a closed loop until the stream ends or ``seconds`` pass.

    Returns (ops run, results, peak RSS in MB, spans).  A worker that stops
    answering is killed, its op counted as timed out, and a fresh worker
    (with empty caches) takes the remaining ops.
    """
    worker = worker or Worker(traced)
    done, results = [], []
    t_start = time.perf_counter()
    try:
        for i, op in enumerate(ops):
            if seconds is not None and time.perf_counter() - t_start >= seconds:
                break
            msg = dict(op, id=i, limit_s=OP_LIMIT_S)
            t0 = time.perf_counter()
            try:
                res = worker.call(msg, OP_LIMIT_S + KILL_GRACE_S)
            except WorkerError as exc:
                res = {"id": i, "status": "timeout", "exit": None, "limit_s": OP_LIMIT_S,
                       "wall_s": time.perf_counter() - t0, "err": str(exc)}
                worker.close()
                worker = Worker(traced)
            done.append(op)
            results.append(res)
        final = worker.finish()
    except BaseException:
        worker.close()
        raise
    return done, results, final["peak_rss_mb"], final["spans"] or []


def check_all(ops, results, reference: dict):
    validator = checker.load_validator(SCHEMA)
    verdicts = []
    for op, res in zip(ops, results):
        verdicts.append(checker.classify(op, res, validator, reference.get(workloads.op_key(op))))
    return verdicts


def tail(latencies: list[float]) -> tuple[float, float] | None:
    """(latency, percentile) at the highest percentile with TAIL_BEYOND ops beyond it."""
    n = len(latencies)
    if n <= TAIL_BEYOND:
        return None
    return sorted(latencies)[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment() -> dict:
    env = {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                env["cpu"] = line.split(":", 1)[1].strip()
                break
        caches = {}
        for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = (
                (idx / "size").read_text().strip())
        env["caches"] = caches
    except OSError as exc:
        env["cpu_info_error"] = str(exc)
    return env


def _strata(ops, results) -> str:
    """Op count and median latency per stratum."""
    walls: dict[str, list[float]] = {}
    for op, res in zip(ops, results):
        walls.setdefault(op["stratum"], []).append(res["wall_s"])
    return ", ".join(f"{k} {len(v)} ops p50 {statistics.median(v):.3g} s"
                     for k, v in sorted(walls.items()))


def _failure_counts(verdicts) -> dict[str, int]:
    counts = dict.fromkeys(checker.REASONS, 0)
    for reason, _ in verdicts:
        if reason:
            counts[reason] += 1
    return counts


def _report_failures(ops, verdicts) -> None:
    for i, (op, (reason, detail)) in enumerate(zip(ops, verdicts)):
        if reason:
            print(f"# FAIL op {i} [{reason}] {workloads.op_key(op)}: {detail}")


def end_to_end(args, reference: dict) -> dict:
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        w = Worker(False)
        setups.append(w.setup_s)
        w.finish()
    worker = Worker(False)
    setups.append(worker.setup_s)
    ops, results, peak, _ = run_ops(workloads.generate(args.workload, args.seed),
                                    args.seconds, False, worker)
    verdicts = check_all(ops, results, reference)
    walls = [r["wall_s"] for r in results]
    rows = sum(op["rows"] for op, (reason, _) in zip(ops, verdicts)
               if reason is None and op["expect"] == "ok")
    counts = _failure_counts(verdicts)
    failed = sum(counts.values())
    t = tail(walls)
    values = {
        "setup_s": statistics.median(setups),
        "rows_per_s": rows / sum(walls),
        "op_p50_s": statistics.median(walls),
        "op_tail_s": t[0] if t else None,
        "fail_frac": failed / len(ops),
        "peak_rss_mb": peak,
    }
    print(f"# ops: {len(ops)} ({_strata(ops, results)})")
    print(f"# size: {workloads.SIZES[args.workload]}")
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "rows_per_s": f"{rows} rows in {sum(walls):.3f} s of op wall time",
        "op_p50_s": f"median of {len(ops)} ops",
        "op_tail_s": (f"p{t[1]:.1f} of {len(ops)} ops" if t
                      else f"n/a: {len(ops)} ops, needs more than {TAIL_BEYOND}"),
        "fail_frac": ", ".join(f"{k} {v}" for k, v in counts.items()) + f" of {len(ops)}",
        "peak_rss_mb": "peak RSS of the worker process",
    }
    for name, unit in END_TO_END:
        v = values[name]
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"{args.workload:16s} {name:12s} {shown:>12s} {unit:4s}  ({notes[name]})")
    _report_failures(ops, verdicts)
    # an undefined metric (op_tail_s with too few ops) is left out
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END if name in args.metrics and values[name] is not None}
    return {"correct": failed == 0, "attempted": len(ops), "failed": failed, "metrics": metrics}


def per_layer(args, reference: dict) -> dict:
    # half the budget untraced, then the same ops traced, so a traced run
    # takes about as long as an untraced one
    ops, base_results, _, _ = run_ops(workloads.generate(args.workload, args.seed),
                                      args.seconds / 2.0, False)
    _, results, _, spans = run_ops(ops, None, True)
    verdicts = check_all(ops, base_results, reference) + check_all(ops, results, reference)
    counts = _failure_counts(verdicts)
    failed = sum(counts.values())
    base = sum(r["wall_s"] for r in base_results)
    traced = sum(r["wall_s"] for r in results)
    values = tracer.layer_metrics(spans)
    values["trace.overhead_frac"] = (traced - base) / base
    print(f"# ops: {len(ops)} ({_strata(ops, results)}), traced; run untraced first")
    print(f"# spans: {len(spans)}; untraced {base:.3f} s, traced {traced:.3f} s of op wall time")
    for name, unit, moves, where in tracer.LAYER_METRICS:
        print(f"{args.workload:16s} {name:40s} {values[name]:>14.6g} {unit:5s}  "
              f"moves {moves} | on {where}")
    _report_failures(ops + ops, verdicts)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _, _ in tracer.LAYER_METRICS}
    return {"correct": failed == 0, "attempted": 2 * len(ops), "failed": failed,
            "metrics": metrics}


def main(argv: list[str]) -> int:
    names = sorted(workloads.WORKLOADS) + [workloads.EDGE_WORKLOAD]
    p = argparse.ArgumentParser(description="sobprod benchmark")
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--dry", type=int, metavar="COUNT", default=0,
                   help="print the first COUNT ops and exit without running them")
    args = p.parse_args(argv)
    if args.dry:
        for op in itertools.islice(workloads.generate(args.workload, args.seed), args.dry):
            print(json.dumps(op, sort_keys=True))
        return 0
    if not (SRC / "sobprod" / "__init__.py").is_file():
        print(f"error: no sobprod sources under {SRC}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if args.trace else "end_to_end"
    args.metrics = {m["name"] for m in bench[key]}
    reference = json.loads(REFERENCE.read_text())["ops"]
    print("# env " + json.dumps(environment(), sort_keys=True))
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}; per-op limit {OP_LIMIT_S:g} s")
    try:
        result = per_layer(args, reference) if args.trace else end_to_end(args, reference)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
