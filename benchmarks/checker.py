"""Output checker for benchmark ops.

Each op ends in at most one failure, classified by the first reason that
applies, so the per-reason counts sum to the failed-op count:

    timeout    the op hit the per-op time limit
    traceback  an uncaught exception escaped the program
    exit       exit code outside the contract (0 for admissible queries,
               one of 0, 2, 3, 4 for edge queries)
    check      the output is malformed, breaks an invariant or disagrees
               with the recorded reference values
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REASONS = ("timeout", "traceback", "exit", "check")
EDGE_EXITS = frozenset((0, 2, 3, 4))

# Reference values are compared at this relative tolerance: the computation
# is deterministic, so only platform differences in libm or FFT rounding
# should separate two runs of the same code.
REFERENCE_REL_TOL = 1e-7

_LOWERS = (("ground", "lower_ground"), ("bessel", "lower_bessel"), ("fourier", "lower_fourier"))
_SUMMARY_FIELDS = ("upper", "upper_weak", "upper_weak2", "lower_ground", "lower_bessel",
                   "lower_fourier", "lower")


class CheckError(Exception):
    """An op's output failed a check."""


def load_validator(schema_path: Path):
    """Draft-7 validator for the shipped output-record schema."""
    import jsonschema

    schema = json.loads(schema_path.read_text())
    return jsonschema.Draft7Validator(schema)


def interval_errors(rec: dict) -> list[str]:
    """Violations of lower_ground <= lower <= upper <= upper_weak and of
    method_of_best_lower being the argmax of the reported lower bounds."""
    names = ("lower_ground", "lower", "upper", "upper_weak")
    vals = [rec.get(k) for k in names]
    if any(not isinstance(v, (int, float)) or math.isnan(v) for v in vals):
        return [f"missing or NaN bound among {dict(zip(names, vals))}"]
    errs = [f"{ka}={va!r} > {kb}={vb!r}"
            for ka, kb, va, vb in zip(names, names[1:], vals, vals[1:]) if not va <= vb]
    method = rec.get("method_of_best_lower")
    if method == "exact":
        if not (rec.get("sharp") and rec["lower"] == rec["upper"] == rec["lower_ground"]):
            errs.append("method 'exact' without a sharp, collapsed interval")
        return errs
    cands = {m: rec.get(k) for m, k in _LOWERS if rec.get(k) is not None}
    best = max(cands.values())
    if method not in cands or cands[method] != best:
        errs.append(f"method_of_best_lower={method!r} is not the argmax of {cands}")
    elif rec["lower"] != best:
        errs.append(f"lower={rec['lower']!r} differs from the best method's {best!r}")
    return errs


def summarize(op: dict, records: list[dict]) -> list[dict]:
    """The numbers of an op's output that are compared against references."""
    out = []
    for rec in records:
        cmd = rec.get("command")
        if cmd == "oracle-validate":
            out.append({c["name"]: c["value"] for c in rec["checks"]})
        elif cmd == "oracle-search":
            out.append({"best_ratio": rec["best_ratio"], "lower": rec["lower"],
                        "upper": rec["upper"]})
        elif "error" in rec:
            out.append({"error": rec["error"]})
        else:
            out.append({k: rec.get(k) for k in _SUMMARY_FIELDS})
    return out


def _close(x, y, rel_tol: float) -> bool:
    if x is None or y is None or isinstance(x, str) or isinstance(y, str):
        return x == y
    if math.isinf(x) or math.isinf(y):
        return x == y
    return abs(x - y) <= rel_tol * max(abs(x), abs(y))


def reference_errors(got: list[dict], want: list[dict], rel_tol: float = REFERENCE_REL_TOL) -> list[str]:
    if len(got) != len(want):
        return [f"{len(got)} rows, reference has {len(want)}"]
    errs = []
    for i, (g, w) in enumerate(zip(got, want)):
        if set(g) != set(w):
            errs.append(f"row {i}: fields {sorted(g)} vs reference {sorted(w)}")
            continue
        for k in w:
            if not _close(g[k], w[k], rel_tol):
                errs.append(f"row {i}: {k}={g[k]!r}, reference {w[k]!r}")
    return errs


def _argv_value(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def parse_records(op: dict, result: dict, validator) -> list[dict]:
    """Records of a successful op; CLI output must be schema-valid JSON lines."""
    if op["kind"] == "lib":
        return [result["record"]]
    records = []
    for line in result["out"].splitlines():
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise CheckError(f"output line is not JSON: {exc}") from None
        problems = sorted(validator.iter_errors(rec), key=str)
        if problems:
            raise CheckError(f"schema: {problems[0].message}")
        records.append(rec)
    return records


def _check_records(op: dict, records: list[dict]) -> None:
    if op["expect"] == "ok" and len(records) != op["rows"]:
        raise CheckError(f"{len(records)} rows, expected {op['rows']}")
    argv = op.get("argv", [])
    for i, rec in enumerate(records):
        cmd = rec.get("command", "bound")
        if cmd == "oracle-validate":
            failed = [c["name"] for c in rec["checks"] if not c["passed"]]
            if failed or not rec["checks"]:
                raise CheckError(f"oracle checks failed: {failed}")
            continue
        if cmd == "oracle-search":
            r = rec["best_ratio"]
            if not (r > 0.0 and math.isfinite(r) and r <= rec["upper"] * 1.02):
                raise CheckError(f"search ratio {r!r} outside (0, 1.02 * upper]")
            continue
        if "error" in rec:
            raise CheckError(f"row {i} carries an error: {rec['error']}")
        errs = interval_errors(rec)
        if errs:
            raise CheckError(f"row {i}: {'; '.join(errs)}")
        q = rec["query"]
        if op["kind"] == "lib":
            want = (op["n"], op["a"], op["d"])
        elif cmd == "sweep":
            step = float(_argv_value(argv, "--n-step"))
            want = (float(_argv_value(argv, "--n-from")) + i * step,
                    float(_argv_value(argv, "--a")), int(_argv_value(argv, "--d")))
        else:
            want = tuple(float(_argv_value(argv, f)) for f in ("--n", "--a")) + (
                int(_argv_value(argv, "--d")),)
        if (q["n"], q["a"], q["d"]) != want:
            raise CheckError(f"row {i} answers {q}, asked {want}")


def classify(op: dict, result: dict, validator, reference: dict | None = None) -> tuple[str | None, str]:
    """(failure reason or None, detail) for one op and the worker's result."""
    if result["status"] == "timeout":
        return "timeout", f"exceeded {result.get('limit_s')} s"
    if result["status"] == "exception":
        tb = (result.get("tb") or "").strip().splitlines()
        return "traceback", tb[-1] if tb else "uncaught exception"
    code = result["exit"]
    if op["expect"] == "ok" and code != 0:
        return "exit", f"exit {code} for an admissible query: {result.get('err', '').strip()[:200]}"
    if op["expect"] == "edge" and code not in EDGE_EXITS:
        return "exit", f"exit {code} outside {{0, 2, 3, 4}}"
    if code != 0:
        return None, f"exit {code}"
    try:
        records = parse_records(op, result, validator)
        _check_records(op, records)
        if reference is not None:
            errs = reference_errors(summarize(op, records), reference)
            if errs:
                raise CheckError("reference: " + "; ".join(errs[:3]))
    except CheckError as exc:
        return "check", str(exc)
    return None, "ok"
