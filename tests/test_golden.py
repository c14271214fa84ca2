"""Golden CLI outputs: every float of a fixed set of rows, pinned.

The rows cover the paper table, the README sweep, non-integer-a sweeps at
d = 1, 2, 3, non-integer-n bounds and oracle validations at d = 1, 2, 3.
Every float in every record must match the stored value to 1e-12
relative (1e-10 for non-integer n, whose norms come from adaptive
quadratures); every other value must match exactly.  The one exception is
the maximizing rescale factor bessel_lambda_star: at a smooth maximum, a
relative change e of the objective moves the argmax by about sqrt(e), so
it is pinned to the square root of the row's tolerance.

Re-record after a deliberate change of outputs with

    PYTHONPATH=src python tests/test_golden.py --record
"""

import io
import json
import math
import pathlib
import sys

import pytest

from sobprod.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "cli_outputs.json"

CASES = (
    ("table",),
    ("sweep", "--a", "2", "--d", "2", "--n-from", "2", "--n-to", "60", "--n-step", "1"),
    ("sweep", "--a", "1.05", "--d", "1", "--n-from", "2", "--n-to", "24", "--n-step", "2"),
    ("sweep", "--a", "1.6", "--d", "2", "--n-from", "2", "--n-to", "24", "--n-step", "2"),
    ("sweep", "--a", "1.9", "--d", "3", "--n-from", "2", "--n-to", "24", "--n-step", "2"),
    ("bound", "--n", "2.8", "--a", "1.05", "--d", "1"),
    ("bound", "--n", "3.2", "--a", "1.5", "--d", "1"),
    ("bound", "--n", "2.5", "--a", "2", "--d", "2"),
    ("bound", "--n", "3.4", "--a", "1.6", "--d", "2"),
    ("bound", "--n", "4.7", "--a", "2.5", "--d", "3"),
    ("oracle", "--n", "1", "--a", "1", "--d", "1", "--mode", "validate"),
    ("oracle", "--n", "3", "--a", "2", "--d", "1", "--mode", "validate"),
    ("oracle", "--n", "2", "--a", "2", "--d", "2", "--mode", "validate"),
    ("oracle", "--n", "2", "--a", "2", "--d", "3", "--mode", "validate"),
)

REL_TOL = 1e-12
REL_TOL_NONINTEGER_N = 1e-10


def run(argv: tuple[str, ...]) -> dict:
    buf = io.StringIO()
    code = main([*argv, "--format", "json"], out=buf)
    records = [json.loads(line) for line in buf.getvalue().splitlines() if line.strip()]
    return {"argv": list(argv), "exit": code, "records": records}


def assert_same(got, ref, tol: float, path: str) -> None:
    if isinstance(ref, float) and isinstance(got, float):
        if math.isfinite(ref):
            err = abs(got - ref) / max(abs(ref), 1e-300)
            assert err <= tol, f"{path}: {got!r} vs {ref!r} (rel {err:.2e} > {tol:.0e})"
        else:
            assert got == ref or (math.isnan(got) and math.isnan(ref)), f"{path}: {got!r} vs {ref!r}"
    elif isinstance(ref, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(ref), f"{path}: keys differ"
        for key in ref:
            key_tol = math.sqrt(tol) if key == "bessel_lambda_star" else tol
            assert_same(got[key], ref[key], key_tol, f"{path}.{key}")
    elif isinstance(ref, list):
        assert isinstance(got, list) and len(got) == len(ref), f"{path}: lengths differ"
        for i, (g, r) in enumerate(zip(got, ref)):
            assert_same(g, r, tol, f"{path}[{i}]")
    else:
        assert type(got) is type(ref) and got == ref, f"{path}: {got!r} vs {ref!r}"


def _tolerance(record: dict) -> float:
    n = record["query"]["n"]
    return REL_TOL if float(n).is_integer() else REL_TOL_NONINTEGER_N


@pytest.fixture(scope="module")
def golden() -> dict:
    return {tuple(entry["argv"]): entry for entry in json.loads(GOLDEN.read_text())}


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv))
def test_matches_golden(golden, argv):
    ref = golden[argv]
    got = run(argv)
    assert got["exit"] == ref["exit"]
    assert len(got["records"]) == len(ref["records"])
    for i, (g, r) in enumerate(zip(got["records"], ref["records"])):
        assert_same(g, r, _tolerance(r), f"record {i}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps([run(argv) for argv in CASES], indent=1) + "\n")
