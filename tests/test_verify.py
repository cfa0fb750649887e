"""The verify runner: checks register in definition order, the runner alone
reads the clock, and a body that passes but overruns its budget fails with
its own details."""

import ast
import time
from pathlib import Path

from dimlab import verify

VERIFY_SOURCE = Path(verify.__file__).read_text(encoding="utf-8")


def test_checks_register_in_definition_order():
    assert list(verify.CHECKS) == [
        "entropy-extremes",
        "chain-rules",
        "entropy-covering",
        "cantor-box",
        "sumset-saturation",
        "growth",
        "reciprocal-density",
        "ifs-interval",
        "distance-set",
        "moran-measure",
        "counting-bracket",
    ]
    assert verify.SUITES["all"] == tuple(verify.CHECKS)


def clock_readers(source: str) -> set[str]:
    """Names of the functions that read `time.perf_counter`."""
    return {
        func.name
        for func in ast.walk(ast.parse(source))
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Attribute) and node.attr == "perf_counter"
    }


def test_only_the_runner_reads_the_clock():
    assert clock_readers(VERIFY_SOURCE) == {"_check", "register", "run"}


def test_an_overrun_fails_with_its_details(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", {})

    @verify._check("slow", 0.001)
    def slow():
        time.sleep(0.01)
        return True, {"slept_s": 0.01}

    result = verify.CHECKS["slow"]()
    assert not result.passed
    assert result.runtime_s >= 0.01
    assert (result.name, result.budget_s, result.details) == ("slow", 0.001, {"slept_s": 0.01})
    assert result.line().startswith("FAIL slow (")

