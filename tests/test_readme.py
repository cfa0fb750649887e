"""The README's library tour runs, and gives the values its comments state."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"

# each expression line of the tour, with the value its comment states
# (floats as the comment rounds them)
STATED = {
    "len(cantor.levels[-1])": 362,
    "est.value, est.slope": (0.8305, 0.6439),
    "dl.assouad_estimate(cantor, 6).value": 0.8012,
    "dl.entropy(mu, 6)": 3.2306,
    "dl.covering_bounds_check(cantor, prof, cantor.max_depth).ok": True,
    "report.count_exact, report.bracket": (8191, (4095.5, 16382.0)),
}


def _rounded(value):
    if isinstance(value, tuple):
        return tuple(map(_rounded, value))
    return round(value, 4) if isinstance(value, float) else value


def test_library_tour_states_its_values():
    text = README.read_text(encoding="utf-8")
    block = re.search(r"^## Library tour\n\n```python\n(.*?)^```", text, re.M | re.S).group(1)
    namespace, values = {}, {}
    for statement in ast.parse(block).body:
        code = ast.get_source_segment(block, statement)
        if isinstance(statement, ast.Expr):
            values[code] = _rounded(eval(code, namespace))
        else:
            exec(code, namespace)
    assert values == STATED
    dust = namespace["dust"]
    assert dust.count(dust.depth) == 23716
