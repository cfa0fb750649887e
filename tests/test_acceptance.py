"""Acceptance gate: one test per shipped guarantee.

Each test runs the corresponding check from dimlab.verify, prints its
PASS/FAIL line (with runtime against the budget), and asserts the result.
The cantor-box Assouad clause compares the slope in m of the C = 1
surrogate, since the raw m=12 value carries the dyadic covering constant
as a log2(C)/m bias.  See the check_cantor_box docstring.
"""

from dimlab.verify import CHECKS


def _run(name):
    result = CHECKS[name]()
    print(result.line())
    return result


def test_entropy_extremes():
    r = _run("entropy-extremes")
    assert r.passed, (
        f"uniform-measure entropy drifted {r.details['max_abs_error']:.2e} "
        f"from log #A (tolerance 1e-12), or point mass entropy "
        f"{r.details['point_mass_entropy']} != 0, or over budget ({r.runtime_s:.2f}s)"
    )


def test_chain_rules():
    r = _run("chain-rules")
    assert r.passed, (
        f"telescoping error {r.details['max_telescoping_error']:.2e} or block "
        f"chain-rule error {r.details['max_block_error']:.2e} above 1e-9, "
        f"or over budget ({r.runtime_s:.2f}s)"
    )


def test_entropy_to_covering():
    r = _run("entropy-covering")
    assert r.passed, (
        f"{r.details['failures']} of {r.details['checks']} covering bounds "
        f"failed after their hypotheses fired ({r.details['fired']} fired), "
        f"or over budget ({r.runtime_s:.2f}s)"
    )


def test_cantor_box_exponents():
    r = _run("cantor-box")
    assert r.passed, (
        "box slope {box_slope:.5f} vs target {target:.5f} +-0.02 (ok={box_ok}); "
        "assouad_slope {assouad_slope:.5f} over m in {assouad_window} vs the "
        "target +-0.03 (ok={assouad_ok}); ordering lower <= box_lower <= "
        "box_upper <= assouad m=12 {assouad:.5f} ok={ordering_ok}; "
        "or over budget ({runtime:.2f}s)".format(runtime=r.runtime_s, **r.details)
    )


def test_sumset_saturation():
    r = _run("sumset-saturation")
    assert r.passed, (
        f"C + C at depth 16 occupied {r.details['count']} of "
        f"{r.details['expected']} index sums, or over budget"
    )


def test_sumset_growth():
    r = _run("growth")
    assert r.passed, (
        f"upper-box values {r.details['box_upper']} must rise strictly and "
        f"clear 0.95 by k=3; lower values {r.details['lower']} must be "
        f"non-decreasing; k=4 strictly increasing: "
        f"{r.details['strictly_increasing_k4']}"
    )


def test_reciprocal_density():
    r = _run("reciprocal-density")
    assert r.passed, f"density rows: {r.details['rows']}"


def test_ifs_interval_fill():
    r = _run("ifs-interval")
    assert r.passed, f"interval fill results: {r.details}"


def test_distance_set_exponents():
    r = _run("distance-set")
    assert r.passed, (
        f"distance set kept assouad {r.details['assouad_D']:.4f} of "
        f"{r.details['assouad_F']:.4f} and box {r.details['box_D']:.4f} of "
        f"{r.details['box_F']:.4f}; each must reach half minus 0.05"
    )
    # a product dust; C - C = [-1, 1] gives all 1024 axis differences
    assert (r.details["product"], r.details["vectors"]) == (True, 1024**2)


def test_moran_measure_not_atomic():
    r = _run("moran-measure")
    assert r.passed, f"atomic vertices found: {r.details['rows']}"


def test_counting_bracket():
    r = _run("counting-bracket")
    failing = [row for row in r.details["pairs"] if not row["holds"]]
    assert r.passed, f"index-sum counts outside [N/2, 2N]: {failing}"
