"""End-to-end acceptance gate.

Each test prints a single pass/fail line for its criterion before asserting,
so a full run yields a ten-line scorecard.
"""

import ast
from pathlib import Path

import pytest

import polystrata
from polystrata.compositions import closure_collapse_report
from polystrata.homology import HomologyResult
from polystrata.hyperbolic import hyp_homology
from polystrata.strata import complement_cohomology, pol_homology
from polystrata.verify import (
    chain_product_suite,
    d_squared_suite,
    hook_suite,
    machine_table_suite,
    partitions_of,
    quotient_suite,
    resonance_free_suite,
)

SCORECARD = []


def record(index, title, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = "[%2d/10] %-42s %s" % (index, title, status)
    if detail and not ok:
        line += "  (%s)" % detail
    SCORECARD.append(line)
    print("\n" + line)
    return ok


def failing_labels(report):
    return "; ".join(c.label for c in report.cases if not c.match)


def test_hook_sphere_predictions():
    report = hook_suite(n_range=(2, 12), k_range=(2, 12))
    assert record(
        1, "hook types are predicted spheres (n <= 12)", report.passed,
        failing_labels(report),
    )


def test_machine_computation_table():
    report = machine_table_suite()
    assert record(
        2, "reported machine computations reproduced", report.passed,
        failing_labels(report),
    )


def test_resonance_free_homology():
    report = resonance_free_suite(max_weight=12)
    assert record(
        3, "resonance-free types: sphere or zero (<= 12)", report.passed,
        failing_labels(report),
    )


def test_permutahedron_quotients():
    report = quotient_suite(max_t=5, max_weight=12)
    assert record(
        4, "face-poset quotients match coarsening posets", report.passed,
        failing_labels(report),
    )


def test_iterated_posets_are_chain_products():
    report = chain_product_suite(n_range=(2, 6), d_range=(1, 3))
    assert record(
        5, "iterated posets are products of chains", report.passed,
        failing_labels(report),
    )


def test_boundary_squares_to_zero():
    report = d_squared_suite(max_weight=6, max_ambient=10)
    assert record(
        6, "boundary soundness plus sign-rule regression", report.passed,
        failing_labels(report),
    )


def test_three_pipelines_agree():
    bad = []
    for n in range(1, 8):
        for partition in partitions_of(n):
            try:
                hyp_homology(partition)  # default runs and compares all backends
            except Exception as exc:  # noqa: BLE001 - recorded and re-asserted
                bad.append("%s: %s" % (partition, exc))
    assert record(
        7, "three homology pipelines agree (n <= 7)", not bad, "; ".join(bad)
    )


def test_geometric_oracles():
    checks = {
        "elliptic closure contractible": pol_homology((), 2) == HomologyResult.of({}),
        "double-root closure is a 3-sphere": (
            pol_homology((2,), 4).groups == ((3, 1, ()),)
        ),
        "discriminant complement has two regions": (
            complement_cohomology((2,), 2).groups == ((0, 1, ()),)
        ),
    }
    bad = [name for name, ok in checks.items() if not ok]
    assert record(8, "geometric oracle values", not bad, "; ".join(bad))


def test_face_poset_collapses():
    bad = []
    for n in range(2, 8):
        for partition in partitions_of(n):
            report = closure_collapse_report(partition)
            if not report.passed:
                bad.append(str(partition))
    assert record(
        9, "face posets collapse onto coarsening posets", not bad, "; ".join(bad)
    )


def test_complement_stabilization():
    """Complement tables for (2), (3) and (1,2) under adding an elliptic factor.

    Let X_n be the closure of a type with t parts and weight l in ambient
    degree n.  In X_{n+2} the real-rooted cells (weight n + 2) form a
    subcomplex A: their boundaries are merges only.  The other cells are the
    compositions of X_n, with the degree-n boundary coefficients apart from
    the insertions that land in A, so X_{n+2}/A is the degree-n complex
    shifted up by 2.  A has top dimension d_A = t + (n + 2 - l)/2.  The long
    exact sequence gives H_k(X_{n+2}) = H_{k-2}(X_n) for k >= d_A + 2, and at
    k = d_A + 1 an injection whose cokernel lies in the free group H_{d_A}(A).
    Through the duality of complement_cohomology, Betti numbers and torsion
    of the two complement tables agree in every degree q < n - d_A, which is
    (c - 1) + e for codimension c = l - t and e = (n - l)/2 elliptic factors.

    The range is sharp.  For (3) at n = 3 the closure is the twisted cubic
    a -> (x - a)^3, a properly embedded line in 3-space, whose complement is
    a circle up to homotopy: Z in degree 1 = n - d_A.  At n = 5 the closure
    is {(x - a)^3 q : q monic quadratic, q >= 0}, a closed half-space, and
    its complement is acyclic.
    """
    bad = []
    for partition in ((2,), (3,), (1, 2)):
        t, l = len(partition), sum(partition)
        for n in range(l, 9, 2):
            d_a = t + (n + 2 - l) // 2
            t1 = complement_cohomology(partition, n)
            t2 = complement_cohomology(partition, n + 2)
            for q in range(0, n - d_a):
                low = (t1.betti(q), t1.torsion(q))
                high = (t2.betti(q), t2.torsion(q))
                if low != high:
                    bad.append(
                        "lambda=%s n=%d vs %d degree %d: %s vs %s"
                        % (partition, n, n + 2, q, low, high)
                    )
    curve, half_space = complement_cohomology((3,), 3), complement_cohomology((3,), 5)
    if (curve.betti(1), curve.torsion(1)) != (1, ()):
        bad.append("lambda=(3,) n=3 degree 1: linking class missing")
    if (half_space.betti(1), half_space.torsion(1)) != (0, ()):
        bad.append("lambda=(3,) n=5 degree 1: class survives")
    assert record(
        10, "complement tables stable below n - d_A", not bad, "; ".join(bad)
    )


def test_source_stays_exact():
    # no float constant, no load of the builtin float and no true division
    bad = []
    for path in sorted(Path(polystrata.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (
                isinstance(node, ast.Constant) and isinstance(node.value, float)
                or isinstance(node, ast.Name) and node.id == "float"
                and isinstance(node.ctx, ast.Load)
                or isinstance(getattr(node, "op", None), ast.Div)
            ):
                bad.append("%s:%d" % (path.name, node.lineno))
    assert not bad, bad


@pytest.fixture(scope="session", autouse=True)
def print_scorecard():
    yield
    if SCORECARD:
        print("\n" + "\n".join(SCORECARD))
