"""Scalar/tensor field behavior: purity, differentiation, symmetric storage."""

import gc
import math
import pathlib
import re
import sys

import numpy as np
import pytest

from smmsgeom.config import Report
from smmsgeom.curvature import acc_sum, fold_sum
from smmsgeom.fields import (Chart, Request, SymTensor2Field, evaluate, max_abs,
                             run, sample_points)
from smmsgeom.expressions import parse_expression
from smmsgeom.jets import (Jet, JetDivisionError, value_apply, value_power,
                          value_quotient)


CHART = Chart(("x1", "x2"), box=((-0.5, 0.5), (-0.5, 0.5)))


def test_evaluation_is_pure():
    f = parse_expression("exp(x1)*sin(x2)", CHART)
    a = f.jet((0.2, 0.5), 3)
    b = f.jet((0.2, 0.5), 3)
    np.testing.assert_array_equal(a.coeffs, b.coeffs)


def test_cache_serves_lower_degrees():
    f = parse_expression("exp(x1*x2)", CHART)
    hi = f.jet((0.1, 0.3), 5)
    lo = f.jet((0.1, 0.3), 2)
    np.testing.assert_array_equal(lo.coeffs, hi.truncated(2).coeffs)


def test_partial_equals_shifted_parent_jet():
    f = parse_expression("exp(x1)*sin(x2)", CHART)
    fx = f.partial(0)
    direct = f.jet((0.2, 0.5), 4).partial(0)
    np.testing.assert_array_equal(fx.jet((0.2, 0.5), 3).coeffs, direct.coeffs)
    # d/dx1 of exp(x1) sin(x2) is the same field again
    assert fx.value((0.2, 0.5)) == pytest.approx(f.value((0.2, 0.5)), rel=1e-12)


def test_partial_folding_and_commutation():
    x1 = CHART.coordinate(0)
    assert x1.partial(1).is_zero
    f = parse_expression("sin(x1*x2)+x1^3", CHART)
    a = f.partial(0).partial(1)
    b = f.partial(1).partial(0)
    np.testing.assert_array_equal(a.jet((0.3, -0.2), 2).coeffs,
                                  b.jet((0.3, -0.2), 2).coeffs)


def test_partial_is_shared_node():
    f = parse_expression("x1^2*x2", CHART)
    assert f.partial(0) is f.partial(0)


def test_structural_folding():
    z = CHART.zero()
    f = parse_expression("x1+x2", CHART)
    assert (z * f).is_zero
    assert (f + z) is f
    assert (f * 1.0) is f
    c = CHART.constant(2.0) * CHART.constant(3.0)
    assert c.const_value() == 6.0


def test_chart_mismatch_rejected():
    other = Chart(("y1", "y2"))
    f = parse_expression("x1", CHART)
    g = parse_expression("y1", other)
    with pytest.raises(ValueError):
        f + g


def test_chart_coercion_requires_the_very_chart():
    # equal names do not make one chart: a child's index means nothing in
    # another chart's tape (these read 0.2 and 0.25 when they were let in)
    c1 = Chart(("x1", "x2"))
    c2 = Chart(("x1", "x2"))
    with pytest.raises(ValueError, match="different charts"):
        (c1.coordinate(0) + c2.coordinate(1)).value((0.1, 0.2))
    with pytest.raises(ValueError, match="different charts"):
        (c1.coordinate(1) * (c2.coordinate(0) * c2.coordinate(1))).value(
            (0.3, 0.5))
    with pytest.raises(ValueError, match="different charts"):
        c1.sum([c1.coordinate(0), c2.coordinate(1)])


def test_sample_points_deterministic():
    a = sample_points(CHART, 5, seed=7)
    b = sample_points(CHART, 5, seed=7)
    assert a == b
    for p in a:
        assert all(-0.5 <= v <= 0.5 for v in p)


def _numpy_sample(box, count, seed):
    lo = np.array([a for a, _ in box])
    hi = np.array([b for _, b in box])
    return np.random.default_rng(seed).uniform(lo, hi, size=(count, len(box)))


SEEDS = [*range(300), 2**32 - 1, 2**32, 2**64 + 3, 10**30]


def test_sample_points_are_numpys_uniform_bit_for_bit():
    boxes = np.random.default_rng(2022)
    for n, seed in enumerate(SEEDS):
        dim, count = 1 + n % 6, 1 + n % 12
        lo = boxes.uniform(-5.0, 5.0, size=dim)
        box = tuple(zip(lo, lo + boxes.uniform(1e-3, 10.0, size=dim)))
        chart = Chart([f"x{i}" for i in range(dim)], box=box)
        got = np.array(sample_points(chart, count, seed))
        want = _numpy_sample(chart.box, count, seed)
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got.view(np.uint64),
                                      want.view(np.uint64), err_msg=str(seed))


def test_sample_points_stream_is_pinned():
    # literal points, so the stream stays fixed whatever numpy does later
    assert sample_points(CHART, 2, seed=7) == [
        (0.12509546660466697, 0.3972138009695755),
        (0.2756856902451935, -0.27479281000940814)]
    chart = Chart(("x", "y", "z"), box=((0.0, 1.0), (-2.0, 3.0), (10.0, 10.5)))
    assert sample_points(chart, 1, seed=2**64 + 3) == [
        (0.7243886900316061, 0.051812709047901695, 10.253273442616758)]


@pytest.mark.parametrize("box,seed,error", [
    (((-0.5, 0.5),), -1, ValueError),
    (((0.0, math.inf),), 0, OverflowError),
    (((-1e308, 1e308),), 0, OverflowError),
    (((-0.5, 0.5), (0.0, math.nan)), 3, OverflowError),
])
def test_sample_points_raise_like_numpy(box, seed, error):
    chart = Chart([f"x{i}" for i in range(len(box))], box=box)
    with pytest.raises(error):
        sample_points(chart, 2, seed)
    with np.errstate(over="ignore"), pytest.raises(error):
        _numpy_sample(chart.box, 2, seed)


def test_sym_tensor_storage_and_values():
    f = parse_expression("x1*x2", CHART)
    t = SymTensor2Field(CHART, {(0, 1): f, (0, 0): CHART.constant(2.0)})
    assert t.comp(1, 0) is t.comp(0, 1)
    m = t.matrix_values((0.3, 0.5))
    assert m[0][1] == m[1][0] == pytest.approx(0.15)
    assert m[0][0] == 2.0 and m[1][1] == 0.0


def test_structurally_equal_fields_are_one_node():
    x, y = CHART.coordinate(0), CHART.coordinate(1)
    assert x * y is x * y
    assert (x + 1.0).partial(0) is (x + 1.0).partial(0)
    f = parse_expression("sin(x1)*x2", CHART)
    assert parse_expression("sin(x1)*x2", CHART) is f
    # operands of commutative operations keep their order
    assert x * y is not y * x


def test_charts_with_equal_names_share_no_node():
    c1 = Chart(("x1", "x2"))
    c2 = Chart(("x1", "x2"))
    f1 = parse_expression("exp(x1)*x2 + 2", c1)
    f2 = parse_expression("exp(x1)*x2 + 2", c2)
    assert f1 is not f2
    assert c1.constant(2.0) is not c2.constant(2.0)
    assert c1.coordinate(0) is not c2.coordinate(0)
    ids1 = {id(n) for n in c1.nodes}
    assert not ids1 & {id(n) for n in c2.nodes}
    assert f1.value((0.1, 0.2)) == f2.value((0.1, 0.2))


def test_lifts_from_charts_with_equal_names_stay_apart():
    # the two operands have equal indices, each in its own chart; keyed
    # by index, the second lift returned the first and read 1.0 twice
    a, b = Chart(("x",)), Chart(("x",))
    xy = Chart(("x", "y"))
    fa, fb = 2 * a.coordinate(0), 3 * b.coordinate(0)
    assert fa.index == fb.index
    la, lb = xy.lift(fa), xy.lift(fb)
    assert la is not lb and la is xy.lift(fa)
    np.testing.assert_array_equal(evaluate([la, lb], [(0.5, 0.0)]),
                                  [[1.0], [1.5]])


def test_zero_constant_roots_evaluate_to_zero():
    # the zero constants are the one subclass of nodes (`is_zero`), and a
    # root is told from a plain float by `isinstance`
    chart = Chart(("x1", "x2"))
    x = chart.coordinate(0)
    pos, neg = chart.zero(), chart.constant(-0.0)
    assert pos.is_zero and neg.is_zero and not x.is_zero
    assert not chart.constant(1.0).is_zero
    values = evaluate([pos, neg, x, 0.0], [(0.25, 0.5), (0.75, 0.5)])
    np.testing.assert_array_equal(values, [[0.0, 0.0], [0.0, 0.0],
                                           [0.25, 0.75], [0.0, 0.0]])
    assert [math.copysign(1.0, row[0]) for row in values[:2]] == [1.0, -1.0]
    assert pos.value((0.1, 0.2)) == 0.0
    np.testing.assert_array_equal(pos.jet((0.1, 0.2), 2).coeffs, np.zeros(6))
    assert Request([(0.1, 0.2)], z=[pos]).result()["z"] == [[0.0]]


def test_fold_sum_with_a_zero_term_is_one_node():
    # a zero constant has the same n-ary sum as every field, so a list
    # that holds one is still one sum node, not a chain of partial sums
    chart = Chart(("x1", "x2"))
    x, y = chart.coordinate(0), chart.coordinate(1)
    z = x * y
    total = fold_sum([chart.zero(), x, y, z])
    assert total is chart.sum([x, y, z]) and total.a == (x, y, z)


def test_negative_zero_constant_keeps_its_sign():
    neg = CHART.constant(-0.0)
    pos = CHART.constant(0.0)
    assert neg is not pos
    assert math.copysign(1.0, neg.const_value()) == -1.0
    assert math.copysign(1.0, pos.const_value()) == 1.0
    assert math.copysign(1.0, neg.jet((0.1, 0.2), 1).value) == -1.0


def _chain(terms):
    """terms[0] + terms[1] + ..., one binary `+` at a time."""
    total = terms[0]
    for t in terms[1:]:
        total = total + t
    return total


def _check_deep_sum(nary):
    """A sum of 5000 terms, as one node or as a chain of binary sums,
    evaluated at a recursion limit of 1000."""
    def build():
        chart = Chart(("x1", "x2"))
        x, y = chart.coordinate(0), chart.coordinate(1)
        terms = [x * (y + float(k)) for k in range(5000)]
        return acc_sum(terms, chart.zero()) if nary else _chain(terms)

    total, fresh = build(), build()
    assert len(total.a) == (5000 if nary else 2)
    p = (0.3, -0.2)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        value = total.value(p)
        dx_value = total.partial(0).value(p)
        dx = total.partial(0).jet(p, 2)
        jet = fresh.jet(p, 2)
    finally:
        sys.setrecursionlimit(old)
    assert value == pytest.approx(sum(0.3 * (-0.2 + k) for k in range(5000)),
                                  rel=1e-12)
    assert dx.value == pytest.approx(sum(-0.2 + k for k in range(5000)),
                                     rel=1e-12)
    assert value == jet.value and dx_value == dx.value


def test_deep_sum_evaluates_without_recursion():
    # binary `+` builds a 5000-deep chain of sum nodes
    _check_deep_sum(nary=False)


def test_nary_sum_of_5000_terms_evaluates():
    _check_deep_sum(nary=True)


def _sum_terms(chart, count):
    """`count` terms on `chart`: a leading run of constants that folds to
    0.0, then a seeded mix of constants, 0.0, -0.0, a repeated term and
    fresh products."""
    x, y = chart.coordinate(0), chart.coordinate(1)
    rep = (x * y).exp()
    kinds = [lambda k: chart.constant(0.25 * k - 1.0),
             lambda k: chart.zero(), lambda k: chart.constant(-0.0),
             lambda k: rep, lambda k: (x + float(k)) * y,
             lambda k: (y * float(k)).apply("sin")]
    lead = [chart.constant(1.5), chart.constant(-1.5), chart.constant(-0.0)]
    picks = np.random.default_rng(count).integers(len(kinds), size=count)
    return (lead + [kinds[i](k) for k, i in enumerate(picks)])[:count]


@pytest.mark.parametrize("count", [3, 7, 40])
def test_nary_sum_keeps_the_bits_of_the_chain(count):
    pts = [(0.3, -0.2), (-0.45, 0.1), (0.0, -0.0)]

    def build(nary):
        # acc_sum against the binary chain it built before sums had one
        # node: `+` over the terms that are not structurally zero
        chart = Chart(("x1", "x2"))
        terms = _sum_terms(chart, count)
        total = (acc_sum(terms, chart.zero()) if nary
                 else _chain([t for t in terms if not t.is_zero]))
        return total, total.partial(0)

    nary, chain = build(True), build(False)
    if count > 3:
        assert nary[0].op == "sum" and len(nary[0].a) > 2
    np.testing.assert_array_equal(_bits(evaluate(nary, pts)),
                                  _bits(evaluate(chain, pts)))
    for k in range(4):
        for p in pts:
            want = build(False)[0].jet(p, k)
            got = build(True)[0].jet(p, k)
            np.testing.assert_array_equal(_bits(got.coeffs), _bits(want.coeffs))


def test_chart_sum_builds_what_the_fold_of_plus_builds():
    chart = Chart(("x1", "x2"))
    x, y = chart.coordinate(0), chart.coordinate(1)
    c = chart.constant
    cases = [[c(1.5), c(-1.5)], [c(1.5), c(-1.5), x], [c(0.0), c(-0.0)],
             [c(-0.0), c(0.0)], [x, c(0.0), c(-0.0)], [c(2.0), c(-0.0), c(3.0)],
             [c(0.0), x], [x], [], [x, 2.0]]
    for terms in cases:
        want = _chain(terms) if terms else chart.zero()
        assert chart.sum(terms) is want, terms
    # a leading constant run folds; a later constant stays a term
    total = chart.sum([c(1.0), c(2.0), x, c(3.0), c(0.0), x])
    assert total.op == "sum" and total.a == (c(3.0), x, c(3.0), x)
    assert x + y is chart.sum([x, y]) and x + y is not y + x
    with pytest.raises(ValueError, match="different charts"):
        chart.sum([x, Chart(("y1", "y2")).coordinate(0)])


def test_value_is_a_python_float():
    chart = Chart(("x1", "x2"))
    f = parse_expression("x1*exp(x2) + x1", chart)
    p = (np.float64(0.25), np.float64(-0.5))
    v = f.value(p)
    assert type(v) is float
    assert type(chart.coordinate(0).value(p)) is float
    assert type(f.partial(1).value(p)) is float
    assert v == parse_expression("x1*exp(x2) + x1", ("x1", "x2")).jet(p, 2).value
    assert f.jet(p, 0).degree == 0 and f.jet(p, 0).value == v


@pytest.mark.parametrize("text", ["log(x1 - 1)", "sqrt(x1 - x2 - 2)",
                                  "x2/(x1 - 0.5)", "(x1 - 0.5)^-2",
                                  "exp(x2)*log(x1 - 0.5)"])
def test_value_raises_like_jet(text):
    p = (0.5, 0.25)
    with pytest.raises(JetDivisionError) as by_jet:
        parse_expression(text, ("x1", "x2")).jet(p, 1)
    with pytest.raises(JetDivisionError) as by_value:
        parse_expression(text, ("x1", "x2")).value(p)
    assert str(by_value.value) == str(by_jet.value)


def test_constant_fold_rejects_log_and_sqrt_domain():
    with pytest.raises(JetDivisionError, match="sqrt of non-positive"):
        parse_expression("1 + sqrt(-1)", ("x1", "x2"))
    with pytest.raises(JetDivisionError, match="log of non-positive"):
        parse_expression("1 + 0*log(0)", ("x1", "x2"))
    assert parse_expression("sqrt(4)", ("x1", "x2")).const_value() == 2.0


def test_negative_zero_sign_matches_jet():
    # -x1 is -0.0 at x1 = 0; the jet product accumulates into +0.0, and
    # the composition of sin or sinh adds +0.0 to the constant term
    p = (0.0, 0.3)
    chart = Chart(("x1", "x2"))
    neg = -chart.coordinate(0)
    assert math.copysign(1.0, neg.value(p)) == -1.0
    for text in ("(-x1)*(x2 + 2)", "sin(-x1)", "sinh(-x1)"):
        value = parse_expression(text, ("x1", "x2")).value(p)
        jet = parse_expression(text, ("x1", "x2")).jet(p, 1)
        assert math.copysign(1.0, value) == math.copysign(1.0, jet.value) == 1.0


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64)


def test_evaluate_rows_do_not_depend_on_root_order():
    def roots():
        f = parse_expression("exp(x1)*sin(x2) + x1^3/(2 + x2)", ("x1", "x2"))
        return [f, f.partial(0), f * f, f.partial(1).partial(0), -f]

    pts = [(0.1, -0.3), (0.0, 0.2), (-0.25, 0.45)]
    ref = evaluate(roots(), pts)
    assert [len(row) for row in ref] == [3] * 5
    reverse = evaluate(roots()[::-1], pts)[::-1]
    twice = roots()
    doubled = evaluate(twice + twice[::-1], pts)
    np.testing.assert_array_equal(_bits(reverse), _bits(ref))
    np.testing.assert_array_equal(_bits(doubled[:5]), _bits(ref))
    np.testing.assert_array_equal(_bits(doubled[5:][::-1]), _bits(ref))


def test_evaluate_takes_floats_constants_and_lifted_roots():
    base = Chart(("x1", "x2"))
    f = parse_expression("exp(x1)*x2", base)
    xr = Chart(("x1", "x2", "r"))
    r = xr.coordinate(2)
    pts = [(0.1, 0.2, 0.3), (-0.2, 0.4, 0.1)]
    fv = [f.value(p[:2]) for p in pts]
    assert base.evaluations == 2  # value() is one evaluate call
    rows = evaluate([2.5, -0.0, xr.constant(-0.0), xr.constant(3.0),
                     xr.lift(f) * r, xr.lift(f)], pts)
    want = [[2.5] * 2, [-0.0] * 2, [-0.0] * 2, [3.0] * 2,
            [v * p[2] for v, p in zip(fv, pts)], fv]
    np.testing.assert_array_equal(_bits(rows), _bits(want))
    # the call is counted on the chart its roots live on, not on the
    # chart a lift reads; plain floats belong to no chart
    assert xr.evaluations == 1 and base.evaluations == 2
    assert evaluate([1, 1.0], pts) == [[1.0, 1.0], [1.0, 1.0]]
    assert type(evaluate([1], pts)[0][0]) is float
    assert evaluate([], pts) == []
    with pytest.raises(ValueError, match="point has 2 entries"):
        evaluate([r], [(0.1, 0.2)])


def test_request_splits_groups_of_one_call():
    chart = Chart(("x1", "x2"))
    x, y = chart.coordinate(0), chart.coordinate(1)
    g = SymTensor2Field(chart, {(0, 0): x + 1.0, (0, 1): x * y, (1, 1): y})
    pts = [(0.5, 0.25), (-0.5, 2.0)]
    v = Request(pts, g=g.entries(), f=[x * y * y]).result()
    assert chart.evaluations == 1
    for n, p in enumerate(pts):
        assert [v["g"][n][:2], v["g"][n][2:]] == g.matrix_values(p)
        assert v["f"][n] == [p[0] * p[1] * p[1]]


def test_request_group_is_a_list_of_per_point_rows():
    chart = Chart(("x1", "x2"))
    x, y = chart.coordinate(0), chart.coordinate(1)
    pts = [(0.5, 0.25), (-0.5, 2.0), (0.125, -1.0)]
    seen = {}
    Request(pts, seen.update, a=[x, 2.0], b=[y, x * y, -1.0], c=[]).result()
    assert seen["a"] == [[p[0], 2.0] for p in pts]
    assert seen["b"] == [[p[1], p[0] * p[1], -1.0] for p in pts]
    # an empty group still has one (empty) row per point
    assert seen["c"] == [[], [], []]
    assert {type(row) for rows in seen.values() for row in rows} == {list}


def test_request_nested_result_reaches_the_outer_reduction():
    chart = Chart(("x1", "x2"))
    x, y = chart.coordinate(0), chart.coordinate(1)
    pts = [(0.5, 0.25), (-0.5, 2.0)]
    inner = Request(pts, lambda v: v["s"][0][0] + v["s"][0][1]
                    + v["s"][1][0] + v["s"][1][1], s=[x, y])
    outer = Request(pts, lambda v: (v["inner"], [t for (t,) in v["t"]]),
                    inner=inner, t=[x * y])
    assert outer.roots == [x, y, x * y]
    assert outer.result() == (0.5 + 0.25 - 0.5 + 2.0, [0.125, -1.0])
    assert chart.evaluations == 1
    with pytest.raises(ValueError, match="other points"):
        Request(pts[:1], inner=inner)


def test_run_returns_unreduced_values():
    chart = Chart(("x1", "x2"))
    x, y = chart.coordinate(0), chart.coordinate(1)
    pts = [(0.5, 0.25), (-0.5, 2.0)]
    inner = Request(pts, lambda v: 1 / 0, s=[y])
    first = Request(pts, lambda v: 1 / 0, a=[x, 3.0], inner=inner)
    second = Request(pts[:1], lambda v: 1 / 0, b=[x * y])
    values = run([first, second])
    np.testing.assert_array_equal(values[0], [[0.5, -0.5], [3.0, 3.0],
                                              [0.25, 2.0]])
    np.testing.assert_array_equal(values[1], [[0.125]])
    assert chart.evaluations == 1


@pytest.mark.parametrize("text", ["log(x1 - 1)", "sqrt(x1 - x2 - 2)",
                                  "x2/(x1 - 0.5)", "(x1 - 0.5)^-2",
                                  "exp(x2)*log(x1 - 0.5)"])
def test_evaluate_raises_like_value(text):
    p = (0.5, 0.25)
    with pytest.raises(JetDivisionError) as by_value:
        parse_expression(text, ("x1", "x2")).value(p)
    with pytest.raises(JetDivisionError) as by_evaluate:
        evaluate([parse_expression(text, ("x1", "x2"))], [p, (0.3, 0.1)])
    assert type(by_evaluate.value) is type(by_value.value)
    assert str(by_evaluate.value) == str(by_value.value)


# calls that evaluate one field at one point; outside `fields` (the batch
# entry and its thin wrappers) and `jets` every evaluation goes through
# `fields.evaluate`
POINT_CALLS = re.compile(
    r"\.value\(|\.jet\(|matrix_values\(|\.values\(\s*[^)\s]")


def test_point_by_point_evaluation_stays_in_fields():
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "smmsgeom"
    found = [f"{path.name}:{n}: {line.strip()}"
             for path in sorted(src.glob("*.py"))
             if path.name not in ("fields.py", "jets.py")
             for n, line in enumerate(path.read_text().splitlines(), 1)
             if POINT_CALLS.search(line)]
    assert found == []
    # the pattern does find each kind of call, and not dict .values()
    for line in ("f.value(p)", "f.jet(p, 2)", "g.matrix_values(p)",
                 "w.weyl.values(p)"):
        assert POINT_CALLS.search(line), line
    assert not POINT_CALLS.search("for x in d.values():")


def reference(node, point, degree, memo=None):
    """A plain recursive evaluation of `node` at (point, degree), kept
    apart from the engine: a float at degree 0 (through the float
    kernels), otherwise a Jet.  It reads and writes nothing on the chart;
    `memo` only shares the subexpressions of one call."""
    memo = {} if memo is None else memo
    key = (node, degree)
    if key in memo:
        return memo[key]
    op, a, b, param, n = node.op, node.a, node.b, node.param, node.chart.dim
    if op == "const":
        out = Jet.constant(param, n, degree) if degree else param
    elif op == "coord":
        out = (Jet.variable(point[param], param, n, degree) if degree
               else float(point[param]))
    elif op == "partial":
        out = reference(a, point, degree + 1, memo).partial(param)
        out = out if degree else out.value
    elif op == "lift":
        out = reference(a, point[:param], degree, memo)
        out = out.promote(n - param) if degree else out
    elif op == "sum":
        # the terms of a sum node, added left to right
        out = reference(a[0], point, degree, memo)
        for term in a[1:]:
            out = out + reference(term, point, degree, memo)
    else:
        x = reference(a, point, degree, memo)
        y = None if b is None else reference(b, point, degree, memo)
        if op == "mul":
            out = x * y if degree else 0.0 + x * y
        elif op == "scale":
            out = x * param
        elif op == "div":
            out = x / y if degree else value_quotient(x, y)
        elif op == "pow":
            out = x ** param if degree else value_power(x, param)
        else:
            out = getattr(x, param)() if degree else value_apply(param, x)
    memo[key] = out
    return out


def test_children_are_created_before_their_parents():
    base = Chart(("x1", "x2"))
    f = parse_expression("exp(x1)*sin(x2) + x1^3/(2 + x2)", base)
    xr = Chart(("x1", "x2", "r"))
    r = xr.coordinate(2)
    g = (xr.lift(f.partial(0)) * r + xr.lift(f)).partial(2).partial(0) / r
    for chart in (base, xr):
        assert [node.index for node in chart.nodes] == list(range(chart.node_count))
        for node in chart.nodes:
            children = node.a if node.op == "sum" else (node.a, node.b)
            for child in children:
                if child is None:
                    continue
                if node.op == "lift":
                    assert child.chart is base and node.chart is xr
                else:
                    assert child.chart is chart
                    assert child.index < node.index, (node.op, child.op)
    assert xr.nodes[g.index] is g


def test_lifting_needs_a_longer_chart():
    base = Chart(("x1", "x2"))
    f = parse_expression("exp(x1)*x2", base)
    for target in (base, Chart(("x1", "x2")), Chart(("x1",))):
        with pytest.raises(ValueError, match="must extend"):
            target.lift(f)


def _live_jets():
    gc.collect()
    return sum(type(o) is Jet for o in gc.get_objects())


def test_lifted_root_and_its_base_subtree_in_one_call():
    base = Chart(("x1", "x2"))
    f = parse_expression("exp(x1)*sin(x2) + x1*x2^2", base)
    xr = Chart(("x1", "x2", "r"))
    r = xr.coordinate(2)
    # the partial along x1 needs the lifted field's jet, so the call
    # hands degree 1 down to the base chart
    roots = [xr.lift(f) * r, (xr.lift(f) * r).partial(0), xr.lift(f.partial(1))]
    pts = [(0.1, 0.2, 0.3), (-0.2, 0.4, 0.1)]
    held = _live_jets()
    rows = evaluate(roots, pts)
    for row, root in zip(rows, roots):
        want = [reference(root, p, 0) for p in pts]
        np.testing.assert_array_equal(_bits(row), _bits(want))
    # the base subtree was computed in that call, once per point, and
    # no jet of it is held afterwards
    assert base.evaluations == 0 and base.recomputed == 0
    assert base.max_degree == 1 and base.unread == 0
    done = base.computed
    assert done == 2 * base.node_count
    assert _live_jets() == held
    # a later call at the same points computes its nodes again
    evaluate([f, f.partial(1)], [p[:2] for p in pts])
    assert base.computed - done == base.recomputed > 0
    assert _live_jets() == held


def test_one_call_computes_each_node_at_most_once():
    chart = Chart(("x1", "x2"))
    f = parse_expression("exp(x1*x2)*sin(x2) + log(2 + x1)*x2^3", chart)
    roots = [f, f.partial(0), f.partial(0).partial(1), f.partial(1) * f,
             f.partial(1).partial(1).partial(0)]
    pts = [(0.1, 0.2), (0.3, -0.1), (0.1, 0.2)]
    held = _live_jets()
    evaluate(roots, pts[:2])
    assert chart.recomputed == 0
    assert chart.computed == 2 * (chart.node_count - chart.unread)
    assert chart.max_degree == 3
    assert _live_jets() == held
    # a repeated call computes the same count again, every one of them
    # a recomputation
    done = chart.computed
    evaluate(roots, pts[:2])
    assert chart.computed == 2 * done == done + chart.recomputed
    # a point repeated within one call is computed at each occurrence
    evaluate(roots, pts)
    assert chart.computed == 2 * done + done // 2 * 3
    # a jet runs the same sweep and is the only jet it leaves
    jet = roots[0].jet(pts[0], 4)
    assert chart.max_degree == 4
    assert _live_jets() == held + 1
    np.testing.assert_array_equal(jet.coeffs, reference(f, pts[0], 4).coeffs)


def test_a_sealed_chart_builds_nothing_but_still_evaluates():
    chart = Chart(("x1", "x2"))
    f = parse_expression("exp(x1)*x2", chart)
    g = parse_expression("sin(x2)", chart)
    h = parse_expression("cos(x1)", Chart(("x1",)))
    root = chart.lift(h) * f
    pts = [(0.1, 0.2), (-0.3, 0.4)]
    want = evaluate([root, f, g], pts)
    chart.seal()
    builds = [lambda: f * g, lambda: f + g, lambda: f.partial(0),
              lambda: chart.constant(2.0), lambda: chart.coordinate(1),
              lambda: chart.lift(h), lambda: f * 3.0]
    for build in builds:
        with pytest.raises(RuntimeError,
                           match=re.escape(f"{chart!r} is sealed")):
            build()
    count = chart.node_count
    assert evaluate([root, f, g], pts) == want
    assert chart.node_count == count and chart.unread == 0
    assert chart.evaluations == 2 and chart.computed == 2 * 2 * count


@pytest.mark.parametrize("cutter", ["product", "sum"])
def test_a_jet_is_cut_to_what_its_later_readers_read(cutter, monkeypatch):
    # u is read at degree 4 by an early reader (u*u, or a sum with u
    # twice), then at degree 1 by a sum with a repeated term and by a
    # product: between them u is held at degree 1 only
    chart = Chart(("x1", "x2"))
    x1, x2 = chart.coordinate(0), chart.coordinate(1)
    u = parse_expression("exp(x1)*sin(x2)", chart)
    early = u * u if cutter == "product" else chart.sum([u, x2, u])
    roots = [early.partial(0).partial(1).partial(0).partial(1),
             chart.sum([x1, u, u]).partial(0), (u * x2).partial(1)]
    pts = [(0.1, 0.2), (-0.3, 0.4)]
    alone = [evaluate([root], pts)[0] for root in roots]
    from smmsgeom import fields
    add_terms, held = fields._add_terms, []

    def recorded(xs, deg):
        held.append((deg, [x.degree if isinstance(x, Jet) else 0
                           for x in xs]))
        return add_terms(xs, deg)

    monkeypatch.setattr(fields, "_add_terms", recorded)
    together = evaluate(roots, pts)
    np.testing.assert_array_equal(_bits(together), _bits(alone))
    assert chart.max_degree == 4
    # the later sum reads u and x1, each held at degree 1 once cut
    assert [d for deg, degrees in held if deg == 1 for d in degrees] == [1] * 6


def test_max_abs_over_per_point_rows():
    rows = [[0.5, -2.0], [1.0, -0.0], [-3.0, 0.25]]
    assert max_abs(rows) == 3.0
    assert max_abs([-0.5, 0.25]) == 0.5
    # no values, or only empty rows, give 0.0
    assert max_abs([]) == 0.0
    assert max_abs([[], []]) == 0.0
    assert max_abs([[-0.0]]) == 0.0


@pytest.mark.parametrize("where", [(0, 0), (0, 1), (1, 1), (2, 0), (2, 1)])
def test_max_abs_is_nan_if_any_value_is(where):
    # wherever the NaN sits: first, after a larger value, or last
    rows = [[0.5, -2.0], [1.0, 4.0], [-3.0, 0.25]]
    rows[where[0]][where[1]] = math.nan
    assert math.isnan(max_abs(rows))
    assert math.isnan(max_abs([row[where[1]] for row in rows]))
    assert math.isnan(max_abs([[[x] for x in row] for row in rows]))


def test_a_nan_check_value_fails_its_check():
    report = Report("test")
    assert report.put_check("residual", max_abs([[1e-12, math.nan]]),
                            1.0) is False
    assert report.entries["check.residual.ok"] is False
    assert report.failures == ["residual"] and not report.ok
