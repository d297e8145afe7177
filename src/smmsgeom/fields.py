"""Coordinate charts and lazily-evaluated scalar/tensor fields.

A ScalarField is one node of an expression DAG: an operation `op`, at
most two child fields `a` and `b`, and one parameter `param` (a
constant's value, a scale factor, an exponent, an axis, a primitive's
name).  A `sum` is the one exception: its `a` is the tuple of its terms,
two or more, and `b` is None.  A node stands for the pure evaluation
rule (point, degree) -> Jet, whose degree-0 case, the value, is computed
with plain floats.
Fields are closed under arithmetic, the analytic primitives and partial
differentiation.

Construction folds structural zeros and constants (sums drop zero
terms, products with a zero factor collapse, and so on), so the DAGs
built by the curvature machinery and the order-by-order solver carry no
dead branches.  `Chart.sum(terms)` builds the left fold of `+` over its
terms as one node, and `x + y` is its two-term case: no chain of
partial sums is built.  Evaluation adds the terms left to right, as the
chain would (floats at degree 0; at a higher degree the first two
coefficient arrays into a new one, then each further one in place), so
every value and jet keeps the bits of the chain.  Construction then
interns the node (hash-consing): every chart owns a table keyed on
(op, child objects, param), so structurally equal nodes built on one
chart are one object, evaluated once per point.
Operands of commutative operations are never reordered, so every jet
product keeps its summation order.
The constants -0.0 and 0.0 are distinct nodes.

Values are read through one entry, `evaluate(roots, points)`: a
(roots x points) array, computed one point at a time.  `ScalarField.value`
and `SymTensor2Field.matrix_values` are calls of it, and
`ScalarField.jet` runs the same sweep at a degree.  `sample_points`
draws the points: it re-derives numpy's PCG64 stream, the one
`np.random.default_rng(seed).uniform` reads, in plain integer
arithmetic, so the points are numpy's bit for bit and no command
imports `numpy.random`.

Children are created before their parents, so a chart's creation order
(`Chart.nodes`, a node's `index`) is already a topological order and
serves as the evaluation tape; no traversal is needed to plan.  A sweep
makes two passes per point.  The backward pass runs from the largest
root index down and keeps, per node, the highest degree a parent needs
(a sum gives it to every term): a `partial` needs its child one degree
higher (so a jet even for a value), and a `lift` passes its demand to
the child chart, which is planned after it (charts go in descending
dimension).  The forward pass
computes each needed node once, in creation order, at its planned
degree; a parent planned lower reads a prefix view (`Jet.truncated`) or
the constant term.  Neither pass recurses, so the depth of a DAG (a
thousand nodes for the generic ambient Ricci entries at d = 5) is
limited only by memory.

Each chart keeps one memo per point: two lists indexed by node, holding
the node's float (degree 0) or its jet of the highest degree computed so
far, and that degree.  A node the memo serves is neither planned nor
computed; one the memo holds at too low a degree is computed again
(`Chart.computed` and `Chart.recomputed` count both; `Chart.unread`
counts the nodes no memo holds, built but never read).  Values run the
float kernels of `jets`, which give the constant term of every jet bit
for bit, so a value does not depend on which request came first.

Concurrency contract: building a field appends to the node list and the
intern table of its chart, and evaluating one writes the chart's memos.
None of it is locked, so build and evaluate the fields of one chart from
one thread at a time.
"""

from __future__ import annotations

import math
from itertools import compress, islice
from operator import gt, index

import numpy as np

from .jets import Jet, value_apply, value_power, value_quotient

__all__ = [
    "Chart", "ScalarField", "evaluate", "evaluate_named", "max_abs",
    "sample_points", "SymTensor2Field", "FUNCTIONS",
]

# the analytic primitives a field applies, and an expression calls
FUNCTIONS = ("exp", "log", "sin", "cos", "sinh", "cosh", "sqrt")


class Chart:
    """A named coordinate chart, optionally with a sampling box.

    The chart owns the intern table of the fields built on it, their
    list in creation order (`nodes`, indexed by `ScalarField.index`) and
    their memos.  A chart is equal only to itself: another with the same
    names keeps its own table and rejects this one's fields.
    """

    __slots__ = ("names", "dim", "box", "evaluations", "computed",
                 "recomputed", "nodes", "_table", "_memos")

    def __init__(self, names, box=None):
        self.names = tuple(names)
        self.dim = len(self.names)
        if box is not None:
            box = tuple((float(a), float(b)) for a, b in box)
            if len(box) != self.dim:
                raise ValueError("box must give one interval per coordinate")
        self.box = box
        self.evaluations = 0  # `evaluate` calls with a root on this chart
        self.computed = 0     # node computations, in all calls
        self.recomputed = 0   # of those, the ones that replaced a memo entry
        self.nodes = []       # every node, in creation order
        self._table = {}      # (op, a, b, param) -> node
        self._memos = {}      # point -> (values, degrees) by node index

    def _node(self, op, a=None, b=None, param=None) -> "ScalarField":
        """The interned node (op, a, b, param) of this chart."""
        key = (op, a, b, param)
        node = self._table.get(key)
        if node is None:
            node = self._table[key] = ScalarField(self, op, a, b, param)
        return node

    def sum(self, terms) -> "ScalarField":
        """t0 + t1 + ... of `terms` (fields of this chart or numbers),
        built as the left fold of `+` builds it, but as one node: zero
        terms are skipped, a leading run of constants is folded (a folded
        0.0 is then dropped), and the terms left are one `sum` node.  An
        empty sum is 0.0."""
        head = None   # the fold so far, while it is one term
        tail = []     # the terms added to `head` since
        for t in terms:
            if t.__class__ is not ScalarField or t.chart is not self:
                field = self._coerce(t)
                if field is None:
                    raise TypeError(f"cannot add {type(t).__name__} to a field")
                t = field
            if head is None or not tail and head.is_zero:
                head = t
            elif t.is_zero:
                continue
            elif not tail and head.op == "const" and t.op == "const":
                head = self.constant(head.param + t.param)
            else:
                tail.append(t)
        if head is None:
            return self.zero()
        if not tail:
            return head
        return self._node("sum", (head, *tail))

    def _coerce(self, other):
        """`other` as a field of this chart: a field of this very chart as
        it is, a number as a constant; None for anything else.  A field of
        another chart is an error, even of one with the same names: its
        index means nothing in this chart's memos."""
        if isinstance(other, ScalarField):
            if other.chart is not self:
                raise ValueError("fields live on different charts")
            return other
        if isinstance(other, (int, float)):
            return self.constant(other)
        return None

    @property
    def node_count(self) -> int:
        """The number of nodes interned on this chart."""
        return len(self.nodes)

    @property
    def max_degree(self) -> int:
        """The highest jet degree any memo holds for any node (0 for
        values only, -1 when no node has been computed)."""
        return max((max(degrees, default=-1)
                    for _, degrees in self._memos.values()), default=-1)

    @property
    def unread(self) -> int:
        """The number of nodes computed at no point so far: those whose
        degree is -1 in every memo."""
        done = np.zeros(len(self.nodes), dtype=bool)
        for _, degrees in self._memos.values():
            done[:len(degrees)] |= np.asarray(degrees) >= 0
        return int(np.count_nonzero(~done))

    def _memo(self, point: tuple):
        """The memo lists of `point`, grown to the current node count;
        a degree of -1 marks a node not computed yet."""
        memo = self._memos.get(point)
        if memo is None:
            memo = self._memos[point] = ([], [])
        values, degrees = memo
        grow = len(self.nodes) - len(values)
        if grow:
            values.extend([None] * grow)
            degrees.extend([-1] * grow)
        return memo

    def coordinate(self, i: int) -> "ScalarField":
        if not 0 <= i < self.dim:
            raise IndexError(f"coordinate index {i} out of range")
        return self._node("coord", param=i)

    def coordinates(self):
        return [self.coordinate(i) for i in range(self.dim)]

    def constant(self, value: float) -> "ScalarField":
        value = float(value)
        # -0.0 == 0.0 as a dict key, so the sign is part of the key
        key = ("const", math.copysign(1.0, value), value)
        node = self._table.get(key)
        if node is None:
            node = self._table[key] = ScalarField(self, "const", None, None, value)
        return node

    def zero(self) -> "ScalarField":
        return self.constant(0.0)

    def lift(self, field: "ScalarField") -> "ScalarField":
        """`field` viewed on this chart, whose leading coordinates are
        those of the field's chart and which has at least one more."""
        k = field.chart.dim
        if k >= self.dim or self.names[:k] != field.chart.names:
            raise ValueError("lift target must extend the parent chart")
        c = field.const_value()
        if c is not None:
            return self.constant(c)
        return self._node("lift", field, param=k)

    def __repr__(self):
        return f"Chart{self.names}"


_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_state(seed: int):
    """(state, inc) of `np.random.PCG64(seed)`: numpy's `SeedSequence`
    hashes the seed's little-endian 32-bit words into a 4-word pool and
    emits four 64-bit words w0..w3, which seed PCG64 (O'Neill 2014)."""
    seed = index(seed)  # a Python int, so that no word product wraps
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _MASK32]
    while seed > _MASK32:
        seed >>= 32
        entropy.append(seed & _MASK32)
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16

    def mix(x, y):
        x = (0xCA01F9DD * x - 0x4973F715 * y) & _MASK32
        return x ^ x >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    const, out = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _MASK32
        value = value * const & _MASK32
        out.append(value ^ value >> 16)
    w0, w1, w2, w3 = (out[i] | out[i + 1] << 32 for i in range(0, 8, 2))
    inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
    return ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128, inc


def sample_points(chart: Chart, count: int, seed: int):
    """Seeded uniform sample from the chart's declared box: the points
    `np.random.default_rng(seed).uniform(lo, hi, size=(count, dim))`
    gives, bit for bit, drawn without importing `numpy.random`."""
    if chart.box is None:
        raise ValueError("chart has no sampling box declared")
    state, inc = _pcg64_state(seed)
    widths = [hi - lo for lo, hi in chart.box]
    if not all(map(math.isfinite, widths)):
        raise OverflowError("Range exceeds valid bounds")
    points = []
    for _ in range(count):
        point = []
        for (lo, _), width in zip(chart.box, widths):
            # one PCG64 step, its XSL-RR output, numpy's 53-bit double
            state = (state * _PCG_MULT + inc) & _MASK128
            x, rot = (state >> 64 ^ state) & _MASK64, state >> 122
            x = (x >> rot | x << (64 - rot)) & _MASK64
            point.append(lo + width * ((x >> 11) * 2.0 ** -53))
        points.append(tuple(point))
    return points


class ScalarField:
    """One interned DAG node: `op` applied to `a` and `b` (with `param`);
    a `sum` adds the terms of the tuple `a`.

    Build fields through a Chart and the operators below, never by
    calling this class, so that the chart's intern table sees every node.
    A node's `index` is its position in the chart's creation order, so
    its children on the same chart have smaller indices.
    """

    __slots__ = ("chart", "op", "a", "b", "param", "is_zero", "index")

    def __init__(self, chart: Chart, op: str, a, b, param):
        self.chart = chart
        self.op = op
        self.a = a
        self.b = b
        self.param = param
        self.is_zero = op == "const" and param == 0.0
        self.index = len(chart.nodes)
        chart.nodes.append(self)

    # -- evaluation -----------------------------------------------------

    def jet(self, point, degree: int) -> Jet:
        if degree == 0:
            return Jet.constant(self.value(point), self.chart.dim, 0)
        point = _checked(point, self.chart)
        _sweep([self], point, degree)
        return self.chart._memos[point][0][self.index].truncated(degree)

    def value(self, point) -> float:
        return float(evaluate([self], [point])[0, 0])

    # -- structure ------------------------------------------------------

    def const_value(self):
        """Constant value if this field is structurally constant, else None."""
        return self.param if self.op == "const" else None

    def _wrap(self, op, param) -> "ScalarField":
        return self.chart._node(op, self, param=param)

    # -- arithmetic with folding ----------------------------------------

    def _coerce(self, other):
        # the common case first: a field of this very chart
        if other.__class__ is ScalarField and other.chart is self.chart:
            return other
        return self.chart._coerce(other)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.chart.sum((self, other))

    __radd__ = __add__

    @staticmethod
    def sum_of(terms):
        """The n-ary `+` of fields: `Chart.sum` of their chart."""
        return terms[0].chart.sum(terms)

    def __neg__(self):
        c = self.const_value()
        if c is not None:
            return self.chart.constant(-c)
        return self._wrap("scale", -1.0)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if self.is_zero and isinstance(other, (int, float)):
            # absorbed before the number becomes a constant node
            return self.chart.constant(0.0)
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return self.chart.constant(0.0)
        if self.op == "const":
            a = self.param
            if other.op == "const":
                return self.chart.constant(a * other.param)
            return other if a == 1.0 else other._wrap("scale", a)
        if other.op == "const":
            b = other.param
            return self if b == 1.0 else self._wrap("scale", b)
        return self.chart._node("mul", self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        b = other.const_value()
        if b is not None:
            return self * (1.0 / b)
        if self.is_zero:
            return self
        return self.chart._node("div", self, other)

    def __rtruediv__(self, other):
        return self.chart.constant(other) / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            raise TypeError("field exponents must be integers")
        c = self.const_value()
        if c is not None:
            return self.chart.constant(c ** k)
        return self._wrap("pow", k)

    # -- analytic primitives ---------------------------------------------

    def apply(self, name: str) -> "ScalarField":
        if name not in FUNCTIONS:
            raise ValueError(f"unknown analytic primitive {name!r}")
        c = self.const_value()
        if c is not None:
            return self.chart.constant(value_apply(name, c))
        return self._wrap("apply", name)

    def exp(self):
        return self.apply("exp")

    # -- differentiation ---------------------------------------------------

    def partial(self, axis: int) -> "ScalarField":
        if not 0 <= axis < self.chart.dim:
            raise IndexError(f"axis {axis} out of range for chart {self.chart}")
        if self.op == "const":
            return self.chart.constant(0.0)
        if self.op == "coord":
            return self.chart.constant(1.0 if axis == self.param else 0.0)
        return self._wrap("partial", axis)


def _checked(point, chart: Chart) -> tuple:
    point = tuple(point)
    if len(point) != chart.dim:
        raise ValueError(f"point has {len(point)} entries for chart {chart}")
    return point


def evaluate(roots, points) -> np.ndarray:
    """The values of `roots` (fields or plain floats) at `points`, as a
    float64 array of shape (len(roots), len(points)).

    The points are swept in order, so an evaluation error is raised at
    the first point where it occurs.  Every chart that owns a root counts
    the call in `Chart.evaluations`.
    """
    roots = list(roots)
    nodes = [r for r in roots if r.__class__ is ScalarField]
    charts = list({id(n.chart): n.chart for n in nodes}.values())
    for chart in charts:
        chart.evaluations += 1
    out = np.empty((len(roots), len(points)))
    for k, point in enumerate(points):
        for chart in charts:
            point = _checked(point, chart)
        _sweep(nodes, point, 0)
        for r, root in enumerate(roots):
            if root.__class__ is ScalarField:
                root = root.chart._memos[point][0][root.index]
                if root.__class__ is Jet:
                    root = root.value
            out[r, k] = root
    return out


def evaluate_named(points, **groups) -> dict:
    """One `evaluate` over every group of roots, split back by name into
    (len(points), len(group)) arrays, each point's row C-contiguous."""
    rows = evaluate([r for group in groups.values() for r in group], points)
    cuts = np.cumsum([len(group) for group in groups.values()])[:-1]
    return dict(zip(groups, np.split(rows.T.copy(), cuts, axis=1)))


def max_abs(values) -> float:
    """max |v| over an array of values: 0.0 if it is empty, NaN if any v is."""
    return float(np.max(np.abs(values), initial=0.0))


def _sweep(roots, point: tuple, degree: int) -> None:
    """Compute each root at (point, degree) into the memo of its chart by
    the two passes the module docstring describes.  Charts are planned
    in descending dimension, so every lift is planned before the chart it
    reads, and run in the opposite order."""
    plans = {}  # id(chart) -> [chart, demand per node index, top index]
    for root in roots:
        _demand(plans, root, degree)
    runs = []
    while plans:
        chart, need, top = plans.pop(max(plans, key=lambda k: plans[k][0].dim))
        values, degrees = memo = chart._memo(point[:chart.dim])
        nodes = chart.nodes
        # the iterators skip, without Python code per node, every node
        # whose demand the memo meets (or that has none, -1); they read
        # both lists lazily, so a demand a parent writes is seen when the
        # scan reaches the child
        low = top + 1
        for i in compress(range(top, -1, -1), map(
                gt, islice(reversed(need), len(need) - 1 - top, None),
                islice(reversed(degrees), len(degrees) - 1 - top, None))):
            low = i
            deg = need[i]
            node = nodes[i]
            a = node.a
            if a is None:
                continue
            op = node.op
            if op == "sum":
                for t in a:
                    if need[t.index] < deg:
                        need[t.index] = deg
                continue
            if op == "partial":
                deg += 1
            elif op == "lift":
                _demand(plans, a, deg)
                continue
            if need[a.index] < deg:
                need[a.index] = deg
            b = node.b
            if b is not None and need[b.index] < deg:
                need[b.index] = deg
        runs.append((chart, need, low, top, memo))
    for chart, need, low, top, memo in reversed(runs):
        _run(chart, need, low, top, memo, point[:chart.dim])


def _demand(plans, node: ScalarField, degree: int) -> None:
    """Plan `node` at `degree` at least, opening its chart's plan."""
    chart = node.chart
    plan = plans.get(id(chart))
    if plan is None:
        plan = plans[id(chart)] = [chart, [-1] * len(chart.nodes), -1]
    if plan[1][node.index] < degree:
        plan[1][node.index] = degree
    if plan[2] < node.index:
        plan[2] = node.index


def _run(chart: Chart, need, low, top, memo, pt: tuple) -> None:
    """The forward pass of `_sweep` over one chart: every node of index
    `low`..`top` whose planned degree is above its memo's, in creation
    order.  Computing node i writes only slot i, so the planned set does
    not change while it is walked."""
    values, degrees = memo
    nodes = chart.nodes
    computed = recomputed = 0
    try:
        for i in compress(range(low, top + 1),
                          map(gt, islice(need, low, top + 1),
                              islice(degrees, low, top + 1))):
            node = nodes[i]
            deg = need[i]
            op = node.op
            a = node.a
            # a sum reads its terms in `_add_terms`
            if a is not None and op != "sum":
                if op == "lift":
                    a = a.chart._memos[pt[:node.param]][0][a.index]
                    cdeg = deg
                else:
                    a = values[a.index]
                    cdeg = deg + 1 if op == "partial" else deg
                b = node.b
                if b is not None:
                    b = values[b.index]
                if cdeg:
                    if a.degree != cdeg:
                        a = a.truncated(cdeg)
                    if b is not None and b.degree != cdeg:
                        b = b.truncated(cdeg)
                else:
                    if a.__class__ is Jet:
                        a = a.value
                    if b.__class__ is Jet:
                        b = b.value
            if op == "sum":
                out = _add_terms([values[t.index] for t in a], deg)
            elif op == "mul":
                out = a * b if deg else 0.0 + a * b
            elif op == "scale":
                out = a * node.param
            elif op == "partial":
                out = a.partial(node.param)
                if not deg:
                    out = out.value
            elif op == "div":
                out = a / b if deg else value_quotient(a, b)
            elif op == "const":
                out = (Jet.constant(node.param, chart.dim, deg) if deg
                       else node.param)
            elif op == "coord":
                out = (Jet.variable(pt[node.param], node.param, chart.dim, deg)
                       if deg else float(pt[node.param]))
            elif op == "pow":
                out = a ** node.param if deg else value_power(a, node.param)
            elif op == "apply":
                out = (getattr(a, node.param)() if deg
                       else value_apply(node.param, a))
            elif op == "lift":
                out = a.promote(chart.dim - node.param) if deg else a
            else:
                raise ValueError(f"unknown field operation {op!r}")
            if degrees[i] >= 0:
                recomputed += 1
            values[i] = out
            degrees[i] = deg
            computed += 1
    finally:
        chart.computed += computed
        chart.recomputed += recomputed


def _add_terms(xs, deg: int):
    """The sum of the memo entries `xs` of a sum's terms at `deg`, added
    left to right: floats at degree 0; at a higher degree the first two
    coefficient arrays (prefixes where an entry is held higher) into a
    new jet, then each further one in place."""
    if not deg:
        xs = [x.value if x.__class__ is Jet else x for x in xs]
        out = xs[0] + xs[1]
        for x in xs[2:]:
            out += x
        return out
    xs = [x if x.degree == deg else x.truncated(deg) for x in xs]
    out = xs[0] + xs[1]
    for x in xs[2:]:
        out.coeffs += x.coeffs
    return out


# ---------------------------------------------------------------------------
# Symmetric rank-2 tensor fields.  Tensors of higher rank (curvature,
# Weyl, Cotton) are nested lists of ScalarFields, as `curvature` builds
# them.
# ---------------------------------------------------------------------------


class SymTensor2Field:
    """Symmetric rank-2 tensor field; stores components with i <= j."""

    __slots__ = ("chart", "comps")

    def __init__(self, chart: Chart, comps):
        self.chart = chart
        self.comps = {}
        for (i, j), field in comps.items():
            key = (min(i, j), max(i, j))
            if key in self.comps and self.comps[key] is not field:
                raise ValueError(f"conflicting components for {key}")
            self.comps[key] = field
        d = chart.dim
        for i in range(d):
            for j in range(i, d):
                self.comps.setdefault((i, j), chart.zero())

    @classmethod
    def from_matrix(cls, chart, matrix):
        return cls(chart, {(i, j): matrix[i][j]
                           for i in range(chart.dim) for j in range(i, chart.dim)})

    @classmethod
    def zero(cls, chart):
        return cls(chart, {})

    def comp(self, i: int, j: int) -> ScalarField:
        return self.comps[(min(i, j), max(i, j))]

    def as_matrix(self):
        d = self.chart.dim
        return [[self.comp(i, j) for j in range(d)] for i in range(d)]

    def entries(self):
        """The d*d component fields in row-major order."""
        d = self.chart.dim
        return [self.comp(i, j) for i in range(d) for j in range(d)]

    def matrix_values(self, point):
        d = self.chart.dim
        return evaluate(self.entries(), [point]).reshape(d, d)

    def scale(self, factor):
        return SymTensor2Field(self.chart, {
            k: f * factor for k, f in self.comps.items()})
