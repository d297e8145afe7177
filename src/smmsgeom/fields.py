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
coefficient lists into a new one, then each further one into it), so
every value and jet keeps the bits of the chain.  Construction then
interns the node (hash-consing): every chart owns one table per op (per
op and param for a unary op), keyed by what the node already holds, so
structurally equal nodes built on one chart are one object, evaluated
once per point.
Operands of commutative operations are never reordered, so every jet
product keeps its summation order.
The constants -0.0 and 0.0 are distinct nodes.

Values are read through one entry, `run(requests)`.  A
`Request(points, reduce, **groups)` names groups of root fields (or
plain floats) or nested requests at the same points, and a reduction of
their values by name; `run` sweeps every request in one pass over the
points and returns each one's values, unreduced, as (roots x points)
lists of floats, and `Request.finish` hands a reduction each group as
per-point rows.  Nothing here imports numpy.  `evaluate(roots, points)`
is those lists for one group, and `ScalarField.value`,
`SymTensor2Field.matrix_values` and `ScalarField.jet` (at a degree) run
the same sweep.  `sample_points` draws the points: it re-derives numpy's
PCG64 stream, the one `np.random.default_rng(seed).uniform` reads, in
plain integer arithmetic, so the points are numpy's bit for bit and no
command imports `numpy.random`.

Children are created before their parents, so a chart's creation order
(`Chart.nodes`, a node's `index`) is already a topological order and
serves as the evaluation tape; no traversal is needed to plan.  The
k-th step of a sweep evaluates every root of every request that has a
k-th point, in two passes over each (chart, point) that step reads.
The backward pass runs from the largest root index down and keeps, per
node, the highest degree a parent needs (a sum gives it to every term):
a `partial` needs its child one degree higher (so a jet even for a
value), and a `lift` passes its demand to the child chart at the
point's leading coordinates, which is planned after it (charts go in
descending dimension).  Readers are met in reverse creation order, so
the first reader the pass meets of a child is the last one to run: it
is recorded as the child's last reader.  A child demanded before the
pass (a root, or a node a lift of another plan reads) has none, and
its slot is held until the sweep returns.  A later reader that raises
a child's degree reads it higher than every reader after it, so it is
recorded as the child's cut, with the degree held before (the lowest
such reader is kept: the child's last reader at its full degree).  The
pass also counts the products it plans at each degree and hands the
counts to `jets.plan_products`, which decides from them which shapes
compile a generated product kernel.  The forward pass computes each
planned node once, in creation order, at its planned degree; a parent
planned lower reads a prefix (`Jet.truncated`) or the constant term.
Right after a node is computed, the slot of each child it was the last
reader of is emptied, and the jet of each child it was the cut of is
cut to the prefix its remaining readers read, so only one point's live
jets, each at the degree still to be read, are resident and nothing is
kept between calls.  The live set is fixed by the plan, not counted
down as the sweep runs (Griewank and Walther, *Evaluating
Derivatives*, ch. 13, applied to a jet's degree as well as to its
slot).  Neither pass recurses, so the depth of a DAG (a thousand nodes
for the generic ambient Ricci entries at d = 5) is limited only by
memory.

Each chart counts, over all calls, its node computations
(`Chart.computed`), those of a node at a point where an earlier call
had already computed it (`Chart.recomputed`), the highest degree
computed (`Chart.max_degree`) and the nodes computed at no point
(`Chart.unread`); one bytearray per point flags the nodes computed
there.  Values run the float kernels of `jets`, which give the constant
term of every jet bit for bit, so a value does not depend on the degree
its node was planned at, nor on which other roots share the sweep.

A chart is built, then evaluated: `Chart.seal()` drops its intern
tables, which nothing reads after the last build, and every build on
it afterwards raises.  `run` does not seal, so a chart can be built on
after it is evaluated until its owner seals it.

Concurrency contract: building a field appends to the node list and an
intern table of its chart, and evaluating one writes the chart's
counters.  None of it is locked, so build and evaluate the fields of one
chart from one thread at a time.
"""

from __future__ import annotations

import math
from itertools import compress, islice
from operator import add, index

from .jets import (FUNCTIONS, Jet, plan_products, value_apply, value_power,
                   value_quotient)

__all__ = [
    "Chart", "ScalarField", "Request", "run", "evaluate", "max_abs",
    "max_abs_difference",
    "sample_points", "SymTensor2Field", "FUNCTIONS",
]


class Chart:
    """A named coordinate chart, optionally with a sampling box.

    The chart owns the intern tables of the fields built on it, their
    list in creation order (`nodes`, indexed by `ScalarField.index`) and
    the evaluation counters of the module docstring.  A chart is equal
    only to itself: another with the same names keeps its own tables and
    rejects this one's fields.  `seal()` drops the tables once every
    field is built; a build on a sealed chart raises.
    """

    __slots__ = ("names", "dim", "box", "evaluations", "computed",
                 "recomputed", "max_degree", "nodes", "_tables", "_done")

    def __init__(self, names, box=None):
        self.names = tuple(names)
        self.dim = len(self.names)
        if box is not None:
            box = tuple((float(a), float(b)) for a, b in box)
            if len(box) != self.dim:
                raise ValueError("box must give one interval per coordinate")
        self.box = box
        self.evaluations = 0  # `run` calls with a root on this chart
        self.computed = 0     # node computations, in all calls
        self.recomputed = 0   # of those, at a (node, point) computed before
        self.max_degree = -1  # the highest degree computed (0: values only)
        self.nodes = []       # every node, in creation order
        # the intern tables: op or (op, param) -> key -> node; a constant's
        # param is its sign (-0.0 == 0.0 as a dict key), its key its value
        self._tables = {op: {} for op in ("sum", "mul", "div", "coord",
                                          ("const", 1.0), ("const", -1.0))}
        self._done = {}       # point -> bytearray, 1 by each node computed there

    def _node(self, op, a, b=None, param=None) -> "ScalarField":
        """The interned node of this chart that applies `op` (with
        `param`) to `a` and `b`.  Its key is made of objects the node
        holds already, in the table of its op, or of its op and param for
        a unary op: a sum's key is its term tuple, a product's or a
        quotient's the one int that packs both operand indices, a lift's
        its operand (whose index belongs to another chart) and any other
        unary node's its operand's index."""
        if b is not None:
            table, key = self._tables[op], a.index << 32 | b.index
        elif op == "sum":
            table, key = self._tables[op], a
        else:
            table = self._tables.get((op, param))
            if table is None:
                table = self._tables[(op, param)] = {}
            key = a if op == "lift" else a.index
        node = table.get(key)
        if node is None:
            node = table[key] = ScalarField(self, op, a, b, param)
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
        index means nothing in this chart's tape."""
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
    def unread(self) -> int:
        """The number of nodes computed at no point so far."""
        # every flag byte is 0 or 1, so or-ing the bytearrays as
        # little-endian integers ors them byte by byte, node i in byte i
        done = 0
        for flags in self._done.values():
            done |= int.from_bytes(flags, "little")
        return len(self.nodes) - done.to_bytes(len(self.nodes), "little").count(1)

    def coordinate(self, i: int) -> "ScalarField":
        if not 0 <= i < self.dim:
            raise IndexError(f"coordinate index {i} out of range")
        table = self._tables["coord"]
        node = table.get(i)
        if node is None:
            node = table[i] = ScalarField(self, "coord", None, None, i)
        return node

    def constant(self, value: float) -> "ScalarField":
        value = float(value)
        table = self._tables[("const", math.copysign(1.0, value))]
        node = table.get(value)
        if node is None:
            cls = _Zero if value == 0.0 else ScalarField
            node = table[value] = cls(self, "const", None, None, value)
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

    def seal(self) -> None:
        """Drop the intern tables: nothing can be built on this chart
        afterwards.  Its nodes, their evaluation and the counters are
        kept."""
        self._tables = _Sealed(self)

    def __repr__(self):
        return f"Chart{self.names}"


class _Sealed:
    """The intern tables of a sealed chart: every lookup, so every build,
    raises an error that names the chart."""

    __slots__ = ("chart",)

    def __init__(self, chart: Chart):
        self.chart = chart

    def __getitem__(self, key):
        raise RuntimeError(f"{self.chart} is sealed: no field can be built "
                           f"on it")

    get = __getitem__


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
    calling this class, so that the chart's intern tables see every node.
    A node's `index` is its position in the chart's creation order, so
    its children on the same chart have smaller indices.  `is_zero` is
    true only on a chart's constants 0.0 and -0.0, of the subclass
    `_Zero`; test for a field with `isinstance`.
    """

    __slots__ = ("chart", "op", "a", "b", "param", "index")
    is_zero = False

    def __init__(self, chart: Chart, op: str, a, b, param):
        self.chart = chart
        self.op = op
        self.a = a
        self.b = b
        self.param = param
        self.index = len(chart.nodes)
        chart.nodes.append(self)

    # -- evaluation -----------------------------------------------------

    def jet(self, point, degree: int) -> Jet:
        if degree == 0:
            return Jet.constant(self.value(point), self.chart.dim, 0)
        return _sweep([self], [_checked(point, self.chart)], degree)[0]

    def value(self, point) -> float:
        return evaluate([self], [point])[0][0]

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

    # -- differentiation ---------------------------------------------------

    def partial(self, axis: int) -> "ScalarField":
        if not 0 <= axis < self.chart.dim:
            raise IndexError(f"axis {axis} out of range for chart {self.chart}")
        if self.op == "const":
            return self.chart.constant(0.0)
        if self.op == "coord":
            return self.chart.constant(1.0 if axis == self.param else 0.0)
        return self._wrap("partial", axis)


class _Zero(ScalarField):
    """The constant 0.0 or -0.0 of a chart: a class of its own, so that
    `is_zero` is a class attribute and no node spends a slot on it."""

    __slots__ = ()
    is_zero = True


def _checked(point, chart: Chart) -> tuple:
    point = tuple(point)
    if len(point) != chart.dim:
        raise ValueError(f"point has {len(point)} entries for chart {chart}")
    return point


class Request:
    """Named groups of roots to evaluate at points, and the reduction of
    their values.

    A group is a list of roots (fields or plain floats) or a request at
    the same points.  `reduce` (None: the identity) receives by name a
    list's values as per-point rows, a list of len(points) lists of
    len(group) floats, or a nested request's result.  A request holds
    nothing else, so whatever its roots were built from can be dropped
    before it runs.
    """

    __slots__ = ("points", "reduce", "groups", "roots")

    def __init__(self, points, reduce=None, /, **groups):
        self.points = [tuple(p) for p in points]
        self.reduce = reduce
        self.groups = {}  # name -> a nested request, or a list's length
        self.roots = []
        for name, group in groups.items():
            nested = isinstance(group, Request)
            if nested and group.points != self.points:
                raise ValueError(f"group {name!r} is a request at other "
                                 f"points")
            roots = group.roots if nested else list(group)
            self.groups[name] = group if nested else len(roots)
            self.roots += roots
        for chart in {id(r.chart): r.chart for r in self.roots
                      if isinstance(r, ScalarField)}.values():
            for point in self.points:
                _checked(point, chart)

    def finish(self, values):
        """This request's result from the values `run` gives for it: one
        list per root of its groups, in order, of its value at each
        point."""
        v, start = {}, 0
        for name, group in self.groups.items():
            nested = isinstance(group, Request)
            stop = start + (len(group.roots) if nested else group)
            if nested:
                v[name] = group.finish(values[start:stop])
            elif stop > start:
                v[name] = list(map(list, zip(*values[start:stop])))
            else:
                v[name] = [[] for _ in self.points]
            start = stop
        return v if self.reduce is None else self.reduce(v)

    def result(self):
        """This request's result, from a sweep of it alone."""
        return self.finish(run([self])[0])


def run(requests) -> list:
    """The values of each request, from one sweep over their points: a
    list of len(roots) lists of len(points) floats, unreduced.

    Step k evaluates every root of each request that has a k-th point,
    so an evaluation error is raised at the first step where it occurs.
    Every chart that owns a root counts the call in `Chart.evaluations`.
    """
    requests = list(requests)
    out = [[[0.0] * len(q.points) for _ in q.roots] for q in requests]
    charts = {id(r.chart): r.chart for q in requests for r in q.roots
              if isinstance(r, ScalarField)}
    for chart in charts.values():
        chart.evaluations += 1
    for k in range(max((len(q.points) for q in requests), default=0)):
        roots, points, slots = [], [], []
        for q, vals in zip(requests, out):
            if k >= len(q.points):
                continue
            point = q.points[k]
            for r, root in enumerate(q.roots):
                if isinstance(root, ScalarField):
                    roots.append(root)
                    points.append(point)
                    slots.append(vals[r])
                else:
                    vals[r][k] = float(root)
        for row, value in zip(slots, _sweep(roots, points, 0)):
            row[k] = value.value if value.__class__ is Jet else value
    return out


def evaluate(roots, points) -> list:
    """The values of `roots` (fields or plain floats) at `points`, as a
    list of len(roots) lists of len(points) floats: one request."""
    return run([Request(points, roots=roots)])[0]


def max_abs(values) -> float:
    """max |v| over `values`, numbers or (nested) sequences of them such
    as per-point rows: 0.0 if there are none, NaN if any v is."""
    worst = 0.0
    for v in values:
        v = abs(v) if isinstance(v, (int, float)) else max_abs(v)
        if v > worst:
            worst = v
        elif v != v:
            return v
    return worst


def max_abs_difference(x, y) -> float:
    """max |a - b| over the paired entries of two groups' per-point rows
    of equal shape: 0.0 if there are none, NaN if any a - b is."""
    return max_abs([a - b for xr, yr in zip(x, y) for a, b in zip(xr, yr)])


class _Plan:
    """One chart at one point in a sweep step: by node index, the planned
    degree plus one (`need`, 0 for none; so a degree is below 255), the
    computed value or jet (`values`), the reader after which its slot is
    emptied (`last`, -1 for a slot held until the sweep returns) and its
    cut: the reader (`cut_at`) after which the jet is read at degree
    `cut` - 1 at most (`cut`, 0 for no cut).  A reader is stored as its
    own `index` object, so that no int is made per node; `frees` flags
    the readers that empty or cut a slot."""

    __slots__ = ("chart", "point", "need", "values", "last", "cut_at",
                 "cut", "frees", "top")

    def __init__(self, chart: Chart, point: tuple):
        size = len(chart.nodes)
        self.chart = chart
        self.point = point
        self.need = bytearray(size)
        self.values = [None] * size
        self.last = [-1] * size
        self.cut_at = [-1] * size
        self.cut = bytearray(size)
        self.frees = bytearray(size)
        self.top = -1   # the largest demanded index


def _sweep(roots, points, degree: int) -> list:
    """Each root at its point, at `degree` (a float at 0, else a Jet), by
    the two passes the module docstring describes.  Plans are made in
    descending chart dimension, so every lift is planned before the plan
    it reads, and run in the opposite order."""
    plans = {}  # (id(chart), point) -> _Plan
    pins = [(_demand(plans, root, point, degree), root.index)
            for root, point in zip(roots, points)]
    order = []
    todo = list(plans.values())
    while todo:
        plan = max(todo, key=lambda p: p.chart.dim)
        todo.remove(plan)
        known = len(plans)
        _plan(plan, plans)
        todo += list(plans.values())[known:]
        order.append(plan)
    for plan in reversed(order):
        _run(plan, plans)
    return [plan.values[i] for plan, i in pins]


def _demand(plans, node: ScalarField, point: tuple, degree: int) -> _Plan:
    """Plan `node` at `point` at `degree` at least, opening the plan of
    its chart there; returns the plan."""
    chart = node.chart
    plan = plans.get((id(chart), point))
    if plan is None:
        plan = plans[(id(chart), point)] = _Plan(chart, point)
    i = node.index
    if plan.need[i] <= degree:
        plan.need[i] = degree + 1
    if plan.top < i:
        plan.top = i
    return plan


def _plan(plan: _Plan, plans) -> None:
    """The backward pass of one plan: from its top index down, hand each
    planned node's degree to its operands.  The scan reads `need`
    lazily, so a demand a parent writes is seen when the scan reaches the
    child; nodes with none (0) are skipped without Python code per node.

    The first reader met of a child that has no demand yet is its last
    reader.  A reader met later that raises the child's degree reads it
    higher than every reader after it (roots and lifts from other plans,
    demanded before this pass, included): the lowest such reader is the
    child's last at its full degree, and the degree held before it was
    raised is all that the readers after it read.  So it is recorded as
    the child's cut."""
    need, nodes, last = plan.need, plan.chart.nodes, plan.last
    cut_at, cut, frees = plan.cut_at, plan.cut, plan.frees
    products = {}  # planned degree -> the products planned at it
    top = plan.top
    for i in compress(range(top, -1, -1),
                      islice(reversed(need), len(need) - 1 - top, None)):
        node = nodes[i]
        a = node.a
        if a is None:
            continue
        deg = need[i]  # plus one, as `need` holds it
        op = node.op
        if op == "lift":
            _demand(plans, a, plan.point[:node.param], deg - 1)
            continue
        operands = a
        if op != "sum":
            if op == "partial":
                deg += 1
            elif op == "mul" and deg > 1:
                products[deg - 1] = products.get(deg - 1, 0) + 1
            operands = (a,) if node.b is None else (a, node.b)
        reader = node.index
        for t in operands:
            j = t.index
            held = need[j]
            if not held:
                last[j] = reader
            elif held < deg:
                cut_at[j], cut[j] = reader, held
            else:
                continue
            need[j] = deg
            frees[i] = 1
    chart = plan.chart
    chart.max_degree = max(chart.max_degree, max(need, default=0) - 1)
    for deg, count in products.items():
        plan_products(chart.dim, deg, count)


def _run(plan: _Plan, plans) -> None:
    """The forward pass of one plan: every planned node up to `top`, in
    creation order.  Computing node i writes slot i; then, if node i
    frees, each operand's slot is emptied if i is its last reader, or its
    jet cut if i is its cut.  The jet is replaced, never shortened in
    place: one jet can sit in two slots.  Each op runs one kernel of
    `jets`, on a jet or, at degree 0, on the constant term: an `apply`
    node, for one, runs `Jet.apply(name)` or `value_apply(name, x)`."""
    chart, pt, need, values = plan.chart, plan.point, plan.need, plan.values
    last, cut_at, cut, frees = plan.last, plan.cut_at, plan.cut, plan.frees
    nodes = chart.nodes
    done = chart._done.get(pt)
    if done is None:
        done = chart._done[pt] = bytearray()
    if len(done) < len(nodes):
        done.extend(bytes(len(nodes) - len(done)))
    computed = recomputed = 0
    try:
        for i in compress(range(plan.top + 1), need):
            node = nodes[i]
            deg = need[i] - 1
            op = node.op
            a = node.a
            # a sum reads its terms below
            if a is not None and op != "sum":
                if op == "lift":
                    a = plans[(id(a.chart), pt[:node.param])].values[a.index]
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
                out = (a.apply(node.param) if deg
                       else value_apply(node.param, a))
            elif op == "lift":
                out = a.promote(chart.dim - node.param) if deg else a
            else:
                raise ValueError(f"unknown field operation {op!r}")
            values[i] = out
            if frees[i]:
                for t in node.a if op == "sum" else (node.a, node.b):
                    if t is None:
                        break
                    j = t.index
                    if last[j] == i:
                        values[j] = None
                    elif cut_at[j] == i:
                        values[j] = values[j].truncated(cut[j] - 1)
            if done[i]:
                recomputed += 1
            else:
                done[i] = 1
            computed += 1
    finally:
        chart.computed += computed
        chart.recomputed += recomputed


def _add_terms(xs, deg: int):
    """The sum of the values `xs` of a sum's terms at `deg`, added left
    to right: floats at degree 0; at a higher degree the first two
    coefficient lists (prefixes where a term is held higher) into a new
    jet, then each further one into it."""
    if not deg:
        xs = [x.value if x.__class__ is Jet else x for x in xs]
        out = xs[0] + xs[1]
        for x in xs[2:]:
            out += x
        return out
    xs = [x if x.degree == deg else x.truncated(deg) for x in xs]
    out = xs[0] + xs[1]
    acc = out.coeffs
    for x in xs[2:]:
        acc[:] = map(add, acc, x.coeffs)
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
        """The d x d matrix of values at `point`, as a list of rows."""
        d = self.chart.dim
        flat = [row[0] for row in evaluate(self.entries(), [point])]
        return [flat[i * d:(i + 1) * d] for i in range(d)]

    def scale(self, factor):
        return SymTensor2Field(self.chart, {
            k: f * factor for k, f in self.comps.items()})
