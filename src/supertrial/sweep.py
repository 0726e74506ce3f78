"""The identity-sweep engine: each side of an identity is a term over the
slots of a basis tuple, planned once and evaluated on every tuple.

``_Plan`` makes each distinct subterm one step, its operators taken by
value: equal products (often left = right = perp) and equal maps are
evaluated once, an identity map not at all.  ``_evaluate`` tables each
step that reads fewer slots than the arity as a sparse integer vector, and
computes each step that reads every slot per tuple as one packed integer
whose lanes are wide enough to compare whole and exactly.  ``_sweep``
compares the sides of each row and builds a violation's Fractions once
per distinct side value, one tuple each; ``_tabulate`` unpacks term
values for the constructions and the center.
The operators are ``core.StructureTensor`` products and ``linalg.Matrix``
maps, read as integers over one denominator each.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from .linalg import Matrix, Vector


def _support(v: Sequence) -> list[tuple[int, object]]:
    """The (coordinate, value) pairs of the nonzero entries of v, in order."""
    return [(k, a) for k, a in enumerate(v) if a]


def _bilinear_into(out: list, index: Sequence[Sequence[Sequence[tuple]]], xs: Iterable, ys: Iterable) -> list:
    """out[k] += c * a * b for each (i, a) of xs, (j, b) of ys and (k, c) of
    index[i][j], with xs and ys given by their supports; returns out."""
    for i, a in xs:
        cells = index[i]
        for j, b in ys:
            s = a * b
            for k, c in cells[j]:
                out[k] += c * s
    return out


class Violation(NamedTuple):
    """One failed identity instance with its replayable evaluation; a named
    tuple, so it is built in C and sorted on its first two fields."""

    axiom_id: str
    indices: tuple[int, ...]
    lhs: Vector
    rhs: Vector


@dataclass(frozen=True)
class CheckReport:
    """Outcome of an axiom sweep; empty violation list means success."""

    violations: tuple[Violation, ...] = ()

    @classmethod
    def collect(cls, violations: Iterable[Violation]) -> "CheckReport":
        ordered = sorted(violations, key=operator.itemgetter(0, 1))
        return cls(tuple(ordered))

    @property
    def passed(self) -> bool:
        return not self.violations

    def merge(self, other: "CheckReport") -> "CheckReport":
        return CheckReport.collect(self.violations + other.violations)


# An identity side is a term over the slots of a basis tuple: a slot number
# k (the basis vector at position k of the tuple), (product, a, b),
# (map, a), ("+", a, b, ...) or ("*", c, a) for a rational scale c.
_Term = Union[int, tuple]
_Row = tuple[str, _Term, _Term]
_Ops = dict[str, Union["StructureTensor", Matrix]]


def _distinct(ops: Sequence) -> list:
    """The operators in order, each value (equal constants or entries) once."""
    return [op for i, op in enumerate(ops) if op not in ops[:i]]


# The sparse scalar 1: a map is a product whose second argument is 1.
_SCALAR_ONE = ((0, 1),)


def _integral(op: "StructureTensor" | Matrix) -> tuple[int, int, tuple, int, int]:
    """``(d, dim, index, top, row)``: the operator's constants as integers
    over one denominator d, the dimension of its values, the constants
    indexed by argument pair as in ``StructureTensor.by_pair``, the largest
    |constant| and the largest sum over k of |c(i, j, k)|.  A map is a
    product with the scalar 1: m[i][j] is the constant c(j, 0, i)."""
    if isinstance(op, Matrix):
        d, nums = op.integral
        dim, index = op.rows, tuple((tuple((i, v) for i, v in enumerate(nums[j :: op.cols]) if v),) for j in range(op.cols))
    else:
        (d, index), dim = op.by_pair, op.dim
    cells = [cell for line in index for cell in line]
    top = max([abs(c) for cell in cells for _, c in cell], default=0)
    return d, dim, index, top, max([sum(abs(c) for _, c in cell) for cell in cells])


def _unpack(value: int, shift: int) -> list:
    """The sparse vector packed in value: coordinate k is the signed lane of
    ``shift`` bits at bit ``shift * k``."""
    out, k, mask, half = [], 0, (1 << shift) - 1, 1 << shift - 1
    while value:
        lane = value & mask
        if lane:
            lane -= (lane >= half) << shift
            out.append((k, lane))
        value, k = value - lane >> shift, k + 1
    return out


class _Plan:
    """The steps of a sweep: each distinct subterm of its rows once, after its
    arguments, keyed by its resolved head, scale and argument positions.  A
    name stands for the first equal operator (``_distinct``), whose
    ``_integral`` is built once, and a square identity map is no step.

    Positions below the arity are the slots, each ranging over the n unit
    vectors; every later position is a step ``(head, data, args)`` on the
    values at the positions ``args``.  Per position, ``dens`` holds the
    denominator of its integer value (a product's is the operator's times
    its arguments', a sum's the lcm of its addends'), ``dims`` its length,
    ``reads`` the sorted slots it depends on and ``bounds`` bounds on its
    largest |entry| and on the sum of its |entries|.  A step that reads
    every slot has one packed int for its value (``ints``), any other a
    sparse list of (coordinate, entry) pairs.  A sum adds packed ints and a
    product reads sparse lists: a ``"pack"`` or ``"unpack"`` step converts
    an argument read in the other form.  ``shift`` is the lane width of the
    last ``_evaluate``.  ``place`` recurses through the bound method, so a
    plan holds no reference to itself and is freed as soon as the sweep
    drops it.
    """

    def __init__(self, n: int, ops: _Ops, arity: int) -> None:
        self.n, self.arity, self.shift = n, arity, 1
        reps = _distinct(list(ops.values()))
        self.head = {name: None if isinstance(op, Matrix) and op.is_identity else reps.index(op) for name, op in ops.items()}
        # Each operator's ``_integral``, built on first use.
        self.integral = functools.cache(lambda head: _integral(reps[head]))
        self.position: dict[_Term, int] = {}
        self.step_at: dict[tuple, int] = {}
        self.dens, self.dims, self.bounds, self.ints = [1] * arity, [n] * arity, [(1, 1)] * arity, [False] * arity
        self.reads = [(s,) for s in range(arity)]
        self.steps: list[tuple] = []

    def place(self, term: _Term) -> int:
        """The position of a term's value, planning its steps on first sight."""
        if isinstance(term, int):
            if not 0 <= term < self.arity:
                raise ValueError(f"slot {term} is outside arity {self.arity}")
            return term
        if term not in self.position:
            head, *parts = term
            scale = parts.pop(0) if head == "*" else None
            args = tuple(self.place(a) for a in parts)
            head = self.head.get(head, head)
            key = (head, scale, args)
            if head is None or key in self.step_at:
                self.position[term] = args[0] if head is None else self.step_at[key]
                return self.position[term]
            dens, bounds = self.dens, self.bounds
            reads = tuple(sorted({s for a in args for s in self.reads[a]}))
            if head in ("+", "*"):
                # A scale by p/q is a sum of one addend, of weight p.
                den = math.lcm(*[dens[a] for a in args]) if scale is None else scale.denominator * dens[args[0]]
                data = [den // dens[a] for a in args] if scale is None else [scale.numerator]
                head, dim = "+", self.dims[args[0]]
                bound = tuple(sum(abs(w) * bounds[a][i] for w, a in zip(data, args)) for i in (0, 1))
            else:
                d, dim, _, top, row = self.integral(head)
                den, data = d * math.prod([dens[a] for a in args]), None
                size = math.prod([bounds[a][1] for a in args])
                bound = (top * size, row * size)
            args = tuple(self.convert(a, head == "+") for a in args)
            self.position[term] = self.add(key, (head, data, args), den, dim, reads, bound, len(reads) == self.arity)
        return self.position[term]

    def convert(self, p: int, packed: bool) -> int:
        """The position of p's value as a packed int, or as a sparse list."""
        if self.ints[p] == packed:
            return p
        key = ("pack" if packed else "unpack", None, (p,))
        if key not in self.step_at:
            self.add(key, key, self.dens[p], self.dims[p], self.reads[p], self.bounds[p], packed)
        return self.step_at[key]

    def add(self, key: tuple, step: tuple, *attributes: object) -> int:
        """Append a step and its position's attributes; its position, under key."""
        self.step_at[key] = len(self.dens)
        self.steps.append(step)
        for column, value in zip((self.dens, self.dims, self.reads, self.bounds, self.ints), attributes):
            column.append(value)
        return self.step_at[key]


def _step_fn(plan: _Plan, pos: int, lanes: dict) -> Callable[[list], object]:
    """The function of ``cur`` that computes the value at step position pos.
    A packed product is one multiply-add per pair of argument entries, with
    ``lanes[head][i][j]`` the packed e_i * e_j, built once per operator."""
    head, data, args = plan.steps[pos - plan.arity]
    x, y, dim, shift, two = args[0], args[-1], plan.dims[pos], plan.shift, len(args) == 2
    if head == "pack":
        return lambda v: sum([a << shift * k for k, a in v[x]])
    if head == "unpack":
        return lambda v: _unpack(v[x], shift)
    if head == "+":
        total = lambda v: sum([w * v[a] for w, a in zip(data, args)])
        return total if plan.ints[pos] else lambda v: _unpack(total(v), shift)
    index = plan.integral(head)[2]
    if not plan.ints[pos]:
        # A tabled product stays sparse: packing every step made check_bihom 8-15% slower.
        return lambda v: _support(_bilinear_into([0] * dim, index, v[x], v[y] if two else _SCALAR_ONE))
    if head not in lanes:
        lanes[head] = [[sum([c << shift * k for k, c in cell]) for cell in line] for line in index]
    packed = lanes[head]

    # Loops, not comprehensions: a comprehension is one more call per step.
    def product(v: list) -> int:
        out = 0
        for i, a in v[x]:
            row = packed[i]
            for j, b in v[y] if two else _SCALAR_ONE:
                out += row[j] * (a * b)
        return out

    return product


def _evaluate(plan: _Plan, wanted: Iterable[int], multiplier: int = 1) -> Iterator[tuple[tuple[int, ...], list]]:
    """Yield ``(tuple, cur)`` for each basis tuple of the plan's arity, in
    order, with ``cur[p]`` the value at each wanted position p.

    Only the steps a wanted position reads, directly or not, run.  A step
    that reads fewer slots than the arity is tabled first, once per
    assignment of its slots; a step that reads every slot is computed per
    tuple and never stored.  ``cur`` is one list, overwritten per tuple.

    A packed value is the int sum of v_k * 2^(W k), W = ``plan.shift``: one
    bit more than the largest entry bound of a position that runs, times the
    caller's ``multiplier``.  Every lane that is compared or unpacked then
    lies within +-2^(W-1), so two packed values are equal exactly when their
    vectors are: their lowest differing lanes differ by less than 2^W.
    """
    n, arity, reads, steps = plan.n, plan.arity, plan.reads, plan.steps
    need = set(wanted)
    for pos in range(len(reads) - 1, arity - 1, -1):
        if pos in need:
            need.update(steps[pos - arity][2])
    plan.shift = 1 + (max([plan.bounds[p][0] for p in need], default=0) * multiplier).bit_length()
    lanes: dict[int, list] = {}
    # A table is keyed by the slots it reads as an itemgetter picks them
    # from a tuple: an int for one slot, a tuple for more.
    keys = [operator.itemgetter(*r) for r in reads]
    units = {i: [(i, 1)] for i in range(n)}
    tables: dict[int, dict] = dict.fromkeys(range(arity), units)
    # ``cur`` holds the values a step reads, by position: while the tables
    # are built, one assignment's; then the current tuple's.
    cur: list = [None] * len(reads)
    streamed = []
    read = set(wanted)
    for pos, (_, _, args) in enumerate(steps, arity):
        if pos not in need:
            continue
        fn = _step_fn(plan, pos, lanes)
        if len(reads[pos]) == arity:
            streamed.append((pos, fn))
            read.update(args)
            continue
        table = tables[pos] = {}
        at = [0] * arity
        for assignment in itertools.product(range(n), repeat=len(reads[pos])):
            for s, i in zip(reads[pos], assignment):
                at[s] = i
            for a in args:
                cur[a] = tables[a][keys[a](at)]
            table[keys[pos](at)] = fn(cur)
    # Per tuple, each tabled value that a streamed step or the caller reads
    # is fetched once; the streamed steps then fill in the rest.
    fetch = [(p, tables[p], keys[p]) for p in sorted(read) if p in tables]
    for idx in itertools.product(range(n), repeat=arity):
        for p, t, k in fetch:
            cur[p] = t[k(idx)]
        for pos, fn in streamed:
            cur[pos] = fn(cur)
        yield idx, cur


def _sweep(n: int, arity: int, ops: _Ops, rows: Sequence[_Row]) -> CheckReport:
    """Report every basis tuple of the given arity on which the two sides of
    a row (axiom_id, lhs, rhs) differ.

    Two sides agree when lhs * D_rhs == rhs * D_lhs for their denominators
    D, one comparison of packed ints per tuple for all the rows with the
    same sides and multipliers.  A row whose sides land on one position is
    not compared, and the steps only such rows read do not run.  The sides
    of a violation are unpacked, and Fractions built, once per distinct side
    value: one shift serves the whole sweep, so a packed int, denominator and
    length give one vector, and equal sides are one tuple across tuples.
    """
    plan = _Plan(n, ops, arity)
    dens, dims = plan.dens, plan.dims
    groups: dict[tuple[int, int, int, int], list[str]] = {}
    for axiom_id, lhs, rhs in rows:
        l, r = plan.place(lhs), plan.place(rhs)
        if l != r:
            g = math.gcd(dens[l], dens[r])
            groups.setdefault((plan.convert(l, True), plan.convert(r, True), dens[r] // g, dens[l] // g), []).append(axiom_id)
    violations: list[Violation] = []
    sides: dict[tuple[int, int, int], Vector] = {}
    multiplier = max([m for group in groups for m in group[2:]], default=1)
    for idx, cur in _evaluate(plan, {p for group in groups for p in group[:2]}, multiplier):
        for (l, r, ml, mr), axiom_ids in groups.items():
            x, y = cur[l], cur[r]
            if x != y if ml == mr else x * ml != y * mr:
                lhs, rhs = (x, dens[l], dims[l]), (y, dens[r], dims[r])
                for key in (lhs, rhs):
                    if key not in sides:
                        side = [Fraction(0)] * key[2]
                        for k, v in _unpack(key[0], plan.shift):
                            side[k] = Fraction(v, key[1])
                        sides[key] = tuple(side)
                violations += [Violation(axiom_id, idx, sides[lhs], sides[rhs]) for axiom_id in axiom_ids]
    return CheckReport.collect(violations)


def _tabulate(n: int, arity: int, ops: _Ops, terms: Sequence[_Term]) -> list[tuple[int, dict]]:
    """Each term's value on every basis tuple of the given arity, as
    ``(d, values)`` per term: ``values[tuple]`` is the term's sparse integer
    value there over the denominator d.  The terms share one ``_Plan``, so
    equal subterms and equal operators are evaluated once; terms that land
    on one position share their ``values``."""
    plan = _Plan(n, ops, arity)
    at = [plan.place(term) for term in terms]
    values: dict[int, dict] = {p: {} for p in at}
    packed = {p for p in values if plan.ints[p]}
    for idx, cur in _evaluate(plan, values):
        for p, table in values.items():
            table[idx] = _unpack(cur[p], plan.shift) if p in packed else cur[p]
    return [(plan.dens[p], values[p]) for p in at]
