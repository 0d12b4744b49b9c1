"""Strict orderings, ordering configurations, and point assignments.

An :class:`Ordering` is a strict partial order on a fixed label universe,
held as its full transitive set of pairs ``(e, f)`` meaning ``e < f``; a
chain (a linear order built from its label sequence) also keeps that
sequence.  ``Ordering(labels, pairs)`` validates the pair set in full;
``Ordering.chain`` and ``Ordering.from_pairs`` check their own input and
build a relation that needs no recheck.
A :class:`Configuration` bundles one ordering per axis over a common label
set with ``|axes| == |labels| - 1``.  A :class:`PointAssignment` gives an
exact rational coordinate to every ``(label, axis)`` pair; determinant
signs of assignments are computed exactly.

All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from operator import itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .signs import DetSign


class OrderingCycleError(ValueError):
    """Raised when ingested relation pairs contain a cycle."""


def _closure(labels: Sequence, pairs: Iterable[tuple]) -> frozenset:
    """Transitive closure of `pairs`; rejects reflexive pairs and cycles."""
    succ = {lab: set() for lab in labels}
    for e, f in pairs:
        if e not in succ or f not in succ:
            raise KeyError(f"unknown label in pair ({e!r}, {f!r})")
        if e == f:
            raise OrderingCycleError(f"reflexive pair ({e!r}, {e!r})")
        succ[e].add(f)
    # Small universes throughout; repeated sweeps are fine.
    changed = True
    while changed:
        changed = False
        for e in labels:
            add = set()
            for f in succ[e]:
                add |= succ[f] - succ[e]
            if add:
                succ[e] |= add
                changed = True
    closed = set()
    for e in labels:
        if e in succ[e]:
            raise OrderingCycleError(f"cycle through {e!r}")
        for f in succ[e]:
            closed.add((e, f))
    return frozenset(closed)


@dataclass(frozen=True)
class Ordering:
    """Strict partial order on a label universe, transitively closed.

    ``pairs`` holds every derived pair, not just covering relations, so
    comparability queries are O(1) set lookups.  The constructor checks
    that the labels are distinct and that ``pairs`` is a strict,
    transitively closed relation on them.  Equality, hash and repr read
    ``labels`` and ``pairs`` only.
    """

    labels: tuple
    pairs: frozenset
    # the increasing label sequence of a chain; not a field
    _sequence = None

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        above = {lab: set() for lab in self.labels}
        for e, f in self.pairs:
            if e not in above or f not in above:
                raise KeyError(f"pair ({e!r}, {f!r}) outside the label set")
            if e == f or (f, e) in self.pairs:
                raise OrderingCycleError(f"({e!r}, {f!r}) breaks strictness")
            above[e].add(f)
        if any(not above[f] <= above[e] for e, f in self.pairs):
            raise ValueError("pair set is not transitively closed")

    @classmethod
    def _unchecked(cls, labels: tuple, pairs: frozenset) -> "Ordering":
        """An ordering whose caller has shown ``pairs`` to be a strict,
        closed relation on the distinct ``labels``: no recheck."""
        self = object.__new__(cls)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "pairs", pairs)
        return self

    @classmethod
    def from_pairs(cls, labels: Sequence, pairs: Iterable[tuple]) -> "Ordering":
        """Build from raw pairs; closes transitively.  Unknown labels raise
        KeyError, reflexive pairs and cycles OrderingCycleError, duplicate
        labels ValueError; the closure needs no further check."""
        labels = tuple(labels)
        closed = _closure(labels, pairs)
        if len(set(labels)) != len(labels):
            raise ValueError("duplicate labels")
        return cls._unchecked(labels, closed)

    @classmethod
    def chain(cls, sequence: Sequence, labels: Sequence | None = None) -> "Ordering":
        """Linear order given as its increasing label sequence, which the
        ordering keeps for :meth:`sequence`.  Duplicate labels, and a
        sequence that does not list every label exactly once, raise
        ValueError; a permutation needs no pairwise check."""
        sequence = tuple(sequence)
        labels = sequence if labels is None else tuple(labels)
        label_set = set(labels)
        if len(label_set) != len(labels):
            raise ValueError("duplicate labels")
        if len(sequence) != len(labels) or set(sequence) != label_set:
            raise ValueError("chain must list every label exactly once")
        self = cls._unchecked(labels, frozenset(combinations(sequence, 2)))
        object.__setattr__(self, "_sequence", sequence)
        return self

    @classmethod
    def empty(cls, labels: Sequence) -> "Ordering":
        return cls(tuple(labels), frozenset())

    def less(self, e, f) -> bool:
        return (e, f) in self.pairs

    def comparable(self, e, f) -> bool:
        return (e, f) in self.pairs or (f, e) in self.pairs

    def is_linear(self) -> bool:
        n = len(self.labels)
        return len(self.pairs) == n * (n - 1) // 2

    def reverse(self) -> "Ordering":
        return Ordering(self.labels, frozenset((f, e) for e, f in self.pairs))

    def restrict(self, keep: Iterable) -> "Ordering":
        keep = set(keep)
        unknown = keep - set(self.labels)
        if unknown:
            raise KeyError(f"unknown labels {sorted(map(repr, unknown))}")
        labels = tuple(lab for lab in self.labels if lab in keep)
        pairs = frozenset((e, f) for e, f in self.pairs if e in keep and f in keep)
        return Ordering(labels, pairs)

    def sequence(self) -> tuple:
        """Increasing label sequence; linear orderings only.  A chain
        returns the sequence it was built from; any other linear ordering
        derives it from its pairs."""
        if self._sequence is not None:
            return self._sequence
        if not self.is_linear():
            raise ValueError("sequence() needs a linear ordering")
        below = {lab: 0 for lab in self.labels}
        for _, f in self.pairs:
            below[f] += 1
        return tuple(sorted(self.labels, key=below.__getitem__))

    def extreme_labels(self) -> set:
        """The minimum and maximum label of a linear ordering."""
        seq = self.sequence()
        return {seq[0], seq[-1]}

    def extension_sequences(self) -> list:
        """Increasing label sequences of every linear order containing this
        one, in lexicographic order (positions taken in stable label order)."""
        below = {lab: set() for lab in self.labels}
        for e, f in self.pairs:
            below[f].add(e)
        out = []

        def extend(prefix, remaining):
            if not remaining:
                out.append(prefix)
            for i, lab in enumerate(remaining):
                if below[lab].isdisjoint(remaining):
                    extend(prefix + (lab,), remaining[:i] + remaining[i + 1 :])

        extend((), self.labels)
        return out

    def _greedy_extension(self, pick) -> tuple:
        """A linear extension grown one label at a time: ``pick`` chooses
        from the remaining labels with no remaining predecessor, listed in
        label order (never empty: the order is acyclic)."""
        below = {lab: set() for lab in self.labels}
        for e, f in self.pairs:
            below[f].add(e)
        remaining = list(self.labels)
        seq = []
        placed = set()
        while remaining:
            lab = pick([lab for lab in remaining if below[lab] <= placed])
            remaining.remove(lab)
            seq.append(lab)
            placed.add(lab)
        return tuple(seq)

    def first_extension(self) -> tuple:
        """``extension_sequences()[0]`` without the others: repeatedly the
        first remaining label, in label order, with no remaining
        predecessor."""
        return self._greedy_extension(itemgetter(0))

    def extension_count(self) -> int:
        """``len(extension_sequences())`` without listing them: the number
        of ways to grow the empty down-set to the whole label set one label
        at a time, counted over every down-set as a position mask."""
        index = {lab: i for i, lab in enumerate(self.labels)}
        below = [0] * len(self.labels)
        for e, f in self.pairs:
            below[index[f]] |= 1 << index[e]
        ways = [0] * (1 << len(self.labels))
        ways[0] = 1
        for mask, count in enumerate(ways):
            if count:
                for i, need in enumerate(below):
                    if not mask >> i & 1 and need & mask == need:
                        ways[mask | 1 << i] += count
        return ways[-1]

    def linear_extensions(self) -> list:
        """Every linear order containing this one, as chains in the order of
        :meth:`extension_sequences`."""
        return [Ordering.chain(seq, self.labels) for seq in self.extension_sequences()]

    def covering_pairs(self) -> list:
        """Transitive reduction, for rendering."""
        out = []
        for e, f in self.pairs:
            if not any((e, m) in self.pairs and (m, f) in self.pairs for m in self.labels):
                out.append((e, f))
        index = {lab: i for i, lab in enumerate(self.labels)}
        out.sort(key=lambda p: (index[p[0]], index[p[1]]))
        return out


def is_linear(ordering: Ordering) -> bool:
    """True iff every pair of distinct labels is comparable."""
    return ordering.is_linear()


def reverse(ordering: Ordering) -> Ordering:
    """Reverse every inequality; involutive."""
    return ordering.reverse()


def extreme_labels(ordering: Ordering) -> set:
    return ordering.extreme_labels()


def linear_extensions(ordering: Ordering) -> list:
    return ordering.linear_extensions()


@dataclass(frozen=True)
class Configuration:
    """One strict ordering per axis over a common label set.

    ``orders`` is aligned with ``axes``; the configuration is *linear* when
    every per-axis ordering is total.
    """

    labels: tuple
    axes: tuple
    orders: tuple

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels")
        if len(set(self.axes)) != len(self.axes):
            raise ValueError("duplicate axes")
        if len(self.labels) < 2:
            raise ValueError("need at least two labels")
        if len(self.axes) != len(self.labels) - 1:
            raise ValueError(
                f"{len(self.labels)} labels need {len(self.labels) - 1} axes, "
                f"got {len(self.axes)}"
            )
        if len(self.orders) != len(self.axes):
            raise ValueError("one ordering per axis required")
        for ordering in self.orders:
            if tuple(ordering.labels) != tuple(self.labels):
                raise ValueError("every ordering must range over the configuration labels")

    @classmethod
    def from_sequences(cls, labels: Sequence, axes: Sequence, sequences: Sequence) -> "Configuration":
        """Linear configuration from per-axis increasing label sequences."""
        labels = tuple(labels)
        return cls(labels, tuple(axes), tuple(Ordering.chain(seq, labels) for seq in sequences))

    @classmethod
    def from_pairs(cls, labels: Sequence, axes: Sequence, pairs_by_axis: Mapping) -> "Configuration":
        labels = tuple(labels)
        axes = tuple(axes)
        orders = tuple(Ordering.from_pairs(labels, pairs_by_axis.get(a, ())) for a in axes)
        return cls(labels, axes, orders)

    def order_for(self, axis) -> Ordering:
        try:
            return self.orders[self.axes.index(axis)]
        except ValueError:
            raise KeyError(f"unknown axis {axis!r}") from None

    def is_linear(self) -> bool:
        return all(o.is_linear() for o in self.orders)

    def n(self) -> int:
        return len(self.labels)


def induced(cfg: Configuration, keep_labels: Iterable, keep_axes: Iterable) -> Configuration:
    """Sub-configuration on a label subset and axis subset.

    Each surviving ordering is the restriction of the original; original
    label/axis order is preserved.
    """
    keep_labels = set(keep_labels)
    keep_axes = set(keep_axes)
    bad = keep_axes - set(cfg.axes)
    if bad:
        raise KeyError(f"unknown axes {sorted(map(repr, bad))}")
    bad = keep_labels - set(cfg.labels)
    if bad:
        raise KeyError(f"unknown labels {sorted(map(repr, bad))}")
    labels = tuple(lab for lab in cfg.labels if lab in keep_labels)
    axes = tuple(a for a in cfg.axes if a in keep_axes)
    orders = tuple(
        o.restrict(keep_labels) for a, o in zip(cfg.axes, cfg.orders) if a in keep_axes
    )
    return Configuration(labels, axes, orders)


def configuration_extensions(cfg: Configuration) -> Iterator[Configuration]:
    """All linear extensions of a configuration (axis-wise Cartesian product),
    in deterministic lexicographic order."""
    per_axis = [o.linear_extensions() for o in cfg.orders]
    for combo in product(*per_axis):
        yield Configuration(cfg.labels, cfg.axes, tuple(combo))


def extension_count(cfg: Configuration) -> int:
    """Number of linear extensions of a configuration, the product over
    its axes; each axis is counted over its down-sets (``2^n`` states), not
    by listing its chains."""
    count = 1
    for o in cfg.orders:
        count *= o.extension_count()
    return count


#: largest decimal exponent magnitude a coordinate string may carry, as
#: many as the digits Python allows in an int string:
#: ``Fraction("1e999999999")`` builds ``10**999999999`` and runs for minutes
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[-+]?[0-9_]*\.?[0-9_]*[eE][-+]?([0-9_]+)")


def _as_fraction(value) -> Fraction:
    """Exact rational from int/Fraction/str; floats go through their
    shortest decimal representation.  A string whose decimal exponent
    exceeds :data:`MAX_EXPONENT` in magnitude, or that is no rational, is
    refused with a ValueError naming the problem."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(repr(value))
    if isinstance(value, str):
        match = _EXPONENT.fullmatch(value.strip())
        digits = match[1].replace("_", "").lstrip("0") if match else ""
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise ValueError(f"the exponent of {value!r} exceeds {MAX_EXPONENT} in magnitude")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"cannot parse {value!r} as an exact rational") from None
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class PointAssignment:
    """Exact rational coordinates for every (label, axis) pair."""

    labels: tuple
    axes: tuple
    values: Mapping

    def __post_init__(self):
        norm = {}
        for lab in self.labels:
            for axis in self.axes:
                key = (lab, axis)
                if key not in self.values:
                    raise KeyError(f"missing value for {key!r}")
                norm[key] = _as_fraction(self.values[key])
        object.__setattr__(self, "values", norm)

    @classmethod
    def from_points(cls, points: Mapping, axes: Sequence, labels: Sequence | None = None) -> "PointAssignment":
        """From a mapping label -> coordinate sequence."""
        labels = tuple(points) if labels is None else tuple(labels)
        axes = tuple(axes)
        values = {}
        for lab in labels:
            coords = points[lab]
            if len(coords) != len(axes):
                raise ValueError(f"point {lab!r} has {len(coords)} coordinates, expected {len(axes)}")
            for axis, v in zip(axes, coords):
                values[(lab, axis)] = v
        return cls(labels, axes, values)

    def value(self, label, axis) -> Fraction:
        return self.values[(label, axis)]


def satisfies(p: PointAssignment, cfg: Configuration) -> bool:
    """True iff every stated strict inequality holds on the values."""
    for axis, ordering in zip(cfg.axes, cfg.orders):
        for e, f in ordering.pairs:
            if not p.value(e, axis) < p.value(f, axis):
                return False
    return True


def _int_rows(rows) -> tuple:
    """Clear denominators row-wise: (integer rows, product of the row
    scales).  The scales are positive, so the determinant keeps its sign."""
    out = []
    scale = 1
    for row in rows:
        denominator_lcm = 1
        for v in row:
            denominator_lcm = lcm(denominator_lcm, v.denominator)
        out.append([int(v * denominator_lcm) for v in row])
        scale *= denominator_lcm
    return out, scale


def _det_int(rows) -> int:
    """Exact determinant of a square integer matrix (Bareiss)."""
    k = len(rows)
    if k == 0:
        return 1
    if k == 1:
        return rows[0][0]
    if k == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    if k == 3:
        (a, b, c), (d, e, f), (g, h, i) = rows
        return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for col in range(k - 1):
        if m[col][col] == 0:
            for r in range(col + 1, k):
                if m[r][col] != 0:
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(col + 1, k):
            for c in range(col + 1, k):
                m[r][c] = (m[r][c] * m[col][col] - m[r][col] * m[col][c]) // prev
            m[r][col] = 0
        prev = m[col][col]
    return sign * m[k - 1][k - 1]


def _det_sign_int(rows) -> int:
    """Exact determinant sign of a square integer matrix."""
    v = _det_int(rows)
    return (v > 0) - (v < 0)


def _det_value(labels: Sequence, axes: Sequence, values: Mapping) -> Fraction:
    """Exact determinant of the 1-padded coordinate matrix of ``values``
    (keyed by ``(label, axis)``), columns in ``labels`` order and
    coordinate rows in ``axes`` order.  Subtracting the first column
    reduces it to the (n-1) x (n-1) determinant of the coordinate
    differences; their denominators are cleared row-wise and the integer
    determinant divided by the product of the row scales."""
    first = labels[0]
    rows, scale = _int_rows(
        [[values[(lab, axis)] - values[(first, axis)] for lab in labels[1:]] for axis in axes]
    )
    return Fraction(_det_int(rows), scale)


def det_sign(p: PointAssignment) -> DetSign:
    """Exact orientation sign of the 1-padded coordinate matrix of ``p``:
    columns follow the stable label order, coordinate rows the axis order."""
    if len(p.labels) != len(p.axes) + 1:
        raise ValueError("det_sign needs |labels| == |axes| + 1")
    return DetSign.of(_det_value(p.labels, p.axes, p.values))
