"""The decision kernel shared by the engine and the landmark scan.

It holds what a scan runs to decide a pattern, and nothing else: the
supported size, the verdict statuses, the light linear view ``_Lin``,
the search for a chain of extreme-label removals, and the ray pass of
the ray-determinant criterion over per-axis filters (see
:mod:`simplexfix.engine` for the criterion and the deciders built on
it).  It imports only the standard library and :mod:`simplexfix.signs`,
so a ``simplexfix scan`` process loads neither the engine nor the
symmetry group.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import TYPE_CHECKING, Sequence

from .signs import ConfigSign, FormalSign

if TYPE_CHECKING:
    from .orders import Configuration, Ordering


MAX_LABELS = 8


def check_size(n: int) -> None:
    """Refuse configurations of more than :data:`MAX_LABELS` labels with a
    ValueError naming the limit."""
    if n > MAX_LABELS:
        raise ValueError(f"configurations of more than {MAX_LABELS} labels are not supported (got {n})")


class InternalCheckError(RuntimeError):
    """A verification that must never fail did; indicates a bug."""


class Status(Enum):
    FIXED = "fixed"
    NON_FIXED = "non_fixed"
    UNKNOWN = "unknown"


def default_labels(n: int) -> tuple:
    if n <= 26:
        return tuple("ABCDEFGHIJKLMNOPQRSTUVWXYZ"[:n])
    return tuple(f"e{i + 1}" for i in range(n))


def default_axes(k: int) -> tuple:
    names = ("x", "y", "z")
    return tuple(names[i] if i < 3 else f"axis{i + 1}" for i in range(k))


# ---------------------------------------------------------------------------
# light internal view of a linear configuration


class _Lin:
    """Label names, axis names and per-axis sequences of a linear
    configuration; every path past the input boundary works on this."""

    __slots__ = ("labels", "axes", "seqs")

    def __init__(self, labels, axes, seqs):
        self.labels = labels
        self.axes = axes
        self.seqs = seqs

    @classmethod
    def of(cls, cfg: Configuration) -> "_Lin":
        if not cfg.is_linear():
            raise ValueError("linear configuration required")
        return cls(cfg.labels, cfg.axes, tuple(o.sequence() for o in cfg.orders))

    def drop(self, label, axis_index: int) -> "_Lin":
        return _Lin(
            _without(self.labels, self.labels.index(label)),
            _without(self.axes, axis_index),
            tuple([_without(seq, seq.index(label)) for seq in _without(self.seqs, axis_index)]),
        )

    def diff(self, e, f, axis_index: int) -> FormalSign:
        """Sign of ``x_{e} - x_{f}`` on the axis, definite for linear orders."""
        seq = self.seqs[axis_index]
        return FormalSign.PLUS if seq.index(f) < seq.index(e) else FormalSign.MINUS


def _without(items: tuple, index: int) -> tuple:
    return items[:index] + items[index + 1 :]


def _relation(a: tuple, b: tuple):
    """``"equal"`` or ``"reversed"`` when the two sequences are, else None."""
    if a == b:
        return "equal"
    if a == b[::-1]:
        return "reversed"
    return None


# ---------------------------------------------------------------------------
# extreme-element non-fixity


def _lemma_certificate(lin: _Lin):
    """Certificate of a chain of extreme-label removals (each with one
    axis) ending at an equal-or-reversed pair of 3-label orderings, or
    None when there is no such chain.  The search tries axes in order,
    each axis's minimum before its maximum, and returns the first chain
    it meets."""
    index = {lab: i for i, lab in enumerate(lin.labels)}
    rows = tuple([bytes([index[lab] for lab in seq]) for seq in lin.seqs])
    return _chain_certificate(lin.labels, lin.axes, rows)


def _chain_certificate(labels: tuple, axes: tuple, rows: tuple):
    """:func:`_lemma_certificate` of the linear configuration whose axis
    ``axes[i]`` lists ``labels`` in the order of the label indices
    ``rows[i]`` (bytes)."""
    if len(rows) == 2:
        relation = _relation(*rows)
        found = None if relation is None else ([], relation)
    else:
        found = _removal_chain(tuple(range(len(rows))), rows)
    if found is None:
        return None
    steps, relation = found
    return {
        "type": "extreme_lemma",
        "steps": [{"label": labels[v], "axis": axes[a], "extreme": kind} for v, a, kind in reversed(steps)],
        "base": {"type": "dim2_non_fixed", "relation": relation},
    }


def _removal_chain(axes: tuple, rows: tuple):
    """:func:`_lemma_certificate`'s search on label indices: ``rows[i]``,
    one of three or more, is the sequence of axis ``axes[i]`` as bytes.
    Returns ``(steps, relation)`` with the steps ``(label index, axis
    index, "min" or "max")`` last first, or None.  Removals that leave two
    axes are checked here, not by a further call."""
    last = len(rows) == 3
    for i, row in enumerate(rows):
        others = rows[:i] + rows[i + 1 :]
        for v, kind in ((row[0], "min"), (row[-1], "max")):
            label = bytes((v,))
            if last:
                x, y = [seq.replace(label, b"") for seq in others]
                found = ([], "equal") if x == y else ([], "reversed") if x == y[::-1] else None
            else:
                rest = tuple([seq.replace(label, b"") for seq in others])
                found = _removal_chain(axes[:i] + axes[i + 1 :], rest)
            if found is not None:
                found[0].append((v, axes[i], kind))
                return found
    return None


# ---------------------------------------------------------------------------
# the ray pass


@lru_cache(maxsize=None)
def _wedge_plans(n: int) -> tuple:
    """Laplace steps for growing the minors of a padded n x n matrix row by
    row.  ``plans[level][c]`` lists ``(s, sign, p)``: when column ``c`` of
    row ``level + 1`` goes from 0 to 1, the minor on the ``level + 2``
    column subset number ``s`` changes by ``sign`` times the minor of the
    first ``level + 1`` rows on subset number ``p`` (subsets numbered in
    :func:`itertools.combinations` order)."""
    plans = []
    for level in range(n - 1):
        index = {sub: i for i, sub in enumerate(combinations(range(n), level + 1))}
        plan = [[] for _ in range(n)]
        for s, sub in enumerate(combinations(range(n), level + 2)):
            for j, c in enumerate(sub):
                sign = -1 if (level + 1 + j) % 2 else 1
                plan[c].append((s, sign, index[sub[:j] + sub[j + 1 :]]))
        plans.append(tuple(tuple(steps) for steps in plan))
    return tuple(plans)


def _filters(seq: tuple, pairs) -> list:
    """The proper nonempty up-sets of an axis ordering given by its pairs
    and one of its linear extensions ``seq``: smallest first, ties in
    the order of their position masks, each listed in the order of
    ``seq``.  A chain's are its suffixes in size order."""
    n = len(seq)
    pos = {lab: i for i, lab in enumerate(seq)}
    below = [0] * n
    for e, f in pairs:
        below[pos[f]] |= 1 << pos[e]
    # down-sets as position masks: seq[i] may join one that holds all the
    # labels below it, which all come earlier in seq
    downs = [0]
    for i in range(n):
        downs += [d | 1 << i for d in downs if not below[i] & ~d]
    full = (1 << n) - 1
    ups = sorted((full ^ d for d in downs if 0 < d < full), key=lambda m: (m.bit_count(), m))
    return [tuple(seq[i] for i in range(n) if m >> i & 1) for m in ups]


def _order_parts(order: Ordering) -> tuple:
    """An ordering's first extension and the :func:`_ray_steps` of its
    filters in that order, columns in label order, listed once per shape:
    the ordering renamed to positions in the extension, one of 2^(n-1)
    for a weak order on n labels."""
    seq = order.first_extension()
    at = {lab: i for i, lab in enumerate(seq)}
    column = [order.labels.index(lab) for lab in seq]
    shape = _shape_steps(frozenset((at[e], at[f]) for e, f in order.pairs), len(seq))
    return seq, [([column[i] for i in enter], [column[i] for i in leave]) for enter, leave in shape]


@lru_cache(maxsize=None)
def _shape_steps(pairs: frozenset, n: int) -> list:
    return _ray_steps(range(n), _filters(range(n), pairs))


def _ray_steps(labels: tuple, axis_gens: Sequence) -> list:
    """Per generator of one axis, in order, ``(entering, leaving)``: the
    columns (positions in ``labels``) of the labels it holds that the
    generator before it (none for the first) does not, and the reverse.
    One label enters per step for a chain's suffixes in size order."""
    column = {lab: i for i, lab in enumerate(labels)}
    return [
        ([column[lab] for lab in gen if lab not in prev], [column[lab] for lab in prev if lab not in gen])
        for prev, gen in zip([(), *axis_gens], axis_gens)
    ]


def _ray_pass(n: int, steps: Sequence) -> dict:
    """Determinant signs of every tuple of one generator per axis, each
    axis's generators given by their :func:`_ray_steps` over ``n``
    columns; a tuple is its list of generator indices, and tuples are
    visited in lexicographic order.  Returns ``{sign: indices}`` for the
    first tuple of each nonzero sign met, stopping as soon as both are.

    The minors of each prefix (the padding row of ones, then
    one row per axis so far) are shared by every tuple extending it, and
    stepping an axis to its next generator updates only the minors on
    column sets holding a column that enters or leaves.  A prefix whose
    minors all vanish has dependent rows, so no tuple extending it is
    visited."""
    plans = _wedge_plans(n)
    chosen = [0] * (n - 1)
    found = {}

    def extend(level, prev):
        plan = plans[level]
        cur = [0] * comb(n, level + 2)
        for k, (enter, leave) in enumerate(steps[level]):
            for c in enter:
                for i, sign, p in plan[c]:
                    cur[i] += sign * prev[p]
            for c in leave:
                for i, sign, p in plan[c]:
                    cur[i] -= sign * prev[p]
            chosen[level] = k
            if level + 2 < n:
                if any(cur) and extend(level + 1, cur):
                    return True
            elif cur[0]:
                d = 1 if cur[0] > 0 else -1
                if d not in found:
                    found[d] = list(chosen)
                    if len(found) == 2:
                        return True
        return False

    extend(0, [1] * n)
    return found


def _ray_status(n: int, steps: Sequence) -> tuple:
    """``(status, sign, found)`` of :func:`_ray_pass` over ``steps``:
    fixed with the one sign met, or non-fixed when both are."""
    found = _ray_pass(n, steps)
    if not found:
        raise InternalCheckError("the satisfying region is open, so some ray determinant is nonzero")
    if len(found) == 2:
        return Status.NON_FIXED, ConfigSign.BOTH, found
    return Status.FIXED, ConfigSign(next(iter(found))), found


def _pattern_status(labels: tuple, axes: tuple, parts: Sequence) -> tuple:
    """``(status, sign)`` of the configuration whose orderings have the
    :func:`_order_parts` ``parts``: non-fixed when their first extensions
    have a chain of extreme removals, else by the ray pass over filters."""
    if _lemma_certificate(_Lin(labels, axes, tuple(seq for seq, _ in parts))) is not None:
        return Status.NON_FIXED, ConfigSign.BOTH
    return _ray_status(len(labels), [steps for _, steps in parts])[:2]
