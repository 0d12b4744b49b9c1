"""Labeled point clouds and the per-subset fixity scan.

Every ``(d+1)``-subset of a ``d``-dimensional cloud induces an ordering
configuration: per axis, the strict order of the coordinate values, ties
leaving the pair incomparable.  The scan reports per-subset verdicts plus
summary counts.  Its work is done once per pair of points, per weak
order or per distinct pattern, not once per subset (see
:func:`iter_scan`): every pair of points is compared on every axis
before the subset loop, each subset's pattern key is summed from those
comparisons as the nested index loops choose its points, each distinct
pattern is decided once, and the first extension and filters of each
per-axis weak order are listed once.  It streams: the CLI writes each
line as soon as its subset is decided, from a prefix rendered once per
status and sign and labels JSON-escaped once per point
(:func:`json_lines`), and the summary from running counts.  It runs in
one thread; ``threads`` and the CLI's ``--threads`` are accepted and
have no effect.

Coordinates are exact rationals parsed from their decimal text, so derived
orderings never depend on binary rounding.  An optional jitter mode breaks
ties by deterministic tiny perturbations for exploratory runs; its output
is marked non-exact.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb
from operator import add
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .configio import InputFormatError
from .criteria import Status, _order_parts, _pattern_status, check_size, default_axes, default_labels
from .orders import Configuration, Ordering, PointAssignment, _as_fraction
from .signs import ConfigSign

if TYPE_CHECKING:
    from .engine import FixityVerdict

class PointCloud(PointAssignment):
    """Distinct labels, each with exactly one coordinate per axis, and at
    least one axis."""

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate point labels")
        if len(self.axes) < 1:
            raise ValueError("need at least one axis")
        super().__post_init__()

    @property
    def dimension(self) -> int:
        return len(self.axes)

    @classmethod
    def from_points(cls, points: Mapping, axes: Sequence | None = None) -> "PointCloud":
        """From a mapping label -> coordinate sequence; axes default to
        ``x, y, z, ...``."""
        if axes is None:
            if not points:
                raise ValueError("a point cloud needs at least one point to infer its axes")
            axes = default_axes(len(next(iter(points.values()))))
        return super().from_points(points, axes)

    @classmethod
    def from_csv(cls, source) -> "PointCloud":
        """Parse ``label,x,y,z[,...]`` CSV; ``#`` lines are comments.

        Numbers are parsed exactly as rationals (decimal or ``p/q``); a
        decimal exponent may not exceed
        :data:`~simplexfix.orders.MAX_EXPONENT` in magnitude.
        """
        if isinstance(source, str):
            text = source
        else:
            text = source.read()
        rows = []
        for line_no, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                rows.append((line_no, line))
        if not rows:
            raise InputFormatError("empty point cloud file", line=1)
        header_no, header = rows[0]
        fields = next(csv.reader([header]))
        fields = [f.strip() for f in fields]
        if not fields or fields[0].lower() != "label":
            raise InputFormatError(
                "header must start with 'label'", line=header_no, column=1
            )
        axes = tuple(fields[1:])
        if len(axes) != len(set(axes)) or not axes:
            raise InputFormatError("axis names must be distinct and nonempty", line=header_no)
        labels = []
        values = {}
        for line_no, line in rows[1:]:
            cells = [c.strip() for c in next(csv.reader([line]))]
            if len(cells) != len(axes) + 1:
                raise InputFormatError(
                    f"expected {len(axes) + 1} fields, got {len(cells)}", line=line_no
                )
            lab = cells[0]
            if lab in values:
                raise InputFormatError(f"duplicate label {lab!r}", line=line_no, column=1)
            values[lab] = []
            labels.append(lab)
            for col, cell in enumerate(cells[1:], start=2):
                try:
                    values[lab].append(_as_fraction(cell))
                except ValueError as exc:
                    raise InputFormatError(str(exc), line=line_no, column=col) from None
        if not labels:
            raise InputFormatError("no points in file", line=header_no)
        return cls.from_points({lab: values[lab] for lab in labels}, axes)


def derive_configuration(cloud: PointCloud, subset: Iterable) -> Configuration:
    """Ordering configuration of a ``(d+1)``-subset: per axis the strict
    coordinate order, equal values leaving the pair incomparable."""
    subset = list(subset)
    missing = [lab for lab in subset if lab not in cloud.labels]
    if missing:
        raise KeyError(f"unknown labels {missing!r}")
    if len(subset) != cloud.dimension + 1:
        raise ValueError(
            f"subset size must be dimension+1 = {cloud.dimension + 1}, got {len(subset)}"
        )
    labels = tuple(lab for lab in cloud.labels if lab in set(subset))
    orders = tuple(
        _axis_ordering(labels, [cloud.value(lab, axis) for lab in labels]) for axis in cloud.axes
    )
    return Configuration(labels, cloud.axes, orders)


def _axis_ordering(labels: tuple, values: Sequence) -> Ordering:
    """``labels[p]`` below ``labels[q]`` exactly when ``values[p] < values[q]``."""
    named = tuple(zip(labels, values))
    return Ordering(labels, frozenset((e, f) for e, v in named for f, w in named if v < w))


def jitter(cloud: PointCloud, seed: int) -> PointCloud:
    """Deterministically perturb coordinates to break all per-axis ties.

    Perturbations stay below half the smallest nonzero gap, so every
    strict order of the input survives.  Results are exploratory only.
    """
    rng = random.Random(f"jitter:{seed}")
    n = len(cloud.labels)
    values = dict(cloud.values)
    for axis in cloud.axes:
        axis_values = sorted({cloud.value(lab, axis) for lab in cloud.labels})
        gaps = [b - a for a, b in zip(axis_values, axis_values[1:])]
        unit = (min(gaps) if gaps else Fraction(1)) / (2 * (n + 1))
        offsets = list(range(1, n + 1))
        rng.shuffle(offsets)
        for lab, k in zip(cloud.labels, offsets):
            values[(lab, axis)] = cloud.value(lab, axis) + unit * k
    return PointCloud(cloud.labels, cloud.axes, values)


class SubsetResult:
    """One subset's decided ``status`` and ``sign``.

    A scan fills in only those two and keeps the cloud; the subset's own
    ``configuration`` and ``verdict`` (whose certificate names these
    labels) are derived from it on first access.
    """

    __slots__ = ("labels", "status", "sign", "_cloud", "_configuration", "_verdict")

    def __init__(self, labels, configuration: Configuration, verdict: FixityVerdict):
        self.labels = tuple(labels)
        self.status, self.sign = verdict.status, verdict.sign
        self._cloud, self._configuration, self._verdict = None, configuration, verdict

    @classmethod
    def _scanned(cls, labels: tuple, status: Status, sign, cloud: PointCloud) -> "SubsetResult":
        result = cls.__new__(cls)
        result.labels, result.status, result.sign = labels, status, sign
        result._cloud, result._configuration, result._verdict = cloud, None, None
        return result

    @property
    def configuration(self) -> Configuration:
        if self._configuration is None:
            self._configuration = derive_configuration(self._cloud, self.labels)
        return self._configuration

    @property
    def verdict(self) -> FixityVerdict:
        if self._verdict is None:
            from .engine import decide  # a scan that reads no verdict never loads the engine

            self._verdict = decide(self.configuration)
        return self._verdict


def _counts(results: Iterable) -> dict:
    out = dict.fromkeys(("fixed", "non_fixed", "unknown"), 0)
    for r in results:
        out[r.status.value] += 1
    return out


def _summary(counts: dict, jitter_seed: int | None) -> dict:
    out = {"subsets": sum(counts.values()), **counts}
    if jitter_seed is not None:
        out["jitter"] = jitter_seed
        out["exact"] = False
    return out


def json_objects(results: Iterable, jitter_seed: int | None = None) -> Iterator[dict]:
    """One object per result as each arrives, then the summary object
    from the running counts."""
    counts = _counts(())
    for r in results:
        counts[r.status.value] += 1
        obj = {"subset": list(r.labels), "status": r.status.value}
        if r.sign is not None:
            obj["sign"] = str(r.sign)
        yield obj
    yield {"summary": _summary(counts, jitter_seed)}


def text_lines(results: Iterable, width: int, jitter_seed: int | None = None) -> Iterator[str]:
    """The text table line by line: a header, one row per result as each
    arrives with the subset column ``width`` wide, then the totals."""
    yield f"{'subset'.ljust(width)}  status     sign"
    counts = _counts(())
    for r in results:
        counts[r.status.value] += 1
        name = " ".join(map(str, r.labels)).ljust(width)
        sign = str(r.sign) if r.sign is not None else "-"
        yield f"{name}  {r.status.value.ljust(9)}  {sign}"
    yield (
        f"total {sum(counts.values())}: {counts['fixed']} fixed, "
        f"{counts['non_fixed']} non-fixed, {counts['unknown']} unknown"
    )
    if jitter_seed is not None:
        yield f"jitter seed {jitter_seed}: ties perturbed, results not exact"


def subset_width(cloud: PointCloud) -> int:
    """Width of the text table's subset column for a scan of the cloud:
    the widest subset joins the ``d+1`` longest labels with spaces."""
    longest = sorted((len(str(lab)) for lab in cloud.labels), reverse=True)
    return sum(longest[: cloud.dimension + 1]) + cloud.dimension


@dataclass(frozen=True)
class ScanReport:
    """Per-subset results plus summary counts for a whole cloud."""

    dimension: int
    results: tuple
    jitter_seed: int | None = None

    @property
    def counts(self) -> dict:
        return _counts(self.results)

    def summary(self) -> dict:
        return _summary(self.counts, self.jitter_seed)

    def to_json_objects(self) -> list:
        """One object per subset plus a trailing summary object."""
        return list(json_objects(self.results, self.jitter_seed))


def _pair_codes(cloud: PointCloud) -> tuple:
    """``(codes, ranks)``: ``codes[p][q]`` (points ``p < q`` in label
    order) sums over axes ``a`` ``3**(a * pairs)`` times 0, 1 or 2 as ``p``
    lies below, level with or above ``q`` on ``a``, ``pairs`` being a
    subset's number of point pairs; ``ranks[a][label]`` is the point's
    exact rank among axis ``a``'s distinct values, ties sharing one."""
    n = len(cloud.labels)
    pairs = comb(cloud.dimension + 1, 2)
    codes = [[0] * n for _ in range(n)]
    ranks = []
    for a, axis in enumerate(cloud.axes):
        values = [cloud.value(lab, axis) for lab in cloud.labels]
        rank = {v: i for i, v in enumerate(sorted(set(values)))}
        column = [rank[v] for v in values]
        ranks.append(dict(zip(cloud.labels, column)))
        weight = 3 ** (a * pairs)
        for p, x in enumerate(column):
            row = codes[p]
            for q in range(p + 1, n):
                y = column[q]
                row[q] += weight * ((x == y) + 2 * (x > y))
    return codes, ranks


def _prefixes(labels: tuple, terms: list, size: int) -> Iterator[tuple]:
    """Every choice of the first ``size - 1`` points of a subset, in
    lexicographic order, as ``(their labels, the sum of their pairs' key
    terms, a vector giving each point j the sum of the key terms of its
    pairs with them, the first j that may follow them)``.

    ``terms[s][t][p][q]`` is the term of the subset's pair of positions
    ``s < t`` when point ``p`` sits at ``s`` and ``q`` at ``t``.  Each level
    adds its point's terms to the running vectors of every later position,
    so the last position's vector is complete when the prefix is.
    """
    n = len(labels)
    last = size - 1

    def walk(t, start, chosen, key, partial):
        # partial[u - t][j]: terms of the pairs (s, u), s < t, with point j at u
        for i in range(start, n - last + t):
            ahead = [list(map(add, vec, terms[t][u][i])) for u, vec in enumerate(partial[1:], t + 1)]
            if t + 1 == last:
                yield chosen + (labels[i],), key + partial[0][i], ahead[0], i + 1
            else:
                yield from walk(t + 1, i + 1, chosen + (labels[i],), key + partial[0][i], ahead)

    return walk(0, 0, (), 0, [[0] * n] * size)


def _scan(cloud: PointCloud, outcome) -> Iterator[tuple]:
    """``(labels, outcome(status, sign))`` per subset, the status and sign
    found once per distinct pattern and each outcome made once per status
    and sign; see :func:`iter_scan`."""
    size = cloud.dimension + 1
    names = default_labels(size)
    positions = [(s, t) for t in range(1, size) for s in range(t)]
    radix = 3 ** len(positions)
    # a subset's pattern key: the sum over its pairs k of 3**k times the
    # pair's code, so axis a's code is its base-radix digit a, and that
    # code's ternary digit k compares pair k on axis a
    codes, ranks = _pair_codes(cloud)
    terms = [[None] * size for _ in range(size)]
    for k, (s, t) in enumerate(positions):
        terms[s][t] = [[code * 3**k for code in row] for row in codes]
    axis_parts = {}  # per-axis code -> the first extension and ray steps of its weak order
    outcome = cache(outcome)  # made once per status and sign
    decided = {}  # pattern key -> outcome

    def judge(key: int, subset: tuple):
        per_axis = []
        for rank in ranks:
            key, code = divmod(key, radix)
            if code not in axis_parts:
                # the weak order the code spells: the subset's on this axis
                axis_parts[code] = _order_parts(_axis_ordering(names, [rank[lab] for lab in subset]))
            per_axis.append(axis_parts[code])
        return outcome(*_pattern_status(names, cloud.axes, per_axis))

    labels = cloud.labels
    for chosen, prefix_key, row, start in _prefixes(labels, terms, size):
        for lab, term in zip(labels[start:], row[start:]):
            key = prefix_key + term
            hit = decided.get(key)
            if hit is None:
                hit = decided[key] = judge(key, chosen + (lab,))
            yield chosen + (lab,), hit


def _source(cloud: PointCloud, jitter_seed: int | None) -> PointCloud:
    """The cloud a scan decides: checked for size, jittered on request."""
    check_size(cloud.dimension + 1)
    if len(cloud.labels) < cloud.dimension + 1:
        raise ValueError("cloud has fewer points than dimension+1")
    return jitter(cloud, jitter_seed) if jitter_seed is not None else cloud


def iter_scan(cloud: PointCloud, jitter_seed: int | None = None) -> Iterator[SubsetResult]:
    """Decide every ``(d+1)``-subset, yielding each result as it is decided.

    Subsets come lexicographically in the cloud's stable label order.  A
    subset's *pattern* is, per axis and per pair of its points, whether
    the first lies below, level with or above the second.  Two subsets
    with one pattern derive the same configuration up to the
    order-preserving relabeling of their points, so they share status and
    sign, found once per distinct pattern as :func:`decide` would: non-fixed
    if its first extension has a chain of extreme removals, else by the
    ray pass over filters.  No configuration, canonical form or
    certificate is made; a result's ``verdict`` calls ``decide`` when read.

    Keying compares every pair of points on every axis once, before any
    subset, and packs the comparisons into one base-3 digit per axis and
    pair.  A subset's key sums one term per pair of its points, added
    level by level as the nested index loops choose them, so the
    innermost loop adds one term per subset.  Each distinct per-axis code
    is a weak order on ``d+1`` points, whose first extension and filter
    ray steps are listed once for all the patterns that contain it.

    Raises ValueError when a subset would exceed the engine's
    ``MAX_LABELS`` labels, before listing any subset.
    """
    source = _source(cloud, jitter_seed)
    return (
        SubsetResult._scanned(labels, status, sign, source)
        for labels, (status, sign) in _scan(source, lambda status, sign: (status, sign))
    )


def json_lines(cloud: PointCloud, jitter_seed: int | None = None) -> Iterator[str]:
    """What ``simplexfix scan --format json`` prints, line by line: the
    ``json.dumps(obj, sort_keys=True)`` of each object of
    ``json_objects(iter_scan(cloud, jitter_seed), jitter_seed)``.

    Each line is a prefix rendered once per status and sign, holding the
    ``sign`` and ``status`` keys that sort before ``subset``, then the
    subset's labels, each JSON-escaped once per point.  Raises as
    :func:`iter_scan` does, before yielding a line.
    """
    source = _source(cloud, jitter_seed)
    escaped = {lab: json.dumps(lab) for lab in source.labels}

    def head(status: Status, sign: ConfigSign) -> tuple:
        obj = {"sign": str(sign), "status": status.value}
        # "subset" sorts after "sign" and "status": it ends the object
        return json.dumps(obj, sort_keys=True)[:-1] + ', "subset": [', status.value

    def lines():
        counts = _counts(())
        for labels, (text, status) in _scan(source, head):
            counts[status] += 1
            yield text + ", ".join(map(escaped.__getitem__, labels)) + "]}"
        yield json.dumps({"summary": _summary(counts, jitter_seed)}, sort_keys=True)

    return lines()


def scan(cloud: PointCloud, threads: int = 1, jitter_seed: int | None = None) -> ScanReport:
    """Every result of :func:`iter_scan`, collected into a report.

    ``threads`` is accepted for compatibility and has no effect: the scan
    runs in one thread, since a thread pool only slowed it down.
    """
    results = tuple(iter_scan(cloud, jitter_seed))
    return ScanReport(cloud.dimension, results, jitter_seed)
