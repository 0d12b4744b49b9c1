"""Labeled point clouds and the per-subset fixity scan.

Every ``(d+1)``-subset of a ``d``-dimensional cloud induces an ordering
configuration: per axis, the strict order of the coordinate values, ties
leaving the pair incomparable.  The scan runs the fixity decider on each
derived configuration and reports per-subset verdicts plus summary counts.

Coordinates are exact rationals parsed from their decimal text, so derived
orderings never depend on binary rounding.  An optional jitter mode breaks
ties by deterministic tiny perturbations for exploratory runs; its output
is marked non-exact.
"""

from __future__ import annotations

import csv
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .configio import InputFormatError
from .engine import FixityVerdict, check_size, decide
from .equivalence import default_axes
from .orders import Configuration, Ordering, _as_fraction


@dataclass(frozen=True)
class PointCloud:
    """Distinct labels, each with exactly one coordinate per axis."""

    labels: tuple
    axes: tuple
    values: Mapping

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate point labels")
        if len(self.axes) < 1:
            raise ValueError("need at least one axis")
        norm = {}
        for lab in self.labels:
            for axis in self.axes:
                key = (lab, axis)
                if key not in self.values:
                    raise KeyError(f"missing coordinate for {key!r}")
                norm[key] = _as_fraction(self.values[key])
        object.__setattr__(self, "values", norm)

    @property
    def dimension(self) -> int:
        return len(self.axes)

    def value(self, label, axis) -> Fraction:
        return self.values[(label, axis)]

    @classmethod
    def from_points(cls, points: Mapping, axes: Sequence | None = None) -> "PointCloud":
        labels = tuple(points)
        some = points[labels[0]]
        if axes is None:
            axes = default_axes(len(some))
        axes = tuple(axes)
        values = {}
        for lab in labels:
            coords = points[lab]
            if len(coords) != len(axes):
                raise ValueError(f"point {lab!r} has {len(coords)} coordinates, expected {len(axes)}")
            values.update({(lab, a): v for a, v in zip(axes, coords)})
        return cls(labels, axes, values)

    @classmethod
    def from_csv(cls, source) -> "PointCloud":
        """Parse ``label,x,y,z[,...]`` CSV; ``#`` lines are comments.

        Numbers are parsed exactly as rationals (decimal or ``p/q``).
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
                    values[lab].append(Fraction(cell))
                except (ValueError, ZeroDivisionError):
                    raise InputFormatError(
                        f"cannot parse {cell!r} as an exact rational", line=line_no, column=col
                    ) from None
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
    orders = []
    for axis in cloud.axes:
        pairs = set()
        for e in labels:
            for f in labels:
                if e != f and cloud.value(e, axis) < cloud.value(f, axis):
                    pairs.add((e, f))
        orders.append(Ordering(labels, frozenset(pairs)))
    return Configuration(labels, cloud.axes, tuple(orders))


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


@dataclass(frozen=True)
class SubsetResult:
    labels: tuple
    configuration: Configuration
    verdict: FixityVerdict


@dataclass(frozen=True)
class ScanReport:
    """Per-subset verdicts plus summary counts for a whole cloud."""

    dimension: int
    results: tuple
    jitter_seed: int | None = None

    @property
    def counts(self) -> dict:
        out = {"fixed": 0, "non_fixed": 0, "unknown": 0}
        for r in self.results:
            out[r.verdict.status.value] += 1
        return out

    def summary(self) -> dict:
        out = {"subsets": len(self.results), **self.counts}
        if self.jitter_seed is not None:
            out["jitter"] = self.jitter_seed
            out["exact"] = False
        return out

    def to_json_objects(self, include_certificates: bool = False) -> list:
        """One object per subset plus a trailing summary object."""
        objects = []
        for r in self.results:
            obj = {"subset": list(r.labels), "status": r.verdict.status.value}
            if r.verdict.sign is not None:
                obj["sign"] = str(r.verdict.sign)
            if include_certificates and r.verdict.certificate is not None:
                obj["certificate"] = r.verdict.certificate
            objects.append(obj)
        objects.append({"summary": self.summary()})
        return objects

    def to_text(self) -> str:
        width = max((len(" ".join(map(str, r.labels))) for r in self.results), default=6)
        lines = [f"{'subset'.ljust(width)}  status     sign"]
        for r in self.results:
            name = " ".join(map(str, r.labels)).ljust(width)
            sign = str(r.verdict.sign) if r.verdict.sign is not None else "-"
            lines.append(f"{name}  {r.verdict.status.value.ljust(9)}  {sign}")
        counts = self.counts
        lines.append(
            f"total {len(self.results)}: {counts['fixed']} fixed, "
            f"{counts['non_fixed']} non-fixed, {counts['unknown']} unknown"
        )
        if self.jitter_seed is not None:
            lines.append(f"jitter seed {self.jitter_seed}: ties perturbed, results not exact")
        return "\n".join(lines)


def scan(cloud: PointCloud, threads: int = 1, jitter_seed: int | None = None) -> ScanReport:
    """Decide every ``(d+1)``-subset of the cloud.

    Subsets iterate lexicographically in the cloud's stable label order;
    results are collected in that order regardless of thread count.
    Raises ValueError when a subset would exceed the engine's
    ``MAX_LABELS`` labels, before listing any subset.
    """
    check_size(cloud.dimension + 1)
    if len(cloud.labels) < cloud.dimension + 1:
        raise ValueError("cloud has fewer points than dimension+1")
    source = jitter(cloud, jitter_seed) if jitter_seed is not None else cloud
    subsets = list(combinations(source.labels, source.dimension + 1))

    def run(subset):
        cfg = derive_configuration(source, subset)
        return SubsetResult(tuple(subset), cfg, decide(cfg))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = tuple(pool.map(run, subsets))
    else:
        results = tuple(run(s) for s in subsets)
    return ScanReport(source.dimension, results, jitter_seed)
