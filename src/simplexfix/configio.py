"""Parsing and rendering of configuration files and result objects.

Text format, one line per axis::

    # comment
    labels: A B C D        (optional; fixes the label order)
    x: A < B < C < D       chains for linear orderings
    y: A<B, C<B            comma-separated chains/pairs for partial ones
    z:                     an empty ordering

Label order defaults to first appearance; it matters, because the
orientation sign is defined relative to the label column order.  The JSON
mirror is ``{"labels": [...], "axes": [...], "orders": {"x": [["A","B"],
...]}}`` with per-axis relation pairs.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Mapping

from .orders import Configuration, OrderingCycleError


class InputFormatError(ValueError):
    """Unparseable input; carries 1-based line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        super().__init__(message)
        self.line = line
        self.column = column

    def location(self) -> str:
        if self.line is None:
            return ""
        if self.column is None:
            return f"{self.line}: "
        return f"{self.line}:{self.column}: "


def parse_configuration(text: str) -> Configuration:
    """Parse either the text format or its JSON mirror (sniffed)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"bad JSON: {exc.msg}", line=exc.lineno, column=exc.colno) from None
        return configuration_from_json(payload)
    return parse_configuration_text(text)


def parse_configuration_text(text: str) -> Configuration:
    axes = []
    relations = {}
    declared_labels = None
    seen_labels = []

    def note_label(lab):
        if lab not in seen_labels:
            seen_labels.append(lab)

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if ":" not in line:
            raise InputFormatError(
                "expected 'axis: ordering' or a 'labels:'/'axes:' header",
                line=line_no,
                column=1,
            )
        head, _, rhs = line.partition(":")
        name = head.strip()
        if not name:
            raise InputFormatError("missing axis name", line=line_no, column=1)
        if name == "labels":
            declared_labels = rhs.split()
            if not declared_labels:
                raise InputFormatError("empty labels header", line=line_no)
            continue
        if name == "axes":
            for axis in rhs.split():
                if axis in axes:
                    raise InputFormatError(f"duplicate axis {axis!r}", line=line_no)
                axes.append(axis)
                relations.setdefault(axis, [])
            continue
        if name in relations and relations[name]:
            raise InputFormatError(f"axis {name!r} defined twice", line=line_no, column=1)
        if name not in axes:
            axes.append(name)
        pairs = relations.setdefault(name, [])
        column = len(head) + 2
        for segment in rhs.split(","):
            chain = [tok.strip() for tok in segment.split("<")]
            if chain == [""]:
                continue  # empty segment: declares nothing
            if any(not tok for tok in chain):
                raise InputFormatError(
                    f"malformed chain {segment.strip()!r}", line=line_no, column=column
                )
            for tok in chain:
                note_label(tok)
            pairs.extend(zip(chain, chain[1:]))
            column += len(segment) + 1

    if not axes:
        raise InputFormatError("no axis lines found", line=1)
    labels = tuple(declared_labels) if declared_labels else tuple(seen_labels)
    if declared_labels is not None:
        unknown = [lab for lab in seen_labels if lab not in declared_labels]
        if unknown:
            raise InputFormatError(f"labels {unknown!r} not in the labels header")
    try:
        return Configuration.from_pairs(labels, axes, relations)
    except (OrderingCycleError, ValueError, KeyError) as exc:
        raise InputFormatError(str(exc)) from None


def configuration_from_json(payload: Mapping) -> Configuration:
    """The configuration of the JSON mirror; InputFormatError names the
    first field that is missing or of the wrong shape."""
    try:
        labels = tuple(payload["labels"])
        axes = tuple(payload["axes"])
        orders_payload = payload.get("orders", {})
    except (KeyError, TypeError) as exc:
        raise InputFormatError(f"missing configuration field: {exc}") from None
    if not isinstance(orders_payload, Mapping):
        raise InputFormatError("'orders' must map each axis to a list of label pairs")
    named = [*labels, *axes]
    for axis, pairs in orders_payload.items():
        if not isinstance(pairs, (list, tuple)) or not all(
            isinstance(p, (list, tuple)) and len(p) == 2 for p in pairs
        ):
            raise InputFormatError(f"orders of axis {axis!r} must be a list of label pairs")
        named += [lab for pair in pairs for lab in pair]
    if any(isinstance(name, (list, dict)) for name in named):
        raise InputFormatError("labels and axes must be strings or numbers, not arrays or objects")
    try:
        return Configuration.from_pairs(labels, axes, orders_payload)
    except (OrderingCycleError, ValueError, KeyError) as exc:
        raise InputFormatError(str(exc)) from None


def render_configuration_text(cfg: Configuration) -> str:
    lines = [f"labels: {' '.join(map(str, cfg.labels))}"]
    for axis, ordering in zip(cfg.axes, cfg.orders):
        if ordering.is_linear():
            lines.append(f"{axis}: {' < '.join(map(str, ordering.sequence()))}")
        else:
            covering = ", ".join(f"{e}<{f}" for e, f in ordering.covering_pairs())
            lines.append(f"{axis}: {covering}")
    return "\n".join(lines)


def configuration_to_json(cfg: Configuration) -> dict:
    return {
        "labels": list(cfg.labels),
        "axes": list(cfg.axes),
        "orders": {
            str(a): [[e, f] for e, f in o.covering_pairs()]
            for a, o in zip(cfg.axes, cfg.orders)
        },
    }


def assignment_to_json(assignment) -> dict:
    """Point assignment as nested label -> axis -> exact fraction string."""
    return {
        str(lab): {
            str(a): str(Fraction(assignment.value(lab, a))) for a in assignment.axes
        }
        for lab in assignment.labels
    }
