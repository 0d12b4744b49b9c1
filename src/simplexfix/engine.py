"""Fixity deciders, certificates, witness construction, and sampling.

Decision strategy by size of the label set:

* n = 2: the single-axis determinant is one coordinate difference.
* n = 3: a linear configuration is non-fixed exactly when its two
  orderings are equal or mutual reversals; otherwise the 2x2 formal
  determinant obtained by subtracting the column of the middle label of
  the first axis has a definite sign.
* n = 4: exact combinatorial characterization -- fixed iff some choice of
  excluded label, relabeling of the remaining triple, axis roles, and
  reversal mask exhibits the cyclic triple pattern together with one
  triple label uniformly comparable to the excluded one.
* n >= 5: semi-decision.  Formal fixity by cofactor expansion is a sound
  certificate for FIXED; removing an extreme label together with an axis
  whose induced sub-configuration is non-fixed is a sound certificate for
  NON_FIXED.  Anything else is UNKNOWN and flagged as conjecture frontier.

Partial configurations reduce to their linear extensions: non-fixed as
soon as one extension is, fixed when all extensions are fixed with one
common sign.

Verdicts carry replayable certificates (plain dicts, JSON-ready).  The
memo table for n >= 4 is keyed by canonical code (see
:mod:`simplexfix.equivalence`) with the sign transported through the group
element's parity.  Concurrent insert-or-get races are benign because
stored values are canonical.

Configuration and Ordering are boundary types: they validate input, carry
the public API, and validate certificate payloads (a representative, an
extension's orders).  Past that boundary every path works on ``_Lin``, the
per-axis label sequences of a linear configuration: one dispatch
(``_decide_lin``) decides inputs, expansion children, representatives and
the extensions of partial inputs; one walker (``_walk_chain``) follows and
checks extreme-removal chains for witnesses and replay; replay compares
codes under the group action instead of rebuilding orderings.
"""

from __future__ import annotations

import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

from . import equivalence
from .orders import (
    Configuration,
    Ordering,
    PointAssignment,
    _det_int,
    _det_sign_int,
    _int_rows,
    det_sign,
    satisfies,
)
from .signs import ConfigSign, DetSign, FormalSign, fadd, fmul


class NotNonFixedError(ValueError):
    """Witness construction was asked for a configuration that is fixed."""


class InternalCheckError(RuntimeError):
    """A verification that must never fail did; indicates a bug."""


class CrossCheckError(InternalCheckError):
    """The three dimension-3 characterizations disagreed."""


class Status(Enum):
    FIXED = "fixed"
    NON_FIXED = "non_fixed"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class FixityVerdict:
    """Outcome of a fixity decision.

    ``sign`` is PLUS or MINUS for FIXED, BOTH for NON_FIXED, None for
    UNKNOWN.  ``frontier`` marks n >= 5 UNKNOWNs, where the semi-decision
    found no certificate; such a configuration may be fixed or non-fixed.
    """

    status: Status
    sign: ConfigSign | None
    certificate: dict | None = None
    frontier: bool = False
    samples: dict | None = None

    def to_json(self) -> dict:
        out = {"status": self.status.value}
        if self.sign is not None:
            out["sign"] = str(self.sign)
        if self.certificate is not None:
            out["certificate"] = self.certificate
        if self.frontier:
            out["frontier"] = True
        if self.samples is not None:
            out["samples"] = self.samples
        return out


@dataclass(frozen=True)
class WitnessPair:
    """Two satisfying assignments with strictly opposite determinant signs."""

    plus: PointAssignment
    minus: PointAssignment


def verify_witness(pair: WitnessPair, cfg: Configuration) -> bool:
    return (
        satisfies(pair.plus, cfg)
        and satisfies(pair.minus, cfg)
        and det_sign(pair.plus) is DetSign.POS
        and det_sign(pair.minus) is DetSign.NEG
    )


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
            tuple(_without(seq, seq.index(label)) for seq in _without(self.seqs, axis_index)),
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


def _extensions(cfg: Configuration):
    """The linear extensions of a configuration, in the order of
    :func:`~simplexfix.orders.configuration_extensions`."""
    for seqs in product(*(o.extension_sequences() for o in cfg.orders)):
        yield _Lin(cfg.labels, cfg.axes, seqs)


# ---------------------------------------------------------------------------
# base dimensions


def decide_dim1(cfg: Configuration) -> FixityVerdict:
    """n = 2 base case: det is the difference of the two coordinates."""
    if cfg.n() != 2:
        raise ValueError("decide_dim1 needs exactly two labels")
    if not cfg.is_linear():
        raise ValueError("decide_dim1 needs a linear ordering; partial input goes through decide()")
    return _decide_lin(_Lin.of(cfg))


def _dim2_verdict(lin: _Lin) -> FixityVerdict:
    sx, sy = lin.seqs
    relation = _relation(sx, sy)
    if relation is not None:
        return FixityVerdict(
            Status.NON_FIXED, ConfigSign.BOTH, {"type": "dim2_non_fixed", "relation": relation}
        )
    # Subtract the column of the middle label of the first axis; the 2x2
    # formal determinant is then definite (the middle-in-x label is extreme
    # in y whenever the configuration is fixed).
    mid = sx[1]
    col = lin.labels.index(mid)
    q1, q2 = (lab for lab in lin.labels if lab != mid)
    d1 = lin.diff(q1, mid, 0)
    d2 = lin.diff(q2, mid, 0)
    d3 = lin.diff(q1, mid, 1)
    d4 = lin.diff(q2, mid, 1)
    det2 = fadd(fmul(d1, d4), FormalSign(-(fmul(d2, d3)).value))
    value = det2 if col % 2 == 0 else FormalSign(-det2.value)
    if not value.definite:
        raise InternalCheckError("dimension-2 formal determinant must be definite here")
    sign = ConfigSign(value.value)
    cert = {"type": "dim2_fixed", "middle": mid, "sign": str(sign)}
    return FixityVerdict(Status.FIXED, sign, cert)


def decide_dim2(cfg: Configuration) -> FixityVerdict:
    """Exact n = 3 decision: non-fixed iff the orderings are equal or
    mutual reversals, otherwise fixed with the formal 2x2 sign."""
    if cfg.n() != 3:
        raise ValueError("decide_dim2 needs exactly three labels")
    return _dim2_verdict(_Lin.of(cfg))


def is_conformal(cfg: Configuration, triple: Iterable, i, j) -> bool:
    """True iff the two axis orderings restricted to the triple are equal
    or exact reversals (the non-fixed 2D sub-pattern)."""
    triple = set(triple)
    oi = cfg.order_for(i).restrict(triple)
    oj = cfg.order_for(j).restrict(triple)
    if not (oi.is_linear() and oj.is_linear()):
        raise ValueError("is_conformal needs linear restrictions on the triple")
    return _relation(oi.sequence(), oj.sequence()) is not None


# ---------------------------------------------------------------------------
# cofactor expansion


def _expansion_sign(lin: _Lin, e_i, e_j, children: Sequence[FixityVerdict]) -> FormalSign:
    """Formal sign of the expansion of the determinant w.r.t. (e_i, e_j).

    ``children[k]`` is the verdict on the sub-configuration dropping
    ``e_i`` and axis ``k``; a child that is not fixed collapses the sign.
    """
    i = lin.labels.index(e_i) + 1
    total = 0
    for k, child in enumerate(children):
        if child.status is not Status.FIXED:
            return FormalSign.UNKNOWN
        # (-1)^(i + (k+1) + 1) for 1-based axis position k+1
        parity = 1 if (i + k) % 2 == 0 else -1
        term = parity * lin.diff(e_i, e_j, k).value * child.sign.value
        if total and term != total:
            return FormalSign.UNKNOWN
        total = term
    return FormalSign(total)


def expansion_formal_sign(cfg: Configuration, e_i, e_j, child_verdicts: Mapping) -> FormalSign:
    """Formal sign of the cofactor expansion with pivot pair ``(e_i, e_j)``.

    ``child_verdicts`` maps each axis to the verdict of the configuration
    induced by dropping ``e_i`` and that axis.  Terms with a non-fixed or
    unknown child collapse to UNKNOWN.
    """
    if e_i == e_j:
        raise ValueError("pivot labels must differ")
    return _expansion_sign(_Lin.of(cfg), e_i, e_j, [child_verdicts[a] for a in cfg.axes])


def _expansion_fixed(lin: _Lin, e_i, e_j, children, value: FormalSign) -> FixityVerdict:
    """FIXED verdict with the certificate of a definite expansion sign."""
    pivot_index = lin.labels.index(e_i) + 1
    cert = {
        "type": "expansion",
        "pivot": [e_i, e_j],
        "terms": [
            {
                "axis": lin.axes[a],
                "parity": "+" if (pivot_index + a) % 2 == 0 else "-",
                "diff": str(lin.diff(e_i, e_j, a)),
                "child_status": child.status.value,
                "child_sign": str(child.sign) if child.sign else None,
                "child": child.certificate,
            }
            for a, child in enumerate(children)
        ],
        "sign": str(FormalSign(value.value)),
    }
    return FixityVerdict(Status.FIXED, ConfigSign(value.value), cert)


def formally_fixed_by_expansion(cfg: Configuration) -> FixityVerdict:
    """Search all ordered pivot pairs for a definite expansion sign.

    Sound for FIXED at every n; complete at n <= 4.  Children are decided
    exactly up to n = 4 and recursively semi-decided beyond.  Returns
    UNKNOWN when every pivot collapses.
    """
    if cfg.n() < 3:
        raise ValueError("expansion needs at least three labels")
    return _expansion_verdict(_Lin.of(cfg))


def _expansion_verdict(lin: _Lin) -> FixityVerdict:
    for e_i in lin.labels:
        children = [_decide_lin(lin.drop(e_i, a)) for a in range(len(lin.axes))]
        if not any(v.status is Status.FIXED for v in children):
            continue
        for e_j in lin.labels:
            if e_j == e_i:
                continue
            value = _expansion_sign(lin, e_i, e_j, children)
            if value.definite:
                return _expansion_fixed(lin, e_i, e_j, children, value)
    return FixityVerdict(Status.UNKNOWN, None, None)


# ---------------------------------------------------------------------------
# extreme-element non-fixity


def _lemma_certificate(lin: _Lin):
    """Certificate of a chain of extreme-label removals (each with one
    axis) ending at an equal-or-reversed pair of 3-label orderings, or
    None when there is no such chain."""
    if len(lin.labels) == 3:
        relation = _relation(*lin.seqs)
        if relation is None:
            return None
        return {
            "type": "extreme_lemma",
            "steps": [],
            "base": {"type": "dim2_non_fixed", "relation": relation},
        }
    for a, seq in enumerate(lin.seqs):
        for e, kind in ((seq[0], "min"), (seq[-1], "max")):
            cert = _lemma_certificate(lin.drop(e, a))
            if cert is not None:
                cert["steps"].insert(0, {"label": e, "axis": lin.axes[a], "extreme": kind})
                return cert
    return None


def _walk_chain(lin: _Lin, cert: dict):
    """Follow an extreme-removal certificate from ``lin``.

    Checks that every step's label is the named extreme (``"min"`` or
    ``"max"``) of the named axis, and that the chain ends at two 3-label
    orderings in the named base relation.  Returns the (configuration,
    label, axis index) of every step and the final configuration; raises
    ValueError naming the first check that fails.
    """
    stack = []
    cur = lin
    for step in cert["steps"]:
        label, axis, kind = step["label"], step["axis"], step["extreme"]
        if axis not in cur.axes:
            raise ValueError(f"certificate invalid: axis {axis!r} missing")
        a = cur.axes.index(axis)
        seq = cur.seqs[a]
        if (kind, label) not in (("min", seq[0]), ("max", seq[-1])):
            raise ValueError(f"certificate invalid: {label!r} is not the {kind} of {axis!r}")
        stack.append((cur, label, a))
        cur = cur.drop(label, a)
    relation = cert["base"]["relation"]
    if len(cur.labels) != 3 or _relation(*cur.seqs) != relation:
        raise ValueError(f"certificate invalid: the chain does not end in a {relation!r} pair")
    return stack, cur


def non_fixed_by_extreme_lemma(cfg: Configuration) -> FixityVerdict:
    """Search for an extreme label whose removal (with one axis) leaves a
    non-fixed configuration; sound for NON_FIXED, complete at n = 4."""
    if cfg.n() < 3:
        raise ValueError("the extreme-element lemma needs at least three labels")
    return _lemma_verdict(_Lin.of(cfg))


def _lemma_verdict(lin: _Lin) -> FixityVerdict:
    cert = _lemma_certificate(lin)
    if cert is None:
        return FixityVerdict(Status.UNKNOWN, None, None)
    return FixityVerdict(Status.NON_FIXED, ConfigSign.BOTH, cert)


# ---------------------------------------------------------------------------
# exact dimension 3


def _dim3_fixed_search(lin: _Lin):
    """Find (excluded label D, triple label X) certifying the fixed shape.

    Searches reversal masks, axis roles, and triple labelings directly:
    with the role-z order written as the sequence ``oz``, the roles demand
    the role-x order equal ``(oz[1], oz[2], oz[0])`` and the role-y order
    ``(oz[2], oz[0], oz[1])``; X must sit on one side of D on every axis
    after reversal.
    """
    axis_range = range(3)
    for d_label in lin.labels:
        restr = tuple(
            tuple(l for l in lin.seqs[a] if l != d_label) for a in axis_range
        )
        if (
            _relation(restr[0], restr[1])
            or _relation(restr[0], restr[2])
            or _relation(restr[1], restr[2])
        ):
            continue
        d_below = tuple(
            frozenset(lin.seqs[a][: lin.seqs[a].index(d_label)]) for a in axis_range
        )
        for mask in range(8):
            rr = tuple(
                tuple(reversed(restr[a])) if mask >> a & 1 else restr[a]
                for a in axis_range
            )
            for rho in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
                oz = rr[rho[2]]
                if rr[rho[0]] != (oz[1], oz[2], oz[0]):
                    continue
                if rr[rho[1]] != (oz[2], oz[0], oz[1]):
                    continue
                for x_label in oz:
                    sides = [
                        (x_label in d_below[a]) ^ bool(mask >> a & 1) for a in axis_range
                    ]
                    if sides[0] == sides[1] == sides[2]:
                        return d_label, x_label
    return None


def decide_dim3(cfg: Configuration) -> FixityVerdict:
    """Exact n = 4 decision via the combinatorial characterization.

    FIXED configurations get their sign from the cofactor expansion with
    pivot (D, X); everything else is NON_FIXED with an extreme-lemma
    certificate (the lemma is complete at this size).
    """
    if cfg.n() != 4:
        raise ValueError("decide_dim3 needs exactly four labels")
    return _dim3_verdict(_Lin.of(cfg))


def _dim3_verdict(lin: _Lin) -> FixityVerdict:
    found = _dim3_fixed_search(lin)
    if found is None:
        verdict = _lemma_verdict(lin)
        if verdict.status is not Status.NON_FIXED:
            raise InternalCheckError("non-fixed n=4 configuration must satisfy the extreme lemma")
        return verdict
    d_label, x_label = found
    children = [_decide_lin(lin.drop(d_label, a)) for a in range(3)]
    value = _expansion_sign(lin, d_label, x_label, children)
    if not value.definite:
        raise InternalCheckError("dim-3 fixed shape must yield a definite expansion sign")
    return _expansion_fixed(lin, d_label, x_label, children, value)


def crosscheck_dim3(cfg: Configuration) -> FixityVerdict:
    """Run the three n = 4 characterizations and insist they agree."""
    if cfg.n() != 4:
        raise ValueError("crosscheck_dim3 needs exactly four labels")
    return _crosscheck_dim3(_Lin.of(cfg))


def _crosscheck_dim3(lin: _Lin) -> FixityVerdict:
    direct = _dim3_verdict(lin)
    by_expansion = _expansion_verdict(lin)
    by_lemma = _lemma_verdict(lin)
    ok = (
        (direct.status is Status.FIXED)
        == (by_expansion.status is Status.FIXED)
        == (by_lemma.status is Status.UNKNOWN)
    )
    if ok and direct.status is Status.FIXED and direct.sign is not by_expansion.sign:
        ok = False
    if not ok:
        raise CrossCheckError(
            f"dim-3 characterizations disagree: direct={direct.status.value}, "
            f"expansion={by_expansion.status.value}, lemma={by_lemma.status.value}"
        )
    return direct


# ---------------------------------------------------------------------------
# the decider

_MEMO: dict = {}


def clear_memo() -> None:
    _MEMO.clear()


def _decide_lin(lin: _Lin, debug_crosscheck: bool = False) -> FixityVerdict:
    """Decide a linear configuration: two and three labels directly, four
    or more through the memo, or at n = 4 with ``debug_crosscheck`` by all
    three characterizations."""
    n = len(lin.labels)
    if n == 2:
        sign = ConfigSign.PLUS if lin.seqs[0][0] == lin.labels[0] else ConfigSign.MINUS
        return FixityVerdict(Status.FIXED, sign, {"type": "dim1", "sign": str(sign)})
    if n == 3:
        return _dim2_verdict(lin)
    if debug_crosscheck and n == 4:
        return _crosscheck_dim3(lin)
    return _decide_memoized(lin)


def _decide_memoized(lin: _Lin) -> FixityVerdict:
    """Decide a linear configuration of four or more labels by deciding
    its canonical representative once and transporting the verdict."""
    n = len(lin.labels)
    canon, g, parity = equivalence.canonical(equivalence.encode(lin.labels, lin.seqs), n)
    hit = _MEMO.get(canon)
    if hit is None:
        labels = equivalence.default_labels(n)
        rep = _Lin(labels, equivalence.default_axes(n - 1), equivalence.decode(canon, labels))
        if n == 4:
            verdict = _dim3_verdict(rep)
        else:
            verdict = _expansion_verdict(rep)
            if verdict.status is Status.UNKNOWN:
                verdict = _lemma_verdict(rep)
        rep_payload = {
            "labels": list(rep.labels),
            "axes": list(rep.axes),
            "sequences": [list(seq) for seq in rep.seqs],
        }
        hit = _MEMO[canon] = (verdict, rep_payload)
    verdict, rep_payload = hit
    if verdict.status is Status.UNKNOWN:
        return FixityVerdict(Status.UNKNOWN, None, None, frontier=True)
    cert = {
        "type": "equivalent",
        "axis_source": list(g.axis_source),
        "label_perm": list(g.label_perm),
        "reversals": list(g.reversals),
        "parity": str(parity),
        "representative": rep_payload,
        "inner": verdict.certificate,
    }
    return FixityVerdict(verdict.status, ConfigSign(parity.value * verdict.sign.value), cert)


def _totally_incomparable_pair(cfg: Configuration):
    for e, f in combinations(cfg.labels, 2):
        if not any(o.comparable(e, f) for o in cfg.orders):
            return e, f
    return None


def _sample_values(cfg: Configuration, rng: random.Random) -> dict:
    """One random satisfying assignment: per axis, sorted distinct integers
    laid onto a random linear extension of the axis ordering."""
    values = {}
    n = cfg.n()
    for axis, ordering in zip(cfg.axes, cfg.orders):
        draws = sorted(rng.sample(range(1 << 40), n))
        if ordering.is_linear():
            seq = ordering.sequence()
        else:
            remaining = list(cfg.labels)
            seq = []
            while remaining:
                candidates = [
                    lab
                    for lab in remaining
                    if not any(ordering.less(o, lab) for o in remaining if o != lab)
                ]
                seq.append(candidates[rng.randrange(len(candidates))])
                remaining.remove(seq[-1])
        for v, lab in zip(draws, seq):
            values[(lab, axis)] = v
    return values


def _det_sign_of_values(cfg: Configuration, values: Mapping) -> int:
    first = cfg.labels[0]
    rows = [
        [values[(lab, axis)] - values[(first, axis)] for lab in cfg.labels[1:]]
        for axis in cfg.axes
    ]
    return _det_sign_int(rows)


def _hunt_opposite_signs(cfg: Configuration, seed, attempts: int = 128):
    rng = random.Random(f"hunt:{seed}")
    found = {}
    for _ in range(attempts):
        values = _sample_values(cfg, rng)
        s = _det_sign_of_values(cfg, values)
        if s != 0 and s not in found:
            found[s] = values
        if len(found) == 2:
            return found[1], found[-1]
    return None


def decide(
    cfg: Configuration,
    debug_crosscheck: bool = False,
    frontier_samples: int = 1000,
    seed: int = 0,
) -> FixityVerdict:
    """Decide fixity of any configuration (orderings may be partial).

    Partial inputs run through their linear extensions: NON_FIXED on the
    first non-fixed extension, FIXED when every extension is fixed with
    one common sign.  Extensions that are all fixed but with clashing
    signs only occur for the empty two-label configuration, where both
    orientations are trivially realizable; at n >= 3 a clash would
    contradict the convexity of the satisfying region and raises.

    UNKNOWN verdicts at n >= 5 are flagged ``frontier`` and carry sampling
    statistics (``frontier_samples`` draws from ``seed``).
    """
    if cfg.is_linear():
        verdict = _decide_lin(_Lin.of(cfg), debug_crosscheck)
        if verdict.frontier and frontier_samples > 0:
            samples = sample_signs(cfg, seed, frontier_samples)
            verdict = FixityVerdict(
                verdict.status, verdict.sign, verdict.certificate, True, samples
            )
        return verdict

    pair = _totally_incomparable_pair(cfg)
    if pair is not None and cfg.n() >= 3:
        hunt = _hunt_opposite_signs(cfg, seed)
        if hunt is not None:
            plus, minus = hunt
            cert = {
                "type": "sampled_witness",
                "pair": list(pair),
                "plus": _values_json(cfg, plus),
                "minus": _values_json(cfg, minus),
            }
            return FixityVerdict(Status.NON_FIXED, ConfigSign.BOTH, cert)

    signs = set()
    count = 0
    saw_unknown = False
    for ext in _extensions(cfg):
        verdict = _decide_lin(ext, debug_crosscheck)
        count += 1
        if verdict.status is Status.NON_FIXED:
            cert = {
                "type": "extension",
                "orders": {a: list(seq) for a, seq in zip(ext.axes, ext.seqs)},
                "inner": verdict.certificate,
            }
            return FixityVerdict(Status.NON_FIXED, ConfigSign.BOTH, cert)
        if verdict.status is Status.UNKNOWN:
            saw_unknown = True
        else:
            signs.add(verdict.sign)
    if saw_unknown:
        verdict = FixityVerdict(Status.UNKNOWN, None, None, frontier=True)
        if frontier_samples > 0:
            samples = sample_signs(cfg, seed, frontier_samples)
            verdict = FixityVerdict(Status.UNKNOWN, None, None, True, samples)
        return verdict
    if len(signs) == 1:
        sign = signs.pop()
        cert = {"type": "extensions_all_fixed", "count": count, "sign": str(sign)}
        return FixityVerdict(Status.FIXED, sign, cert)
    # Extensions all fixed with both signs realized.
    if cfg.n() == 2:
        cert = {"type": "opposite_extensions", "count": count}
        return FixityVerdict(Status.NON_FIXED, ConfigSign.BOTH, cert)
    raise InternalCheckError(
        "extensions of a partial configuration cannot be all fixed with "
        "disagreeing signs beyond n=2"
    )


# ---------------------------------------------------------------------------
# witness construction


def _values_json(cfg: Configuration, values: Mapping) -> dict:
    return {
        str(lab): {str(a): str(Fraction(values[(lab, a)])) for a in cfg.axes}
        for lab in cfg.labels
    }


def _det_value(cfg_labels, cfg_axes, values: Mapping) -> Fraction:
    """Exact determinant of rational values: denominators cleared row-wise,
    the integer determinant divided by the product of the row scales."""
    first = cfg_labels[0]
    rows, scale = _int_rows(
        [
            [values[(lab, axis)] - values[(first, axis)] for lab in cfg_labels[1:]]
            for axis in cfg_axes
        ]
    )
    return Fraction(_det_int(rows), scale)


def _witness_dim2_values(lin: _Lin):
    """Witness pair for an equal-or-reversed pair of 3-label orderings.

    Start from collinear points (determinant zero) and nudge one
    coordinate by +-1/2 along its nonzero cofactor.
    """
    sx, sy = lin.seqs
    ax, ay = lin.axes
    base = {}
    for i, lab in enumerate(sx):
        base[(lab, ax)] = Fraction(i)
        base[(lab, ay)] = Fraction(i) if sx == sy else Fraction(-i)
    target = sx[-1]
    eps = Fraction(1, 2)
    out = {}
    for direction in (1, -1):
        cand = dict(base)
        cand[(target, ay)] += eps * direction
        value = _det_value(lin.labels, lin.axes, cand)
        if value > 0:
            out[1] = cand
        elif value < 0:
            out[-1] = cand
    if len(out) != 2:
        raise InternalCheckError("collinear base perturbation must realize both signs")
    return out[1], out[-1]


def _lift_witness(lin: _Lin, e, axis_index: int, child_pairs):
    """Lift child witnesses (dropping ``e`` and one axis) to the full
    configuration.

    All coordinates except ``x_{e,b}`` are filled first (fresh positions on
    the dropped axis, midpoints for ``e`` elsewhere); the determinant is
    then affine in ``x_{e,b}`` with slope plus/minus the child determinant,
    so pushing the extreme coordinate past an explicit bound realizes the
    wanted sign.
    """
    n = len(lin.labels)
    b = lin.axes[axis_index]
    seq_b = lin.seqs[axis_index]
    e_min = seq_b[0] == e
    results = {}
    for want in (1, -1):
        done = False
        for child_values in child_pairs:
            values = dict(child_values)
            rest = [lab for lab in seq_b if lab != e]
            for i, lab in enumerate(rest):
                values[(lab, b)] = Fraction(i)
            for a in range(len(lin.axes)):
                if a == axis_index:
                    continue
                axis = lin.axes[a]
                seq = lin.seqs[a]
                i = seq.index(e)
                if i == 0:
                    val = Fraction(values[(seq[1], axis)]) - 1
                elif i == n - 1:
                    val = Fraction(values[(seq[-2], axis)]) + 1
                else:
                    val = (
                        Fraction(values[(seq[i - 1], axis)])
                        + Fraction(values[(seq[i + 1], axis)])
                    ) / 2
                values[(e, axis)] = val
            values[(e, b)] = Fraction(0)
            g0 = _det_value(lin.labels, lin.axes, values)
            values[(e, b)] = Fraction(1)
            g1 = _det_value(lin.labels, lin.axes, values)
            alpha = g1 - g0
            if alpha == 0:
                raise InternalCheckError("expansion slope must equal the nonzero child determinant")
            if e_min:
                if want * alpha > 0:
                    continue  # determinant drifts the wrong way toward -inf
                t = min(Fraction(want - g0, alpha), Fraction(-1))
            else:
                if want * alpha < 0:
                    continue
                t = max(Fraction(want - g0, alpha), Fraction(n))
            values[(e, b)] = t
            check = _det_value(lin.labels, lin.axes, values)
            if (check > 0) != (want > 0) or check == 0:
                raise InternalCheckError("lifted witness determinant has the wrong sign")
            results[want] = values
            done = True
            break
        if not done:
            raise InternalCheckError("no child witness fits the wanted orientation")
    return results[1], results[-1]


def _witness_values_linear(lin: _Lin, cert: dict | None = None):
    if len(lin.labels) == 2:
        raise NotNonFixedError("a linear two-label configuration is always fixed")
    if cert is None:
        cert = _lemma_certificate(lin)
        if cert is None:
            raise NotNonFixedError(
                "no extreme-removal chain found; the configuration is fixed "
                "or beyond the non-fixity semi-decision"
            )
    stack, base = _walk_chain(lin, cert)
    pair = _witness_dim2_values(base)
    for parent, e, a in reversed(stack):
        pair = _lift_witness(parent, e, a, pair)
    return pair


def build_witness(cfg: Configuration, verdict: FixityVerdict | None = None) -> WitnessPair:
    """Explicit rational assignments certifying non-fixity.

    Both assignments satisfy the configuration and their determinant signs
    are strictly opposite; the result is verified exactly before being
    returned.  When ``verdict`` carries an extreme-removal certificate its
    chain is followed (and validated) instead of searching afresh.  Raises
    :class:`NotNonFixedError` when the configuration is fixed (or, beyond
    n = 4, not provably non-fixed).
    """
    cert = None
    if verdict is not None and verdict.certificate is not None:
        if verdict.certificate.get("type") == "extreme_lemma":
            cert = verdict.certificate
    if cfg.is_linear():
        plus, minus = _witness_values_linear(_Lin.of(cfg), cert)
    elif cfg.n() == 2:
        # the empty ordering: the two labels swap places
        first, second = cfg.labels
        axis = cfg.axes[0]
        plus, minus = {(first, axis): 0, (second, axis): 1}, {(first, axis): 1, (second, axis): 0}
    else:
        for ext in _extensions(cfg):
            if _decide_lin(ext).status is Status.NON_FIXED:
                plus, minus = _witness_values_linear(ext)
                break
        else:
            raise NotNonFixedError("no provably non-fixed linear extension found")
    pair = WitnessPair(
        PointAssignment(cfg.labels, cfg.axes, plus),
        PointAssignment(cfg.labels, cfg.axes, minus),
    )
    if not verify_witness(pair, cfg):
        raise InternalCheckError("constructed witness failed exact verification")
    return pair


# ---------------------------------------------------------------------------
# certificate replay


def _replay(cfg: Configuration, status: Status, sign, cert) -> bool:
    kind = cert["type"]
    if kind == "extension":
        seqs = tuple(tuple(cert["orders"][a]) for a in cfg.axes)
        for ordering, seq in zip(cfg.orders, seqs):
            if not ordering.pairs <= Ordering.chain(seq, cfg.labels).pairs:
                return False
        ext = _Lin(cfg.labels, cfg.axes, seqs)
        return status is Status.NON_FIXED and _replay_lin(ext, status, ConfigSign.BOTH, cert["inner"])
    if kind == "extensions_all_fixed":
        verdicts = [_decide_lin(ext) for ext in _extensions(cfg)]
        return (
            status is Status.FIXED
            and len(verdicts) == cert["count"]
            and all(v.status is Status.FIXED and v.sign is sign for v in verdicts)
        )
    if kind == "opposite_extensions":
        verdicts = [_decide_lin(ext) for ext in _extensions(cfg)]
        signs = {v.sign for v in verdicts if v.status is Status.FIXED}
        return status is Status.NON_FIXED and len(verdicts) == cert["count"] and len(signs) == 2
    if kind == "sampled_witness":
        pair = WitnessPair(
            _assignment_from_json(cfg, cert["plus"]),
            _assignment_from_json(cfg, cert["minus"]),
        )
        return status is Status.NON_FIXED and verify_witness(pair, cfg)
    return _replay_lin(_Lin.of(cfg), status, sign, cert)


def _replay_lin(lin: _Lin, status: Status, sign, cert) -> bool:
    kind = cert["type"]
    if kind in ("dim1", "dim2_fixed", "dim2_non_fixed"):
        if len(lin.labels) > 3:
            return False
        fresh = _decide_lin(lin)
        return fresh.status is status and fresh.sign is sign and fresh.certificate["type"] == kind
    if kind == "expansion":
        e_i, e_j = cert["pivot"]
        axes = [term["axis"] for term in cert["terms"]]
        if e_i == e_j or len(axes) != len(lin.axes) or set(axes) != set(lin.axes):
            return False
        children = [_decide_lin(lin.drop(e_i, a)) for a in range(len(lin.axes))]
        value = _expansion_sign(lin, e_i, e_j, children)
        return (
            status is Status.FIXED
            and value.definite
            and sign is ConfigSign(value.value)
            and str(value) == cert["sign"]
        )
    if kind == "extreme_lemma":
        if status is not Status.NON_FIXED:
            return False
        try:
            _walk_chain(lin, cert)
        except ValueError:
            return False
        return True
    if kind == "equivalent":
        g = equivalence.GroupElement(
            tuple(cert["axis_source"]),
            tuple(cert["label_perm"]),
            tuple(bool(b) for b in cert["reversals"]),
        )
        rep = cert["representative"]
        rep_lin = _Lin.of(Configuration.from_sequences(rep["labels"], rep["axes"], rep["sequences"]))
        image = equivalence.act(g, equivalence.encode(lin.labels, lin.seqs), len(lin.labels))
        if image != equivalence.encode(rep_lin.labels, rep_lin.seqs):
            return False
        inner_sign = None
        if status is Status.FIXED:
            parity = equivalence.sign_parity(g)
            inner_sign = ConfigSign(parity.value * sign.value)
        elif status is Status.NON_FIXED:
            inner_sign = ConfigSign.BOTH
        return _replay_lin(rep_lin, status, inner_sign, cert["inner"])
    raise ValueError(f"unknown certificate type {kind!r}")


def _assignment_from_json(cfg: Configuration, payload) -> PointAssignment:
    values = {
        (lab, axis): Fraction(payload[str(lab)][str(axis)])
        for lab in cfg.labels
        for axis in cfg.axes
    }
    return PointAssignment(cfg.labels, cfg.axes, values)


def replay_certificate(cfg: Configuration, verdict: FixityVerdict) -> bool:
    """Re-derive a verdict from its certificate alone.

    Returns False when the certificate does not substantiate the claimed
    status and sign; raises on malformed certificates.
    """
    if verdict.certificate is None:
        return verdict.status is Status.UNKNOWN
    return _replay(cfg, verdict.status, verdict.sign, verdict.certificate)


# ---------------------------------------------------------------------------
# sampling oracle

_CHUNK = 512


def _sample_chunk(cfg: Configuration, seed, chunk_index: int, count: int):
    rng = random.Random(f"{seed}:{chunk_index}")
    pos = neg = zero = 0
    for _ in range(count):
        values = _sample_values(cfg, rng)
        s = _det_sign_of_values(cfg, values)
        if s > 0:
            pos += 1
        elif s < 0:
            neg += 1
        else:
            zero += 1
    return pos, neg, zero


def sample_signs(cfg: Configuration, seed: int, count: int, threads: int = 1) -> dict:
    """Histogram of determinant signs over random satisfying assignments.

    Deterministic given ``seed`` and independent of ``threads``: draws are
    chunked and each chunk's generator is seeded from (seed, chunk index).
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    chunks = [
        (i, min(_CHUNK, count - i * _CHUNK))
        for i in range((count + _CHUNK - 1) // _CHUNK)
    ]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(
                pool.map(lambda c: _sample_chunk(cfg, seed, c[0], c[1]), chunks)
            )
    else:
        parts = [_sample_chunk(cfg, seed, i, c) for i, c in chunks]
    pos = sum(p for p, _, _ in parts)
    neg = sum(n for _, n, _ in parts)
    zero = sum(z for _, _, z in parts)
    return {"pos": pos, "neg": neg, "zero": zero}
