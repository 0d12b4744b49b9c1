"""Fixity deciders, certificates, witness construction, and sampling.

Decision strategy by size of the label set:

* n = 2: the single-axis determinant is one coordinate difference.
* n = 3: a linear configuration is non-fixed exactly when its two
  orderings are equal or mutual reversals; otherwise the 2x2 formal
  determinant obtained by subtracting the column of the middle label of
  the first axis has a definite sign.
* n >= 4: three sound deciders in turn.  First the extreme-element lemma:
  removing an extreme label together with an axis whose induced
  sub-configuration is non-fixed certifies NON_FIXED.  Then the paper's
  cofactor expansion: a definite formal sign certifies FIXED.  At most one
  of the two can succeed; when neither does, the ray-determinant
  criterion decides.  At n = 4 the lemma and the expansion are complete,
  and the paper's direct characterization (fixed iff some excluded label,
  relabeled triple, axis roles and reversal mask show the cyclic triple
  pattern with one triple label uniformly comparable to the excluded one)
  is an independent check: :func:`decide_dim3` runs it once beside the
  lemma and the expansion search and raises on any split, and
  ``decide(..., debug_crosscheck=True)`` runs the same check.

The ray-determinant criterion decides every configuration, linear or
partial.  The determinant is multilinear in the axis rows, and each
axis's satisfying coordinates are, up to translation, the strictly
positive combinations of the indicator vectors of its filters (proper
nonempty up-sets; Stanley, "Two poset polytopes"), the suffixes of a
chain.  So the configuration is fixed iff the determinants of all tuples
of one filter per axis share a weak sign (they cannot all vanish, as the
satisfying region is open), and non-fixed as soon as one tuple is
positive and one negative.  A partial configuration is decided as the
landmark scan decides a pattern: a chain of extreme removals in its first
linear extension, whose region lies inside its own, certifies it
non-fixed, and otherwise the filter pass decides.

Verdicts carry replayable certificates (plain dicts, JSON-ready).  The
memo table for n >= 4 is keyed by canonical code (see
:mod:`simplexfix.equivalence`) with the sign transported through the group
element's parity; it holds the 16,384 most recently used classes, each as
an int sign and its marshalled certificate (see :func:`_decide_class`),
and each lookup unmarshals a certificate of the caller's own.  Concurrent
insert-or-get races are benign because stored values are canonical.

Configuration and Ordering are boundary types: they validate input and
carry the public API.  Past that boundary every path works on label
sequences: ``_Lin``, the per-axis sequences of a linear configuration,
and for partial input the first extension and the filters read off its
pairs.  One dispatch (``_decide_lin``) decides linear inputs, expansion
children and representatives; one search (``_extension_verdict``)
decides partial input and finds, on the input itself, every witness
that follows no certificate; one walker (``_walk_chain``) follows and
checks extreme-removal chains for witnesses and replay; one ray pass
(``_ray_pass``) serves chains, partial orders and the landmark scan's
patterns; replay compares codes under the group action, checks an
extension by positions, and proves an expansion child's stated sign by
the child's own certificate, deciding nothing.
``_Lin``, the extreme-removal search, the ray pass, :class:`Status` and
the size limit live in :mod:`simplexfix.criteria`, which the landmark
scan imports without this module.

Configurations of more than :data:`MAX_LABELS` labels are refused with a
ValueError: the ray criterion has ``(n-1)^(n-1)`` tuples on linear input
and the lemma and expansion searches grow factorially.
"""

from __future__ import annotations

import marshal
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import prod
from typing import Iterable, Mapping, Sequence

from .criteria import (
    MAX_LABELS,
    InternalCheckError,
    Status,
    _filters,
    _lemma_certificate,
    _Lin,
    _ray_pass,
    _ray_status,
    _ray_steps,
    _relation,
    check_size,
    default_axes,
    default_labels,
)
from .equivalence import GroupElement, act, canonical, decode, encode, sign_parity
from .orders import (
    Configuration,
    PointAssignment,
    _det_sign_int,
    _det_value,
    det_sign,
    satisfies,
)
from .signs import ConfigSign, DetSign, FormalSign, fneg, formal_det_sign_2x2


class NotNonFixedError(ValueError):
    """Witness construction was asked for a configuration that is fixed."""


class CrossCheckError(InternalCheckError):
    """The three dimension-3 characterizations disagreed."""


@dataclass(frozen=True)
class FixityVerdict:
    """Outcome of a fixity decision.

    ``sign`` is PLUS or MINUS for FIXED, BOTH for NON_FIXED, None for
    UNKNOWN.  :func:`decide` answers FIXED or NON_FIXED at every supported
    size (lemma, then expansion, then the ray criterion at n >= 4); the
    sub-deciders such as :func:`formally_fixed_by_expansion` answer
    UNKNOWN when their own certificate does not exist.
    """

    status: Status
    sign: ConfigSign | None
    certificate: dict | None = None

    def to_json(self) -> dict:
        out = {"status": self.status.value}
        if self.sign is not None:
            out["sign"] = str(self.sign)
        if self.certificate is not None:
            out["certificate"] = self.certificate
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
    others = [lab for lab in lin.labels if lab != mid]
    det2 = formal_det_sign_2x2([[lin.diff(q, mid, a) for q in others] for a in (0, 1)])
    value = det2 if col % 2 == 0 else fneg(det2)
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


def _expansion_sign(lin: _Lin, e_i, e_j, signs: Sequence[int]) -> FormalSign:
    """Formal sign of the expansion of the determinant w.r.t. (e_i, e_j).

    ``signs[k]`` is the sign of the sub-configuration dropping ``e_i`` and
    axis ``k``, 0 when it is not fixed, which collapses the sign.
    """
    i = lin.labels.index(e_i) + 1
    total = 0
    for k, child in enumerate(signs):
        if not child:
            return FormalSign.UNKNOWN
        # (-1)^(i + (k+1) + 1) for 1-based axis position k+1
        parity = 1 if (i + k) % 2 == 0 else -1
        term = parity * lin.diff(e_i, e_j, k).value * child
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
    verdicts = [child_verdicts[a] for a in cfg.axes]
    signs = [v.sign.value if v.status is Status.FIXED else 0 for v in verdicts]
    return _expansion_sign(_Lin.of(cfg), e_i, e_j, signs)


def _expansion_term(lin: _Lin, e_i, e_j, a: int, child_sign: int) -> dict:
    """Term ``a`` of a definite expansion's certificate but for the child's
    own certificate; every child of a definite expansion is fixed."""
    return {
        "axis": lin.axes[a],
        "parity": "+" if (lin.labels.index(e_i) + 1 + a) % 2 == 0 else "-",
        "diff": str(lin.diff(e_i, e_j, a)),
        "child_status": Status.FIXED.value,
        "child_sign": str(ConfigSign(child_sign)),
    }


def _expansion_fixed(lin: _Lin, e_i, e_j, signs: Sequence[int], value: FormalSign) -> FixityVerdict:
    """FIXED verdict with the certificate of a definite expansion sign;
    the children's certificates are built here, for this pivot only."""
    terms = [
        {**_expansion_term(lin, e_i, e_j, a, s), "child": _decide_lin(lin.drop(e_i, a)).certificate}
        for a, s in enumerate(signs)
    ]
    cert = {"type": "expansion", "pivot": [e_i, e_j], "terms": terms, "sign": str(value)}
    return FixityVerdict(Status.FIXED, ConfigSign(value.value), cert)


def formally_fixed_by_expansion(cfg: Configuration) -> FixityVerdict:
    """Search all ordered pivot pairs for a definite expansion sign.

    Sound for FIXED at every n; complete at n <= 4.  Children are decided
    exactly.  Returns UNKNOWN when every pivot collapses.  The certificate
    is the caller's own, as :func:`decide`'s is.
    """
    if cfg.n() < 3:
        raise ValueError("expansion needs at least three labels")
    return _expansion_verdict(_Lin.of(cfg))


def _expansion_verdict(lin: _Lin) -> FixityVerdict:
    for e_i in lin.labels:
        signs = [_lin_sign(lin.drop(e_i, a)) for a in range(len(lin.axes))]
        if not all(signs):
            continue
        for e_j in lin.labels:
            if e_j == e_i:
                continue
            value = _expansion_sign(lin, e_i, e_j, signs)
            if value.definite:
                return _expansion_fixed(lin, e_i, e_j, signs, value)
    return FixityVerdict(Status.UNKNOWN, None, None)


# ---------------------------------------------------------------------------
# extreme-element non-fixity


def _walk_chain(lin: _Lin, cert: dict):
    """Follow an extreme-removal certificate from ``lin``.

    Checks that every step's label is the named extreme (``"min"`` or
    ``"max"``) of the named axis, and that the chain ends at two 3-label
    orderings in the relation of the ``dim2_non_fixed`` base it names.
    Returns the (configuration, label, axis index) of every step and the
    final configuration; raises ValueError naming the first check that
    fails.
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
    relation = _relation(*cur.seqs) if len(cur.labels) == 3 else None
    if relation is None or cert["base"] != {"type": "dim2_non_fixed", "relation": relation}:
        raise ValueError(f"certificate invalid: the chain does not end in its base {cert['base']!r}")
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
# the ray-determinant criterion


def _chain_filters(lin: _Lin) -> list:
    """Per axis, the suffixes of a linear configuration's chain."""
    return [_filters(seq, zip(seq, seq[1:])) for seq in lin.seqs]


def _partial_filters(cfg: Configuration, lin: _Lin) -> list:
    """Per axis, the filters of a configuration's orderings, listed in
    the order of ``lin``, a linear extension of them."""
    return [_filters(seq, o.pairs) for seq, o in zip(lin.seqs, cfg.orders)]


def _ray_search(labels: tuple, gens: Sequence) -> dict:
    """:func:`~simplexfix.criteria._ray_pass` over generators given as
    label tuples: ``gens[a]`` lists axis ``a``'s generators, the indicator
    vectors of its filters."""
    return _ray_pass(len(labels), [_ray_steps(labels, axis_gens) for axis_gens in gens])


def _ray_choice(axes: tuple, gens: Sequence, named: Mapping) -> list:
    """Per axis, the index among its generators of the set a ray
    certificate names (label lists keyed by axis); ValueError when one is
    not a proper nonempty up-set of its axis ordering."""
    chosen = []
    for axis, axis_gens in zip(axes, gens):
        up = named[axis]
        sets = [frozenset(gen) for gen in axis_gens]
        if len(set(up)) != len(up) or frozenset(up) not in sets:
            raise ValueError(f"certificate invalid: {up!r} is not a proper nonempty up-set of {axis!r}")
        chosen.append(sets.index(frozenset(up)))
    return chosen


def _ray_rows(labels: tuple, ups: Sequence) -> list:
    """Coordinate-difference rows (columns ``labels[1:]`` minus
    ``labels[0]``) of the indicator vectors of one label set per axis."""
    rows = []
    for up in ups:
        base = labels[0] in up
        rows.append([(lab in up) - base for lab in labels[1:]])
    return rows


def _ray_pair_ups(cfg, gens: Sequence, cert: Mapping) -> list:
    """The ``plus`` and ``minus`` filter tuples a ``ray_pair`` certificate
    names over ``gens``; ValueError unless each is one filter per axis
    whose determinant has its key's sign."""
    pair = []
    for key, want in (("plus", 1), ("minus", -1)):
        ups = [g[k] for g, k in zip(gens, _ray_choice(cfg.axes, gens, cert[key]))]
        if _det_sign_int(_ray_rows(cfg.labels, ups)) != want:
            raise ValueError(f"certificate invalid: the {key!r} tuple has the wrong determinant sign")
        pair.append(ups)
    return pair


def _ray_verdict(cfg, gens: Sequence) -> FixityVerdict:
    """Exact decision by the ray criterion over per-axis filters ``gens``
    (of a configuration or a ``_Lin``; only its labels and axes are
    read)."""
    status, sign, found = _ray_status(len(cfg.labels), [_ray_steps(cfg.labels, g) for g in gens])
    if status is Status.FIXED:
        cert = {"type": "ray_all", "tuples": prod(map(len, gens)), "sign": str(sign)}
    else:
        cert = {"type": "ray_pair"}
        for key, d in (("plus", 1), ("minus", -1)):
            cert[key] = {axis: list(g[k]) for axis, g, k in zip(cfg.axes, gens, found[d])}
    return FixityVerdict(status, sign, cert)


def _replay_ray(cfg, gens: Sequence, status: Status, sign, cert) -> bool:
    """Replay a ``ray_pair`` or ``ray_all`` certificate over ``gens``."""
    if cert["type"] == "ray_pair":
        try:
            _ray_pair_ups(cfg, gens, cert)
        except ValueError:
            return False
        return status is Status.NON_FIXED
    return (
        status is Status.FIXED
        and cert["tuples"] == prod(map(len, gens))
        and list(_ray_search(cfg.labels, gens)) == [sign.value]
        and cert["sign"] == str(sign)
    )


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
    for d_label in lin.labels:
        restr = tuple(tuple(lab for lab in seq if lab != d_label) for seq in lin.seqs)
        if any(_relation(restr[a], restr[b]) for a, b in ((0, 1), (0, 2), (1, 2))):
            continue
        d_below = tuple(frozenset(seq[: seq.index(d_label)]) for seq in lin.seqs)
        for mask in range(8):
            rr = tuple(r[::-1] if mask >> a & 1 else r for a, r in enumerate(restr))
            for rho in ((0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)):
                oz = rr[rho[2]]
                if (rr[rho[0]], rr[rho[1]]) != ((oz[1], oz[2], oz[0]), (oz[2], oz[0], oz[1])):
                    continue
                for x_label in oz:
                    sides = [(x_label in d_below[a]) ^ bool(mask >> a & 1) for a in range(3)]
                    if sides[0] == sides[1] == sides[2]:
                        return d_label, x_label
    return None


def decide_dim3(cfg: Configuration) -> FixityVerdict:
    """Exact n = 4 decision by the direct characterization, checked
    against the extreme-element lemma and the cofactor expansion.

    FIXED configurations get their sign from the cofactor expansion with
    pivot (D, X); everything else is NON_FIXED with an extreme-lemma
    certificate (the lemma is complete at this size).  Raises
    :class:`CrossCheckError` when the three disagree on fixity, or when
    the expansion at (D, X) does not give the expansion search's sign.
    """
    if cfg.n() != 4:
        raise ValueError("decide_dim3 needs exactly four labels")
    return _dim3_check(_Lin.of(cfg))


def _dim3_check(lin: _Lin) -> FixityVerdict:
    found = _dim3_fixed_search(lin)
    direct = found is not None
    by_lemma = _lemma_verdict(lin)
    by_expansion = _expansion_verdict(lin)
    if not direct == (by_expansion.status is Status.FIXED) == (by_lemma.status is Status.UNKNOWN):
        raise CrossCheckError(
            f"dim-3 characterizations disagree: direct={'fixed' if direct else 'non_fixed'}, "
            f"expansion={by_expansion.status.value}, lemma={by_lemma.status.value}"
        )
    if not direct:
        return by_lemma
    d_label, x_label = found
    signs = [_lin_sign(lin.drop(d_label, a)) for a in range(3)]
    value = _expansion_sign(lin, d_label, x_label, signs)
    if value.value != by_expansion.sign.value:
        raise CrossCheckError("dim-3 direct and expansion signs disagree")
    return _expansion_fixed(lin, d_label, x_label, signs, value)


# ---------------------------------------------------------------------------
# the decider

#: classes kept, by canonical code; the least recently used goes first
#: once the bound is reached, so a long run of distinct inputs keeps
#: memory flat
_MEMO_SIZE = 1 << 14


def clear_memo() -> None:
    _decide_class.cache_clear()


def _lin_sign(lin: _Lin) -> int:
    """The sign of :func:`_decide_lin`'s verdict as an int, 0 when it is
    not fixed; above three labels it is read from the memo alone."""
    n = len(lin.labels)
    if n < 4:
        return _decide_lin(lin).sign.value
    canon, _, _, _, parity = canonical(encode(lin.labels, lin.seqs), n)
    return parity * _decide_class(canon, n)[0]


def _decide_lin(lin: _Lin) -> FixityVerdict:
    """Decide a linear configuration: two and three labels directly, four
    or more through the memo."""
    n = len(lin.labels)
    if n == 2:
        sign = ConfigSign.PLUS if lin.seqs[0][0] == lin.labels[0] else ConfigSign.MINUS
        return FixityVerdict(Status.FIXED, sign, {"type": "dim1", "sign": str(sign)})
    if n == 3:
        return _dim2_verdict(lin)
    # four or more labels: decide the canonical representative once and
    # transport its verdict
    canon, src, sigma, revs, parity = canonical(encode(lin.labels, lin.seqs), n)
    sign, inner = _decide_class(canon, n)
    labels = default_labels(n)
    cert = {
        "type": "equivalent",
        "axis_source": list(src),
        "label_perm": list(sigma),
        "reversals": list(revs),
        "parity": str(FormalSign(parity)),
        "representative": {
            "labels": list(labels),
            "axes": list(default_axes(n - 1)),
            "sequences": [list(seq) for seq in decode(canon, labels)],
        },
        "inner": marshal.loads(inner),
    }
    return FixityVerdict(Status.FIXED if sign else Status.NON_FIXED, ConfigSign(parity * sign), cert)


@lru_cache(maxsize=_MEMO_SIZE)
def _decide_class(canon: bytes, n: int) -> tuple:
    """(sign, marshalled certificate) of the class of ``n >= 4`` labels
    whose canonical code is ``canon``: +1 or -1 when fixed, else 0.  The
    garbage collector tracks neither, so its full passes skip the memo.
    Marshal only serves this in-process memo, on certificates built here;
    nothing is read from input or disk."""
    labels = default_labels(n)
    rep = _Lin(labels, default_axes(n - 1), decode(canon, labels))
    # lemma and expansion are sound for opposite answers, so at most one
    # succeeds; the lemma is cheap and decides most inputs, and at n = 4
    # the two together decide every class
    verdict = _lemma_verdict(rep)
    if verdict.status is Status.UNKNOWN:
        verdict = _expansion_verdict(rep)
    if verdict.status is Status.UNKNOWN:
        verdict = _ray_verdict(rep, _chain_filters(rep))
    return verdict.sign.value, marshal.dumps(verdict.certificate)


def _first_extension(cfg: Configuration) -> _Lin:
    """The first linear extension of each axis ordering (see
    :func:`decide`), a linear one's own sequence."""
    seqs = tuple(o.sequence() if o.is_linear() else o.first_extension() for o in cfg.orders)
    return _Lin(cfg.labels, cfg.axes, seqs)


def _extension_verdict(cfg: Configuration, lin: _Lin) -> FixityVerdict:
    """:func:`decide`'s verdict on partial input, from ``lin``, its first
    extension (or any linear extension): the search every witness
    without a certificate runs."""
    chain = _lemma_certificate(lin)
    if chain is None:
        return _ray_verdict(cfg, _partial_filters(cfg, lin))
    cert = {"type": "extension", "orders": dict(zip(cfg.axes, map(list, lin.seqs))), "inner": chain}
    return FixityVerdict(Status.NON_FIXED, ConfigSign.BOTH, cert)


def decide(
    cfg: Configuration,
    debug_crosscheck: bool = False,
    frontier_samples: int = 1000,
) -> FixityVerdict:
    """Decide fixity of any configuration (orderings may be partial).

    Linear inputs of n >= 4 labels are decided by the extreme-element
    lemma, then the cofactor expansion, then the ray-determinant
    criterion, which n = 4 never needs.  A partial input is decided as a
    landmark scan decides a pattern: when its first linear extension (per
    axis, the first label in label order with no remaining predecessor)
    has a chain of extreme removals, it certifies ``extension`` with that
    chain, since the extension's region lies inside the input's.
    Otherwise the ray criterion runs over each axis's filters, its proper
    nonempty up-sets, whose indicator vectors generate the axis's
    satisfying coordinates as they do for a chain.  With
    ``debug_crosscheck`` a four-label input, or a partial one's four-label
    first extension, also goes through :func:`decide_dim3`'s check, and
    :class:`CrossCheckError` is raised if the three n = 4
    characterizations disagree, or on linear input disagree with the
    verdict; the verdict is unchanged.  Every
    verdict is FIXED or NON_FIXED; ``frontier_samples`` has no effect; the
    certificate is the caller's own.  Raises ValueError above
    :data:`MAX_LABELS` labels.
    """
    check_size(cfg.n())
    lin = _first_extension(cfg)
    # checked first, so a split is reported before the memo's own checks
    checked = _dim3_check(lin) if debug_crosscheck and cfg.n() == 4 else None
    if not cfg.is_linear():
        return _extension_verdict(cfg, lin)
    verdict = _decide_lin(lin)
    if checked is not None and (checked.status, checked.sign) != (verdict.status, verdict.sign):
        raise CrossCheckError("the n = 4 characterizations and the memo disagree")
    return verdict


# ---------------------------------------------------------------------------
# witness construction


def _witness_dim2_values(lin: _Lin):
    """Witness pair for an equal-or-reversed pair of 3-label orderings.

    Start from collinear points (determinant zero) and nudge one
    coordinate by +-1/2 along its nonzero cofactor: the determinant is
    affine in the nudge, so the two nudges give opposite signs.
    """
    sx, sy = lin.seqs
    ax, ay = lin.axes
    pair = []
    for nudge in (Fraction(1, 2), Fraction(-1, 2)):
        values = {}
        for i, lab in enumerate(sx):
            values[(lab, ax)] = Fraction(i)
            values[(lab, ay)] = Fraction(i) if sx == sy else Fraction(-i)
        values[(sx[-1], ay)] += nudge
        pair.append(values)
    return pair if _det_value(lin.labels, lin.axes, pair[0]) > 0 else pair[::-1]


def _lift_witness(lin: _Lin, e, axis_index: int, child_pairs):
    """Lift child witnesses (dropping ``e`` and one axis) to the full
    configuration.

    Each child is lifted once: all coordinates but ``x_{e,b}`` are filled
    (fresh positions on the dropped axis, midpoints for ``e`` elsewhere),
    the determinant is then affine in ``x_{e,b}`` with slope plus/minus
    the child determinant, and pushing ``x_{e,b}`` past an explicit bound
    toward ``e``'s end of ``b`` realizes the sign the slope gives there.
    The children's slopes have opposite signs: one orientation each.
    """
    n = len(lin.labels)
    b = lin.axes[axis_index]
    seq_b = lin.seqs[axis_index]
    end = -1 if seq_b[0] == e else 1
    rest = [lab for lab in seq_b if lab != e]
    results = {}
    for child_values in child_pairs:
        values = dict(child_values)
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
                val = (Fraction(values[(seq[i - 1], axis)]) + values[(seq[i + 1], axis)]) / 2
            values[(e, axis)] = val
        values[(e, b)] = Fraction(0)
        g0 = _det_value(lin.labels, lin.axes, values)
        values[(e, b)] = Fraction(1)
        alpha = _det_value(lin.labels, lin.axes, values) - g0
        if alpha == 0:
            raise InternalCheckError("expansion slope must equal the nonzero child determinant")
        want = end if alpha > 0 else -end
        t = Fraction(want - g0, alpha)
        values[(e, b)] = min(t, Fraction(-1)) if end < 0 else max(t, Fraction(n))
        if _det_value(lin.labels, lin.axes, values) * want <= 0:
            raise InternalCheckError("lifted witness determinant has the wrong sign")
        results[want] = values
    if len(results) != 2:
        raise InternalCheckError("the child witnesses' slopes must have opposite signs")
    return results[1], results[-1]


def _ray_witness(cfg, gens: Sequence, cert: dict):
    """Witness pair from a ``ray_pair`` certificate over per-axis filters
    ``gens`` (of a configuration or a ``_Lin``).

    For each named tuple, every filter of an axis gets weight 1 except
    the named one, which gets weight ``t``; a label's coordinate is the
    total weight of the filters containing it, so the orders hold (a
    filter holding ``e`` holds every label above it, and the filter of the
    labels at or above ``f`` holds ``f`` but no label below it).  The
    determinant is then a polynomial in ``t`` whose ``t^m`` coefficient is
    the named tuple's determinant, a nonzero integer; every other
    coefficient sums at most ``T`` tuple determinants (``T`` the number of
    tuples) of at most ``m^(m/2)`` each (Hadamard), so past the Cauchy
    bound ``1 + T m^m`` the sign is the named one.  ``t`` doubles from 2
    until the sign holds.
    """
    m = len(cfg.axes)
    bound = 1 + prod(map(len, gens)) * m**m
    counts = [Counter(lab for gen in axis_gens for lab in gen) for axis_gens in gens]
    pair = []
    for ups, want in zip(_ray_pair_ups(cfg, gens, cert), (1, -1)):
        t = 2
        while True:
            values = {
                (lab, axis): count[lab] + (t - 1) * (lab in up)
                for axis, count, up in zip(cfg.axes, counts, ups)
                for lab in cfg.labels
            }
            if _det_value(cfg.labels, cfg.axes, values) * want > 0:
                break
            if t > bound:
                raise InternalCheckError("ray witness sign does not hold past the Cauchy bound")
            t *= 2
        pair.append(values)
    return tuple(pair)


def build_witness(cfg: Configuration, verdict: FixityVerdict | None = None) -> WitnessPair:
    """Explicit rational assignments certifying non-fixity.

    Both assignments satisfy the configuration and their determinant signs
    are strictly opposite; the result is verified exactly before being
    returned.  A given ``extreme_lemma`` or ``ray_pair`` certificate is
    followed (and validated) on the first extension, the input itself
    when linear, or on the linear extension an ``extension`` certificate
    names around it.  With any other certificate, or none, the witness
    follows the search :func:`decide` runs on partial input, from that
    extension.  An ``equivalent`` certificate is only checked: a wrong
    group element raises ValueError.  Raises :class:`NotNonFixedError`
    when the configuration is fixed, ValueError above :data:`MAX_LABELS`
    labels.
    """
    check_size(cfg.n())
    lin = _first_extension(cfg)
    cert = verdict.certificate if verdict is not None else None
    kind = cert["type"] if cert is not None else None
    if kind == "extension":
        lin = _extension(cfg, cert)
        if lin is None:
            raise ValueError("certificate invalid: the extension does not contain the input orders")
        cert = cert["inner"]
        kind = cert["type"]
    if kind == "equivalent" and _unwrap(lin, cert) is None:
        raise ValueError("certificate invalid: the group element does not map the input to the representative")
    if kind not in ("extreme_lemma", "ray_pair"):
        cert = _extension_verdict(cfg, lin).certificate
        if cert["type"] == "extension":
            cert = cert["inner"]
        kind = cert["type"]
    if kind == "ray_all":
        raise NotNonFixedError("the configuration is fixed")
    if kind == "ray_pair":
        plus, minus = _ray_witness(cfg, _partial_filters(cfg, lin), cert)
    else:
        stack, base = _walk_chain(lin, cert)
        plus, minus = _witness_dim2_values(base)
        for parent, e, a in reversed(stack):
            plus, minus = _lift_witness(parent, e, a, (plus, minus))
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
        ext = _extension(cfg, cert)
        return (
            ext is not None
            and status is Status.NON_FIXED
            and _replay_lin(ext, status, ConfigSign.BOTH, cert["inner"])
        )
    if kind in ("ray_pair", "ray_all") and not cfg.is_linear():
        return _replay_ray(cfg, _partial_filters(cfg, _first_extension(cfg)), status, sign, cert)
    return _replay_lin(_Lin.of(cfg), status, sign, cert)


def _extension(cfg: Configuration, cert: Mapping):
    """The linear extension an ``extension`` certificate names, or None
    when some input pair is out of order in it; ValueError unless every
    sequence lists every label once."""
    seqs = tuple(tuple(cert["orders"][a]) for a in cfg.axes)
    for ordering, seq in zip(cfg.orders, seqs):
        if len(seq) != len(cfg.labels) or set(seq) != set(cfg.labels):
            raise ValueError("extension sequences must list every label exactly once")
        pos = {lab: i for i, lab in enumerate(seq)}
        if any(pos[e] > pos[f] for e, f in ordering.pairs):
            return None
    return _Lin(cfg.labels, cfg.axes, seqs)


def _representative(rep: Mapping) -> _Lin:
    """A representative payload as a ``_Lin``; ValueError unless its
    labels are distinct, its ``n-1`` axes distinct, and every sequence a
    permutation of the labels (a chain needs no transitivity check)."""
    labels, axes = tuple(rep["labels"]), tuple(rep["axes"])
    seqs = tuple(tuple(seq) for seq in rep["sequences"])
    if len(labels) < 2 or len(set(labels)) != len(labels):
        raise ValueError("representative labels must be at least two and distinct")
    if len(set(axes)) != len(axes) or len(axes) != len(labels) - 1 or len(seqs) != len(axes):
        raise ValueError(f"representative needs {len(labels) - 1} distinct axes, one sequence each")
    for seq in seqs:
        if len(seq) != len(labels) or set(seq) != set(labels):
            raise ValueError("representative sequences must list every label exactly once")
    return _Lin(labels, axes, seqs)


def _unwrap(lin: _Lin, cert: Mapping):
    """The group element and representative of an ``equivalent``
    certificate, or None when the element does not map ``lin`` onto the
    representative; ValueError when either is malformed."""
    g = GroupElement(
        tuple(cert["axis_source"]),
        tuple(cert["label_perm"]),
        tuple(bool(b) for b in cert["reversals"]),
    )
    rep = _representative(cert["representative"])
    image = act(g, encode(lin.labels, lin.seqs), len(lin.labels))
    return (g, rep) if image == encode(rep.labels, rep.seqs) else None


def _replay_lin(lin: _Lin, status: Status, sign, cert) -> bool:
    kind = cert["type"]
    if kind in ("dim1", "dim2_fixed", "dim2_non_fixed"):
        if len(lin.labels) > 3:
            return False
        fresh = _decide_lin(lin)
        return fresh.status is status and fresh.sign is sign and fresh.certificate == cert
    if kind == "expansion":
        e_i, e_j = cert["pivot"]
        terms = cert["terms"]
        if e_i == e_j or [term["axis"] for term in terms] != list(lin.axes):
            return False
        signs = [{"+": 1, "-": -1}.get(term["child_sign"], 0) for term in terms]
        value = _expansion_sign(lin, e_i, e_j, signs)
        if not (
            status is Status.FIXED
            and value.definite
            and sign is ConfigSign(value.value)
            and str(value) == cert["sign"]
        ):
            return False
        for a, (term, child_sign) in enumerate(zip(terms, signs)):
            if any(term[key] != want for key, want in _expansion_term(lin, e_i, e_j, a, child_sign).items()):
                return False
            if not _replay_lin(lin.drop(e_i, a), Status.FIXED, ConfigSign(child_sign), term["child"]):
                return False
        return True
    if kind == "extreme_lemma":
        if status is not Status.NON_FIXED:
            return False
        try:
            _walk_chain(lin, cert)
        except ValueError:
            return False
        return True
    if kind in ("ray_pair", "ray_all"):
        return _replay_ray(lin, _chain_filters(lin), status, sign, cert)
    if kind == "equivalent":
        unwrapped = _unwrap(lin, cert)
        if unwrapped is None:
            return False
        g, rep = unwrapped
        parity = sign_parity(g)
        if cert["parity"] != str(parity):
            return False
        inner_sign = None
        if status is Status.FIXED:
            inner_sign = ConfigSign(parity.value * sign.value)
        elif status is Status.NON_FIXED:
            inner_sign = ConfigSign.BOTH
        return _replay_lin(rep, status, inner_sign, cert["inner"])
    raise ValueError(f"unknown certificate type {kind!r}")


def replay_certificate(cfg: Configuration, verdict: FixityVerdict) -> bool:
    """Re-derive a verdict from its certificate alone.

    An expansion term's child sign is proved by replaying the child's
    certificate, not by deciding the child: no canonical form, no memo.
    Returns False when the certificate does not substantiate the claimed
    status and sign; raises on malformed certificates.
    """
    check_size(cfg.n())
    if verdict.certificate is None:
        return verdict.status is Status.UNKNOWN
    return _replay(cfg, verdict.status, verdict.sign, verdict.certificate)


# ---------------------------------------------------------------------------
# sampling oracle

_CHUNK = 512
MAX_SAMPLES = 1_000_000  # about 3 minutes of draws on an empty 8-label input
_BUCKET = {DetSign.POS: "pos", DetSign.NEG: "neg", DetSign.ZERO: "zero"}


def _sample_values(cfg: Configuration, rng: random.Random) -> dict:
    """One random satisfying assignment: per axis, sorted distinct integers
    laid onto a random linear extension of the axis ordering, each label
    drawn uniformly from those free to come next."""
    values = {}
    n = cfg.n()
    for axis, ordering in zip(cfg.axes, cfg.orders):
        draws = sorted(rng.sample(range(1 << 40), n))
        seq = ordering.sequence() if ordering.is_linear() else ordering._greedy_extension(rng.choice)
        for v, lab in zip(draws, seq):
            values[(lab, axis)] = v
    return values


def sample_signs(cfg: Configuration, seed: int, count: int, threads: int = 1) -> dict:
    """Histogram of determinant signs over random satisfying assignments.

    Deterministic given ``seed``: draws come in chunks of 512, each from a
    generator seeded from (seed, chunk index).  ``threads`` is accepted
    for compatibility and has no effect: sampling runs in one thread,
    since a thread pool did not speed it up.  Raises ValueError when
    ``count`` is below 1 or above :data:`MAX_SAMPLES`.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if count > MAX_SAMPLES:
        raise ValueError(f"more than {MAX_SAMPLES:,} samples are not supported (got {count:,})")
    histogram = {"pos": 0, "neg": 0, "zero": 0}
    for chunk in range((count + _CHUNK - 1) // _CHUNK):
        rng = random.Random(f"{seed}:{chunk}")
        for _ in range(min(_CHUNK, count - chunk * _CHUNK)):
            value = _det_value(cfg.labels, cfg.axes, _sample_values(cfg, rng))
            histogram[_BUCKET[DetSign.of(value)]] += 1
    return histogram
