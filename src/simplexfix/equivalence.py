"""The symmetry group of ordering configurations and class counting.

Two linear configurations are equivalent when one maps to the other by a
permutation of the axes, a relabeling of the points, and reversal of some
axis orderings.  The group has order ``(n-1)! * n! * 2^(n-1)``; reversing
an axis or applying an odd permutation flips the orientation sign, which
:func:`sign_parity` tracks.

Internally a linear configuration is its *code*: per axis, the index in
``labels`` of the label at each position, all axes concatenated into one
``bytes`` string.  Codes of one size compare like the tuples of per-axis
sequences, and sequences compare like their permutation ranks.

The canonical form is the lexicographic minimum of the orbit, so its first
axis is the identity chain.  Choosing the input axis ``j`` that becomes the
first output axis, and whether it is reversed, therefore fixes the
relabeling: the inverse of that axis's sequence.  Each other axis then
independently takes the smaller of its relabeled sequence and that
sequence's reversal, and those are sorted.  The minimum over these ``2k``
candidates (``k`` axes) is the orbit minimum; no scan over the ``k! * 2^k``
axis permutations and reversal masks, and no permutation table, is needed.
The group element reported is the one the full scan would meet first: the
least ``(axis_source, reversal mask as an integer)`` reaching the minimum,
axes with equal sequences taken in index order.  :func:`canonical` caches
it as three tuples of ints, which the garbage collector does not track.

The same shape drives class enumeration: a canonical code's later axes
are reduced (each no greater than its reversal) and sorted, so
:func:`enumerate_classes` walks the sorted multisets of reduced sequences
and keeps those no candidate undercuts.  Class counting for large ``n``
goes through the orbit-counting identity over permutation cycle types
instead of materializing the ``(n!)^(n-1)`` configurations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations_with_replacement, permutations
from math import factorial, prod
from typing import Iterable, Sequence

from .criteria import InternalCheckError, default_axes, default_labels
from .orders import Configuration, Ordering
from .signs import FormalSign

#: canonical forms kept, by input code; the entries are small, and the
#: bound keeps a long run of distinct configurations from growing memory
_CACHE_SIZE = 1 << 14


@dataclass(frozen=True, slots=True)
class GroupElement:
    """(axis permutation, label permutation, per-axis reversal mask).

    ``axis_source[i]`` is the input axis position feeding output axis ``i``;
    ``label_perm[k]`` is the new position of the label at position ``k``;
    ``reversals`` is indexed by output axis position.
    """

    axis_source: tuple
    label_perm: tuple
    reversals: tuple

    def __post_init__(self):
        k = len(self.axis_source)
        if sorted(self.axis_source) != list(range(k)):
            raise ValueError("axis_source is not a permutation")
        if sorted(self.label_perm) != list(range(k + 1)):
            raise ValueError("label_perm must permute one more label than axes")
        if len(self.reversals) != k:
            raise ValueError("one reversal bit per axis required")

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        return cls(tuple(range(n - 1)), tuple(range(n)), (False,) * (n - 1))

    def compose(self, other: "GroupElement") -> "GroupElement":
        """self after other (``apply(self.compose(other), c) ==
        apply(self, apply(other, c))``)."""
        src = tuple(other.axis_source[i] for i in self.axis_source)
        sigma = tuple(self.label_perm[v] for v in other.label_perm)
        rev = tuple(
            self.reversals[i] ^ other.reversals[self.axis_source[i]]
            for i in range(len(self.axis_source))
        )
        return GroupElement(src, sigma, rev)

    def inverse(self) -> "GroupElement":
        k = len(self.axis_source)
        src_inv = [0] * k
        for i, j in enumerate(self.axis_source):
            src_inv[j] = i
        sigma_inv = [0] * len(self.label_perm)
        for i, j in enumerate(self.label_perm):
            sigma_inv[j] = i
        rev = tuple(self.reversals[src_inv[i]] for i in range(k))
        return GroupElement(tuple(src_inv), tuple(sigma_inv), rev)


def sign_parity(g: GroupElement) -> FormalSign:
    """How ``g`` transports the determinant sign: label-permutation parity
    times axis-permutation parity times one flip per reversed axis."""
    k = len(g.axis_source)
    parity = 1
    for i in range(k):
        for j in range(i + 1, k):
            if g.axis_source[i] > g.axis_source[j]:
                parity = -parity
    m = len(g.label_perm)
    for i in range(m):
        for j in range(i + 1, m):
            if g.label_perm[i] > g.label_perm[j]:
                parity = -parity
    if sum(g.reversals) % 2:
        parity = -parity
    return FormalSign(parity)


def apply(g: GroupElement, cfg: Configuration) -> Configuration:
    """Act on a configuration: permute axes, rename labels, reverse masked
    axes.  Left action: ``apply(g.compose(h), c) == apply(g, apply(h, c))``."""
    if len(g.axis_source) != len(cfg.axes) or len(g.label_perm) != len(cfg.labels):
        raise ValueError("group element dimensioned for a different configuration")
    rename = {cfg.labels[k]: cfg.labels[g.label_perm[k]] for k in range(len(cfg.labels))}
    new_orders = []
    for i in range(len(cfg.axes)):
        src = cfg.orders[g.axis_source[i]]
        if g.reversals[i]:
            src = src.reverse()
        pairs = frozenset((rename[e], rename[f]) for e, f in src.pairs)
        new_orders.append(Ordering(cfg.labels, pairs))
    return Configuration(cfg.labels, cfg.axes, tuple(new_orders))


def act(g: GroupElement, code: bytes, n: int) -> bytes:
    """:func:`apply` on codes: the code of ``apply(g, c)`` for the linear
    configuration ``c`` of ``n`` labels with code ``code``."""
    if len(g.axis_source) * n != len(code) or len(g.label_perm) != n:
        raise ValueError("group element dimensioned for a different configuration")
    rename = bytes(g.label_perm) + bytes(256 - n)
    rows = []
    for src, rev in zip(g.axis_source, g.reversals):
        row = code[src * n : (src + 1) * n]
        rows.append((row[::-1] if rev else row).translate(rename))
    return b"".join(rows)


def encode(labels: Sequence, seqs: Iterable[Sequence]) -> bytes:
    """Code of a linear configuration given by its per-axis sequences."""
    index = {lab: i for i, lab in enumerate(labels)}
    return bytes(map(index.__getitem__, chain.from_iterable(seqs)))


def decode(code: bytes, labels: Sequence) -> tuple:
    """Per-axis label sequences of a code."""
    n = len(labels)
    return tuple(
        tuple(labels[v] for v in code[i : i + n]) for i in range(0, len(code), n)
    )


def code_of(cfg: Configuration) -> bytes:
    """Code of a linear configuration."""
    if not cfg.is_linear():
        raise ValueError("canonical forms are defined for linear configurations")
    return encode(cfg.labels, (o.sequence() for o in cfg.orders))


def _candidates(code: bytes, n: int):
    """The ``2k`` canonical candidates of a code, one per first input axis
    ``j`` and reversal bit ``b``.

    Yields ``(candidate, j, b, sigma, rest)``: the candidate code without
    its identity first axis, the relabeling ``sigma`` (``sigma[v]`` is the
    new index of label ``v``), and the other axes as sorted
    ``(relabeled sequence, axis index, reversed)`` triples.
    """
    k = len(code) // n
    pad = bytes(256 - n)
    for j in range(k):
        row = code[j * n : (j + 1) * n]
        for b in (False, True):
            first = row[::-1] if b else row
            sigma = bytearray(n)
            for pos, v in enumerate(first):
                sigma[v] = pos
            moved = code.translate(bytes(sigma) + pad)
            rest = []
            for i in range(k):
                if i != j:
                    seq = moved[i * n : (i + 1) * n]
                    back = seq[::-1]
                    rest.append((back, i, True) if back < seq else (seq, i, False))
            rest.sort()
            yield b"".join([seq for seq, _, _ in rest]), j, b, sigma, rest


@lru_cache(maxsize=_CACHE_SIZE)
def canonical(code: bytes, n: int) -> tuple:
    """``(canonical code, axis_source, label_perm, reversals, parity)``: the
    fields of the element ``g`` mapping ``code`` to it, and ``sign_parity(g).value``."""
    cands = list(_candidates(code, n))
    best = min(cand for cand, *_ in cands)
    elements = []  # (axis_source, reversal mask as an integer, reversals, sigma)
    for cand, j, b, sigma, rest in cands:
        if cand == best:
            src = (j, *(i for _, i, _ in rest))
            revs = (b, *(rev for _, _, rev in rest))
            elements.append((src, sum(r << p for p, r in enumerate(revs)), revs, tuple(sigma)))
    src, _, revs, sigma = min(elements)
    return bytes(range(n)) + best, src, sigma, revs, sign_parity(GroupElement(src, sigma, revs)).value


def _rank(perm: bytes) -> int:
    """Lexicographic rank of a permutation, from its Lehmer code."""
    n = len(perm)
    r = 0
    for i, v in enumerate(perm):
        r = r * (n - i) + sum(1 for w in perm[i + 1 :] if w < v)
    return r


def canonical_key(cfg: Configuration) -> int:
    """Integer encoding of the canonical form: per-axis permutation ranks
    in mixed radix; equal keys iff equivalent."""
    n = len(cfg.labels)
    canon = canonical(code_of(cfg), n)[0]
    key = 0
    base = factorial(n)
    for i in range(0, len(canon), n):
        key = key * base + _rank(canon[i : i + n])
    return key


def canonical_form(cfg: Configuration) -> tuple:
    """(orbit-minimum configuration, group element mapping cfg to it)."""
    canon, *fields, _ = canonical(code_of(cfg), len(cfg.labels))
    rep = Configuration.from_sequences(cfg.labels, cfg.axes, decode(canon, cfg.labels))
    return rep, GroupElement(*fields)


def are_equivalent(c1: Configuration, c2: Configuration) -> bool:
    if len(c1.labels) != len(c2.labels):
        raise ValueError("configurations have different sizes")
    return canonical_key(c1) == canonical_key(c2)


def orbit_size(cfg: Configuration) -> int:
    """Number of distinct configurations in the equivalence orbit.

    The group elements mapping ``cfg`` to its canonical form are as many
    as its stabilizer has: each candidate reaching the minimum contributes
    one per ordering of its equal axes.
    """
    n = len(cfg.labels)
    k = n - 1
    cands = list(_candidates(code_of(cfg), n))
    best = min(cand for cand, *_ in cands)
    stabilizer = sum(
        prod(factorial(m) for m in Counter(seq for seq, _, _ in rest).values())
        for cand, _, _, _, rest in cands
        if cand == best
    )
    return factorial(k) * factorial(n) * 2**k // stabilizer


def enumerate_classes(n: int, allow_long: bool = False) -> list:
    """One canonical representative per equivalence class, sorted by key.

    A canonical code is the identity chain followed by its ``n - 2`` later
    axes, each the smaller of a sequence and its reversal, in sorted
    order.  So the candidates are the sorted multisets of those ``n!/2``
    reduced sequences (37,820 at n = 5), walked in lexicographic order;
    one is kept when no :func:`_candidates` entry of its code is smaller
    than its own tail.  n = 5 is gated behind ``allow_long``; beyond that
    the enumeration is out of reach.
    """
    if n < 2 or n > (5 if allow_long else 4):
        limit = "5 with allow_long" if allow_long else "4"
        raise ValueError(f"enumerate_classes supports 2 <= n <= {limit}, got {n}")
    labels = default_labels(n)
    axes = default_axes(n - 1)
    identity = bytes(range(n))
    reduced = [p for p in map(bytes, permutations(range(n))) if p < p[::-1]]
    out = []
    for rest in combinations_with_replacement(reduced, n - 2):
        code = identity + b"".join(rest)
        if min(cand for cand, *_ in _candidates(code, n)) == code[n:]:
            out.append(Configuration.from_sequences(labels, axes, decode(code, labels)))
    return out


def _partitions(total: int):
    """Integer partitions as non-increasing tuples."""

    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, cap), 0, -1):
            for tail in rec(remaining - part, part):
                yield (part,) + tail

    yield from rec(total, total)


def _perm_count(m: int, cycle_type) -> int:
    """Number of permutations of S_m with the given cycle type."""
    count = factorial(m)
    seen = {}
    for c in cycle_type:
        seen[c] = seen.get(c, 0) + 1
    for c, mult in seen.items():
        count //= c**mult * factorial(mult)
    return count


def _power_cycle_lengths(cycle_type, power: int):
    """Cycle lengths of sigma^power given sigma's cycle type."""
    from math import gcd

    out = []
    for c in cycle_type:
        g = gcd(c, power)
        out.extend([c // g] * g)
    return out


def count_classes(n: int) -> int:
    """Exact number of equivalence classes of linear configurations.

    Orbit counting over the symmetry group, aggregated by cycle type: an
    axis-permutation cycle of length L with even accumulated reversal
    parity contributes linear orders fixed by relabeling (sigma^L = id),
    one with odd parity contributes orders mapped to their own reversal
    (sigma^L an involution reversing the sequence).  Exactly half of the
    2^L reversal masks on a cycle land in each parity.
    """
    if n < 2 or n > 6:
        raise ValueError(f"count_classes supports 2 <= n <= 6, got {n}")
    n_fact = factorial(n)
    half = n // 2
    reversing_count = factorial(half) * 2**half

    even_fix = {}
    odd_fix = {}
    label_types = [(mu, _perm_count(n, mu)) for mu in _partitions(n)]

    def fixed_counts(mu, length):
        powers = _power_cycle_lengths(mu, length)
        even = n_fact if all(c == 1 for c in powers) else 0
        is_reversing = all(c <= 2 for c in powers) and powers.count(1) == n % 2
        odd = reversing_count if is_reversing else 0
        return even, odd

    total = 0
    for lam in _partitions(n - 1):
        n_lam = _perm_count(n - 1, lam)
        for mu, n_mu in label_types:
            contribution = 1
            for length in lam:
                even, odd = fixed_counts(mu, length)
                term = (1 << (length - 1)) * (even + odd)
                if term == 0:
                    contribution = 0
                    break
                contribution *= term
            if contribution:
                total += n_lam * n_mu * contribution
    group_order = factorial(n - 1) * n_fact * (1 << (n - 1))
    if total % group_order:
        raise InternalCheckError("orbit-count sum must divide evenly")
    return total // group_order
