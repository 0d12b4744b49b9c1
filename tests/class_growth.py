"""Classes of ``n + 1`` labels grown from fixed classes of ``n`` labels.

By the extreme-element lemma, removing an extreme label of an axis
together with that axis leaves a fixed configuration fixed.  So every
fixed class of ``n + 1`` labels has a member made from a fixed ``n``-label
representative by inserting the new label anywhere in each of its axes
and adding one axis on which the new label comes first (reversing that
axis makes first or last the same choice).  :func:`survivors` lists the
candidates whose every extreme removal is fixed, :func:`grow` lists them
up to symmetry, and :func:`fixed_classes` keeps the fixed ones.

Plain module (no pytest), so a script can grow further sizes with it.
"""

from itertools import permutations, product
from pathlib import Path

from simplexfix import Configuration, Status, decide
from simplexfix.criteria import default_axes, default_labels
from simplexfix.equivalence import canonical, code_of, decode

#: the 313 fixed six-label classes grown by this module from the fixed
#: five-label ones: one canonical code per line, lowercase hex, in code order
FIXED_SIX = Path(__file__).resolve().parent / "data" / "fixed_classes_6.txt"


def _reduced(seq: tuple) -> tuple:
    return min(seq, seq[::-1])


def _index_sequences(rep) -> list:
    """Per axis, the sequence of label indices of ``rep``."""
    n = len(rep.labels)
    code = code_of(rep)
    return [tuple(code[a * n : (a + 1) * n]) for a in range(n - 1)]


def _orbit_keys(reps) -> set:
    """Keys of every configuration in the classes of ``reps``: per
    relabeling, each axis's smaller of its sequence and its reversal,
    sorted, so axis order and reversals drop out."""
    n = len(reps[0].labels)
    keys = set()
    for rep in reps:
        seqs = _index_sequences(rep)
        for sigma in permutations(range(n)):
            keys.add(tuple(sorted(_reduced(tuple(sigma[x] for x in seq)) for seq in seqs)))
    return keys


def survivors(reps) -> list:
    """Label-index sequences of every candidate grown from the fixed
    ``n``-label classes ``reps`` (every one of them, each on the default
    labels and axes) whose extreme removals all lie in those classes.

    The new label ``n`` is inserted at every position of each axis, and a
    new last axis starts with it, followed by the other labels in any
    order.  Removing the new label with the new axis gives the
    representative back, so that removal is not looked up."""
    n = len(reps[0].labels)
    keys = _orbit_keys(reps)
    removed = {}

    def without(seq, label):
        # the axis with ``label`` gone and the labels above it moved down
        out = removed.get((seq, label))
        if out is None:
            out = removed[seq, label] = _reduced(tuple(x - (x > label) for x in seq if x != label))
        return out

    def fixed_removals(seqs) -> bool:
        for a, seq in enumerate(seqs):
            for label in (seq[0], seq[-1]):
                if label == n and a == n - 1:
                    continue
                key = tuple(sorted(without(other, label) for b, other in enumerate(seqs) if b != a))
                if key not in keys:
                    return False
        return True

    out = []
    for rep in reps:
        inserted = [[seq[:i] + (n,) + seq[i:] for i in range(n + 1)] for seq in _index_sequences(rep)]
        for old in product(*inserted):
            for rest in permutations(range(n)):
                seqs = old + ((n, *rest),)
                if fixed_removals(seqs):
                    out.append(seqs)
    return out


def grow(reps) -> list:
    """Canonical representatives, in code order, of the classes of
    ``n + 1`` labels among :func:`survivors` of the fixed ``n``-label
    classes ``reps``."""
    return classes(survivors(reps))


def classes(candidates) -> list:
    """Canonical representatives, in code order, of the classes of the
    label-index sequences ``candidates`` (a nonempty list), on the default
    labels and axes."""
    n = len(candidates[0][0])
    labels, axes = default_labels(n), default_axes(n - 1)
    codes = {canonical(bytes(x for seq in seqs for x in seq), n)[0] for seqs in candidates}
    return [Configuration.from_sequences(labels, axes, decode(code, labels)) for code in sorted(codes)]


def fixed_classes(reps) -> list:
    """``(representative, verdict)`` of each fixed class among ``reps``."""
    decided = ((rep, decide(rep)) for rep in reps)
    return [(rep, verdict) for rep, verdict in decided if verdict.status is Status.FIXED]
