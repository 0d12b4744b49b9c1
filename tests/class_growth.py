"""Classes of ``n + 1`` labels grown from fixed classes of ``n`` labels.

By the extreme-element lemma, removing an extreme label of an axis
together with that axis leaves a fixed configuration fixed.  So every
fixed class of ``n + 1`` labels has a member made from a fixed ``n``-label
representative by inserting the new label anywhere in each of its axes
and adding one axis on which the new label comes first (reversing that
axis makes first or last the same choice).  :func:`grow` lists those
candidates up to symmetry; :func:`fixed_classes` keeps the fixed ones.

Plain module (no pytest), so a script can grow further sizes with it.
"""

from itertools import permutations

from simplexfix import Configuration, Status, decide
from simplexfix.criteria import default_axes, default_labels
from simplexfix.equivalence import canonical, decode, encode


def grow(reps) -> list:
    """Canonical representatives, in code order, of every class grown
    from the linear ``n``-label configurations ``reps`` (each on the
    default labels and axes): the new last label is inserted at every
    position of each axis, and a new last axis starts with it, followed by
    the other labels in any order."""
    n = len(reps[0].labels) + 1
    labels, axes = default_labels(n), default_axes(n - 1)
    new = labels[-1]
    codes = set()
    for rep in reps:
        prefixes = [()]
        for seq in (o.sequence() for o in rep.orders):
            prefixes = [p + (seq[:i] + (new,) + seq[i:],) for p in prefixes for i in range(n)]
        for rest in permutations(labels[:-1]):
            for seqs in prefixes:
                codes.add(canonical(encode(labels, seqs + ((new, *rest),)), n)[0])
    return [Configuration.from_sequences(labels, axes, decode(code, labels)) for code in sorted(codes)]


def fixed_classes(reps) -> list:
    """``(representative, verdict)`` of each fixed class among ``reps``."""
    decided = ((rep, decide(rep)) for rep in reps)
    return [(rep, verdict) for rep, verdict in decided if verdict.status is Status.FIXED]
