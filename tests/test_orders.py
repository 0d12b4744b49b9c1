"""Orderings, configurations, extensions, satisfaction, determinant signs."""

import random
from fractions import Fraction
from itertools import permutations, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexfix import (
    Configuration,
    DetSign,
    Ordering,
    OrderingCycleError,
    PointAssignment,
    configuration_extensions,
    det_sign,
    extension_count,
    extreme_labels,
    induced,
    is_linear,
    linear_extensions,
    reverse,
    satisfies,
)
from simplexfix.orders import _det_int, _det_sign_int, _det_value
from conftest import seeded_partials, subset_13710_extension, subset_15910

LABELS3 = ("A", "B", "C")


def brute_force_extensions(ordering):
    """Independent oracle: filter all permutations by pair containment."""
    return [
        p
        for p in permutations(ordering.labels)
        if all(p.index(e) < p.index(f) for e, f in ordering.pairs)
    ]


@st.composite
def random_orderings(draw, max_labels=5):
    n = draw(st.integers(min_value=2, max_value=max_labels))
    labels = tuple(f"L{i}" for i in range(n))
    seq = draw(st.permutations(labels))
    keep = draw(st.lists(st.booleans(), min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))
    pairs = [
        (seq[i], seq[j])
        for k, (i, j) in enumerate(
            (i, j) for i in range(n) for j in range(i + 1, n)
        )
        if keep[k]
    ]
    return Ordering.from_pairs(labels, pairs)


def test_is_linear_examples():
    assert is_linear(Ordering.from_pairs(LABELS3, [("A", "B"), ("B", "C"), ("A", "C")]))
    assert not is_linear(Ordering.from_pairs(LABELS3, [("A", "B")]))
    assert not is_linear(Ordering.empty(("A", "B")))


def test_ingestion_closes_transitively_and_rejects_cycles():
    o = Ordering.from_pairs(LABELS3, [("A", "B"), ("B", "C")])
    assert o.less("A", "C")
    with pytest.raises(OrderingCycleError):
        Ordering.from_pairs(LABELS3, [("A", "B"), ("B", "A")])
    with pytest.raises(OrderingCycleError):
        Ordering.from_pairs(LABELS3, [("A", "B"), ("B", "C"), ("C", "A")])


def test_linear_configurations_decide_and_replay_without_the_pairwise_recheck(monkeypatch):
    # chains and from_pairs build a relation that needs no recheck, so the
    # whole linear path runs with the constructor's validation disabled
    from simplexfix import decide, engine, replay_certificate

    t = ("B", "A", "C")
    assert Ordering.chain(t).sequence() is t

    def refuse(self):
        raise AssertionError("Ordering.__post_init__ ran")

    monkeypatch.setattr(Ordering, "__post_init__", refuse)
    rng = random.Random("chain-without-recheck")
    engine.clear_memo()
    for i in range(300):
        n = 5 if i % 3 else 6
        labels = tuple("ABCDEF"[:n])
        axes = tuple("xyzwv"[: n - 1])
        cfg = Configuration.from_sequences(labels, axes, [rng.sample(labels, n) for _ in axes])
        assert replay_certificate(cfg, decide(cfg))
    engine.clear_memo()


def test_each_constructor_keeps_its_input_checks_and_builds_equal_orderings():
    malformed = [
        (lambda: Ordering.chain(("A", "B", "A"), ("A", "B")), ValueError),
        (lambda: Ordering.chain(("A", "B"), LABELS3), ValueError),
        (lambda: Ordering.chain(("A", "B", "C", "D"), LABELS3), ValueError),
        (lambda: Ordering.chain(("A", "B", "X"), LABELS3), ValueError),
        (lambda: Ordering.chain(("A", "B", "C"), ("A", "B", "C", "A")), ValueError),
        (lambda: Ordering.from_pairs(LABELS3, [("A", "X")]), KeyError),
        (lambda: Ordering.from_pairs(LABELS3, [("A", "A")]), OrderingCycleError),
        (lambda: Ordering.from_pairs(LABELS3, [("A", "B"), ("B", "A")]), OrderingCycleError),
        (lambda: Ordering(LABELS3, frozenset({("A", "B"), ("B", "C")})), ValueError),
        (lambda: Ordering(LABELS3, frozenset({("A", "A")})), OrderingCycleError),
        (lambda: Ordering(LABELS3, frozenset({("A", "B"), ("B", "A")})), OrderingCycleError),
        (lambda: Ordering(LABELS3, frozenset({("A", "X")})), KeyError),
    ]
    for build, error in malformed:
        with pytest.raises(error):
            build()
    with pytest.raises(ValueError, match="every label exactly once"):
        Ordering.chain(("A", "B", "A"), ("A", "B"))

    chain = Ordering.chain(("C", "A", "B", "D"), ("A", "B", "C", "D"))
    closed = Ordering.from_pairs(chain.labels, chain.covering_pairs())
    checked = Ordering(chain.labels, chain.pairs)
    for same in (checked, closed):
        assert same == chain and hash(same) == hash(chain)
        assert same.sequence() == chain.sequence() == ("C", "A", "B", "D")
    # a frozenset's repr lists its items in insertion-dependent order
    assert repr(chain) == repr(checked) == f"Ordering(labels={chain.labels!r}, pairs={chain.pairs!r})"
    assert repr(closed) == f"Ordering(labels={chain.labels!r}, pairs={closed.pairs!r})"


def test_reverse_examples():
    chain = Ordering.chain(LABELS3)
    assert reverse(chain).sequence() == ("C", "B", "A")
    empty = Ordering.empty(("A", "B"))
    assert reverse(empty).pairs == frozenset()


@given(random_orderings())
def test_reverse_is_involution(o):
    assert reverse(reverse(o)) == o


@given(random_orderings())
def test_induced_commutes_with_reverse(o):
    keep = o.labels[: max(2, len(o.labels) - 1)]
    assert reverse(o.restrict(keep)) == reverse(o).restrict(keep)


def test_extreme_labels_examples():
    assert extreme_labels(Ordering.chain(("A", "B", "C", "D"))) == {"A", "D"}
    assert extreme_labels(Ordering.chain(("A", "B"))) == {"A", "B"}
    assert extreme_labels(Ordering.chain(("B", "C", "A"), labels=LABELS3)) == {"B", "A"}
    with pytest.raises(ValueError):
        extreme_labels(Ordering.empty(LABELS3))


def test_induced_examples():
    labels = ("A", "B", "C", "D")
    cfg = Configuration.from_sequences(
        labels, ("x", "y", "z"), [labels, labels, labels]
    )
    sub = induced(cfg, ("A", "B", "C"), ("x", "y"))
    assert sub.labels == ("A", "B", "C")
    assert sub.axes == ("x", "y")
    assert all(o.sequence() == ("A", "B", "C") for o in sub.orders)
    assert induced(cfg, labels, ("x", "y", "z")) == cfg
    with pytest.raises(KeyError):
        induced(cfg, ("A", "B", "E"), ("x", "y"))
    with pytest.raises(KeyError):
        induced(cfg, ("A", "B", "C"), ("x", "nope"))


def test_induced_restriction_of_four_point_extension():
    ext = subset_13710_extension()
    sub = induced(ext, ("7", "3", "1"), ("x", "y"))
    assert sub.orders[0].sequence() == ("7", "3", "1")
    assert sub.orders[1].sequence() == ("7", "3", "1")


def test_linear_extensions_examples():
    assert len(linear_extensions(Ordering.empty(LABELS3))) == 6
    chain = Ordering.chain(LABELS3)
    assert linear_extensions(chain) == [chain]
    z_order = Ordering.from_pairs(
        ("2", "5", "8", "9"), [("2", "8"), ("8", "9"), ("5", "8")]
    )
    seqs = [o.sequence() for o in linear_extensions(z_order)]
    assert seqs == [("2", "5", "8", "9"), ("5", "2", "8", "9")]


@settings(deadline=None)
@given(random_orderings(max_labels=4))
def test_linear_extensions_contain_and_match_oracle(o):
    exts = linear_extensions(o)
    assert len(set(exts)) == len(exts)
    for ext in exts:
        assert o.pairs <= ext.pairs
    oracle = brute_force_extensions(o)
    assert sorted(e.sequence() for e in exts) == sorted(oracle)
    assert o.extension_sequences() == [e.sequence() for e in exts]
    assert o.first_extension() == o.extension_sequences()[0] == oracle[0]


def test_configuration_extension_counts():
    linear_cfg = Configuration.from_sequences(LABELS3, ("x", "y"), [LABELS3, LABELS3])
    assert extension_count(linear_cfg) == 1

    cfg = subset_15910()
    oracle = 1
    for o in cfg.orders:
        oracle *= len(brute_force_extensions(o))
    assert oracle == 16
    assert extension_count(cfg) == 16
    assert len(list(configuration_extensions(cfg))) == 16


def every_ordering(n):
    """Every strict partial order on ``n`` labels: each set of ordered
    pairs that is irreflexive, antisymmetric and transitive."""
    labels = tuple("ABCD"[:n])
    candidates = [(e, f) for e in labels for f in labels if e != f]
    for keep in product((False, True), repeat=len(candidates)):
        pairs = {pair for pair, k in zip(candidates, keep) if k}
        if any((f, e) in pairs for e, f in pairs):
            continue
        if all((e, h) in pairs for e, f in pairs for g, h in pairs if f == g):
            yield Ordering(labels, frozenset(pairs))


def test_extension_count_matches_the_listed_extensions():
    # 1, 3, 19 and 219 labeled posets on 1 to 4 labels
    for n, total in ((1, 1), (2, 3), (3, 19), (4, 219)):
        orderings = list(every_ordering(n))
        assert len(orderings) == total
        for o in orderings:
            assert o.extension_count() == len(o.extension_sequences())
    rng = random.Random("extension-count")
    for n, count in ((5, 40), (6, 20)):
        for cfg in seeded_partials(rng, n, count):
            listed = [len(o.extension_sequences()) for o in cfg.orders]
            assert [o.extension_count() for o in cfg.orders] == listed
            assert extension_count(cfg) == prod(listed)
        for _ in range(count):  # random pair sets, not just broken chains
            seq = rng.sample(tuple("ABCDEF"[:n]), n)
            o = Ordering.from_pairs(
                tuple("ABCDEF"[:n]),
                [(seq[i], seq[j]) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3],
            )
            assert o.extension_count() == len(o.extension_sequences())


def test_satisfies_examples():
    cfg = Configuration.from_pairs(("A", "B"), ("x",), {"x": [("A", "B")]})
    p_good = PointAssignment(("A", "B"), ("x",), {("A", "x"): 0, ("B", "x"): 1})
    p_bad = PointAssignment(("A", "B"), ("x",), {("A", "x"): 1, ("B", "x"): 0})
    p_tie = PointAssignment(("A", "B"), ("x",), {("A", "x"): 0, ("B", "x"): 0})
    assert satisfies(p_good, cfg)
    assert not satisfies(p_bad, cfg)
    assert not satisfies(p_tie, cfg)  # inequalities are strict


@given(st.permutations(LABELS3), st.permutations(LABELS3))
def test_satisfies_is_monotone_in_the_relation(sx, sy):
    cfg = Configuration.from_sequences(LABELS3, ("x", "y"), (tuple(sx), tuple(sy)))
    weaker = Configuration.from_pairs(
        LABELS3, ("x", "y"), {"x": [next(iter(cfg.orders[0].pairs))], "y": []}
    )
    p = PointAssignment.from_points(
        {lab: (sx.index(lab), sy.index(lab)) for lab in LABELS3}, ("x", "y")
    )
    assert satisfies(p, cfg)
    assert satisfies(p, weaker)


def test_det_sign_examples():
    triangle = PointAssignment.from_points(
        {"A": (0, 0), "B": (1, 0), "C": (0, 1)}, ("x", "y")
    )
    assert det_sign(triangle) is DetSign.POS

    collinear = PointAssignment.from_points(
        {"A": (0, 0), "B": (1, 1), "C": (2, 2)}, ("x", "y")
    )
    assert det_sign(collinear) is DetSign.ZERO

    tetrahedron = PointAssignment.from_points(
        {"A": (0, 0, 0), "B": (1, 0, 0), "C": (0, 1, 0), "D": (0, 0, 1)},
        ("x", "y", "z"),
    )
    assert det_sign(tetrahedron) is DetSign.POS


def test_det_sign_exact_rationals_from_decimal_text():
    p = PointAssignment.from_points(
        {"A": ("0.1", "0.7"), "B": ("0.2", "0.7"), "C": ("0.1", "0.8")}, ("x", "y")
    )
    assert p.value("A", "x") == Fraction(1, 10)
    assert det_sign(p) is DetSign.POS
    q = PointAssignment.from_points(
        {"A": (0.1, 0.0), "B": (0.3, 0.0), "C": (0.2, 1e-9)}, ("x", "y")
    )
    assert q.value("B", "x") == Fraction(3, 10)  # decimal, not binary, reading
    assert det_sign(q) is DetSign.POS


@given(st.integers(-50, 50), st.permutations(("A", "B", "C", "D")))
def test_det_sign_translation_invariance_and_column_antisymmetry(shift, order):
    base = {
        "A": (0, 3, 1),
        "B": (5, 1, 2),
        "C": (2, 4, 8),
        "D": (7, 0, 3),
    }
    axes = ("x", "y", "z")
    p = PointAssignment.from_points(base, axes)
    shifted = {lab: (c[0] + shift, c[1], c[2]) for lab, c in base.items()}
    assert det_sign(PointAssignment.from_points(shifted, axes)) is det_sign(p)

    swapped_labels = ("B", "A", "C", "D")
    q = PointAssignment.from_points(base, axes, labels=swapped_labels)
    assert det_sign(q).value == -det_sign(p).value


def test_point_assignment_validation():
    with pytest.raises(KeyError):
        PointAssignment(("A", "B"), ("x",), {("A", "x"): 0})
    with pytest.raises(ValueError):
        PointAssignment.from_points({"A": (0,), "B": (1, 2)}, ("x",))
    with pytest.raises(ValueError):
        Configuration.from_sequences(("A", "B", "C"), ("x",), [("A", "B", "C")])


def leibniz_det(m):
    """Reference: the determinant as a signed sum over permutations."""
    k = len(m)
    total = 0
    for perm in permutations(range(k)):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        term = -1 if inversions % 2 else 1
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


def test_exact_determinant_matches_leibniz():
    rng = random.Random(41)
    for k in range(7):
        for _ in range(15):
            # small entries make zero pivots and singular matrices common
            ints = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(k)]
            expected = leibniz_det(ints)
            assert _det_int(ints) == expected
            assert _det_sign_int(ints) == (expected > 0) - (expected < 0)
            fracs = [
                [Fraction(rng.randint(-5, 5), rng.randint(1, 7)) for _ in range(k)]
                for _ in range(k)
            ]
            # _det_value takes the columns as differences to label 0's values
            values = {(0, a): Fraction(rng.randint(-3, 3), 2) for a in range(k)}
            for a in range(k):
                for j in range(k):
                    values[(j + 1, a)] = values[(0, a)] + fracs[a][j]
            assert _det_value(tuple(range(k + 1)), tuple(range(k)), values) == leibniz_det(fracs)
