"""Group action laws, canonical forms, class enumeration and counting."""

import random
from itertools import permutations, product
from math import factorial

import pytest

from simplexfix import (
    Configuration,
    FormalSign,
    GroupElement,
    Status,
    apply,
    are_equivalent,
    canonical_form,
    canonical_key,
    count_classes,
    decide,
    enumerate_classes,
    fmul,
    orbit_size,
    sign_parity,
)
from simplexfix.equivalence import canonical, code_of, decode, default_axes, default_labels
from conftest import XYZ, fixed_n4_configs


def random_group_element(rng, n):
    k = n - 1
    src = list(range(k))
    rng.shuffle(src)
    sigma = list(range(n))
    rng.shuffle(sigma)
    rev = tuple(rng.random() < 0.5 for _ in range(k))
    return GroupElement(tuple(src), tuple(sigma), rev)


def random_linear_cfg(rng, n):
    labels = tuple(f"L{i}" for i in range(n))
    axes = tuple(f"a{i}" for i in range(n - 1))
    perms = list(permutations(labels))
    return Configuration.from_sequences(labels, axes, [rng.choice(perms) for _ in range(n - 1)])


def reference_canonical(seqs):
    """The full scan over all ``k! * 2^k`` axis permutations and reversal
    masks, each candidate relabeled so its first axis is the identity
    chain: the least candidate, and the first (axis_source, mask) in scan
    order that reaches it."""
    k, n = len(seqs), len(seqs[0])
    oriented = [(seq, seq[::-1]) for seq in seqs]
    relabeled = {}  # (first axis, its reversal) -> (sigma, oriented axes relabeled)
    for j in range(k):
        for b in (0, 1):
            sigma = [0] * n
            for pos, v in enumerate(oriented[j][b]):
                sigma[v] = pos
            relabeled[j, b] = sigma, [
                [tuple(map(sigma.__getitem__, o)) for o in pair] for pair in oriented
            ]
    best = best_g = None
    for src in permutations(range(k)):
        for mask in range(1 << k):
            sigma, axes = relabeled[src[0], mask & 1]
            cand = tuple(axes[src[i]][mask >> i & 1] for i in range(k))
            if best is None or cand < best:
                best, best_g = cand, (src, tuple(sigma), mask)
    src, sigma, mask = best_g
    return best, GroupElement(src, sigma, tuple(bool(mask >> i & 1) for i in range(k)))


def reference_key(canon):
    n = len(canon[0])
    rank = {p: i for i, p in enumerate(permutations(range(n)))}
    key = 0
    for seq in canon:
        key = key * factorial(n) + rank[seq]
    return key


def assert_matches_reference(seqs):
    n = len(seqs[0])
    labels, axes = default_labels(n), default_axes(n - 1)
    cfg = Configuration.from_sequences(labels, axes, [[labels[v] for v in s] for s in seqs])
    ref, ref_g = reference_canonical(seqs)
    canon, g = canonical_form(cfg)
    assert [tuple(labels.index(l) for l in o.sequence()) for o in canon.orders] == list(ref)
    assert g == ref_g
    assert canonical_key(cfg) == reference_key(ref)


def test_canonical_form_matches_full_scan_on_every_n4_configuration():
    perms = list(permutations(range(4)))
    for seqs in product(perms, repeat=3):
        assert_matches_reference(seqs)


@pytest.mark.parametrize("n, count", [(5, 300), (6, 30)])
def test_canonical_form_matches_full_scan_on_seeded_samples(n, count):
    rng = random.Random(n)
    for _ in range(count):
        seqs = []
        for _ in range(n - 1):
            if seqs and rng.random() < 0.4:  # a repeated or reversed axis
                seq = rng.choice(seqs)
                seqs.append(seq[::-1] if rng.random() < 0.5 else seq)
            else:
                seqs.append(tuple(rng.sample(range(n), n)))
        rng.shuffle(seqs)
        assert_matches_reference(tuple(seqs))


def test_identity_and_involution():
    rng = random.Random(1)
    cfg = random_linear_cfg(rng, 4)
    e = GroupElement.identity(4)
    assert apply(e, cfg) == cfg
    full_reversal = GroupElement((0, 1, 2), (0, 1, 2, 3), (True, True, True))
    assert apply(full_reversal, apply(full_reversal, cfg)) == cfg


def test_left_action_law():
    rng = random.Random(2)
    for _ in range(50):
        cfg = random_linear_cfg(rng, 4)
        g = random_group_element(rng, 4)
        h = random_group_element(rng, 4)
        assert apply(g.compose(h), cfg) == apply(g, apply(h, cfg))
        assert apply(g.inverse(), apply(g, cfg)) == cfg


def test_axis_permutation_reveals_cyclic_pattern():
    # extension of the {2,5,8,9} subset; with roles A=9, B=2, C=8, D=5 the
    # axis order (z, y, x) shows the cyclic triple shape, D below C everywhere
    cfg = Configuration.from_sequences(
        ("2", "5", "8", "9"),
        XYZ,
        (("9", "5", "2", "8"), ("5", "8", "9", "2"), ("2", "5", "8", "9")),
    )
    g = GroupElement((2, 1, 0), (0, 1, 2, 3), (False, False, False))
    moved = apply(g, cfg)
    triples = [
        tuple(l for l in o.sequence() if l != "5") for o in moved.orders
    ]
    assert triples == [("2", "8", "9"), ("8", "9", "2"), ("9", "2", "8")]  # (B,C,A), (C,A,B), (A,B,C)
    assert all(o.less("5", "8") for o in moved.orders)


def test_sign_parity_examples():
    assert sign_parity(GroupElement.identity(4)) is FormalSign.PLUS
    one_reversal = GroupElement((0, 1, 2), (0, 1, 2, 3), (True, False, False))
    assert sign_parity(one_reversal) is FormalSign.MINUS
    label_swap = GroupElement((0, 1, 2), (1, 0, 2, 3), (False, False, False))
    assert sign_parity(label_swap) is FormalSign.MINUS
    axis_swap = GroupElement((1, 0, 2), (0, 1, 2, 3), (False, False, False))
    assert sign_parity(axis_swap) is FormalSign.MINUS


def test_sign_parity_multiplicative():
    rng = random.Random(3)
    for _ in range(100):
        g = random_group_element(rng, 4)
        h = random_group_element(rng, 4)
        assert sign_parity(g.compose(h)) is fmul(sign_parity(g), sign_parity(h))


def test_canonical_form_idempotent_and_orbit_invariant():
    rng = random.Random(4)
    for _ in range(30):
        cfg = random_linear_cfg(rng, 4)
        canon, g = canonical_form(cfg)
        assert apply(g, cfg) == canon
        again, g2 = canonical_form(canon)
        assert again == canon
        h = random_group_element(rng, 4)
        moved_canon, _ = canonical_form(apply(h, cfg))
        assert moved_canon == canon


def seeded_codes(rng, n, count):
    """Linear codes of ``n`` labels, some of whose axes repeat or reverse
    an earlier axis, so that several candidates can reach the minimum."""
    codes = []
    for _ in range(count):
        rows = []
        for _ in range(n - 1):
            r = rng.random()
            if rows and r < 0.2:
                rows.append(rng.choice(rows))
            elif rows and r < 0.4:
                rows.append(rng.choice(rows)[::-1])
            else:
                rows.append(bytes(rng.sample(range(n), n)))
        codes.append(b"".join(rows))
    return codes


def inversion_parity(g):
    """The sign parity of ``g`` by counting inverted pairs."""
    flips = sum(g.reversals)
    for perm in (g.axis_source, g.label_perm):
        flips += sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
    return -1 if flips % 2 else 1


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8])
def test_canonical_parity_is_the_sign_parity_of_its_element(n):
    # canonical and sign_parity count cycles; both must agree with the
    # inversion count of the element canonical reports, which maps the
    # code onto the canonical code
    rng = random.Random(f"canonical-parity:{n}")
    labels, axes = default_labels(n), default_axes(n - 1)
    for code in seeded_codes(rng, n, 300):
        canon, src, sigma, revs, parity = canonical(code, n)
        g = GroupElement(src, sigma, revs)
        cfg = Configuration.from_sequences(labels, axes, decode(code, labels))
        assert code_of(apply(g, cfg)) == canon
        assert parity == sign_parity(g).value == inversion_parity(g)
        assert canonical(canon, n)[0] == canon


def test_canonical_form_rejects_partial():
    cfg = Configuration.from_pairs(("A", "B", "C"), ("x", "y"), {"x": [("A", "B")], "y": []})
    with pytest.raises(ValueError):
        canonical_form(cfg)


def test_are_equivalent_examples():
    rng = random.Random(5)
    cfg = random_linear_cfg(rng, 4)
    assert are_equivalent(cfg, cfg)
    g = random_group_element(rng, 4)
    assert are_equivalent(cfg, apply(g, cfg))

    conformal = Configuration.from_sequences(("A", "B", "C"), ("x", "y"), (("A", "B", "C"),) * 2)
    skew = Configuration.from_sequences(
        ("A", "B", "C"), ("x", "y"), (("A", "B", "C"), ("B", "C", "A"))
    )
    assert not are_equivalent(conformal, skew)


def test_fixed_classes_have_distinct_canonical_forms():
    keys = {canonical_key(cfg) for cfg in fixed_n4_configs()}
    assert len(keys) == 4


def test_enumerate_classes_counts_and_fixed_split():
    assert len(enumerate_classes(2)) == 1
    assert len(enumerate_classes(3)) == 2
    reps = enumerate_classes(4)
    assert len(reps) == 21
    fixed = [rep for rep in reps if decide(rep).status is Status.FIXED]
    assert len(fixed) == 4
    fixed_keys = {canonical_key(c) for c in fixed_n4_configs()}
    assert {canonical_key(c) for c in fixed} == fixed_keys
    with pytest.raises(ValueError):
        enumerate_classes(5)
    with pytest.raises(ValueError):
        enumerate_classes(1)


def brute_force_classes(n):
    """Canonical codes of every identity-first linear code, deduplicated
    and sorted: the exhaustive reference for ``enumerate_classes``."""
    identity = bytes(range(n))
    perms = [bytes(p) for p in permutations(range(n))]
    return sorted(
        {canonical(identity + b"".join(rest), n)[0] for rest in product(perms, repeat=n - 2)}
    )


@pytest.mark.parametrize("n", [2, 3, 4])
def test_enumerate_classes_matches_brute_force(n):
    assert [code_of(rep) for rep in enumerate_classes(n)] == brute_force_classes(n)


def test_five_label_enumeration_matches_orbit_count():
    reps = enumerate_classes(5, allow_long=True)
    assert len(reps) == 5097
    assert all(rep.is_linear() for rep in reps[:50])
    assert sum(orbit_size(rep) for rep in reps) == factorial(5) ** 4


def test_count_classes_sequence():
    assert [count_classes(n) for n in (2, 3, 4, 5)] == [1, 2, 21, 5097]
    with pytest.raises(ValueError):
        count_classes(1)
    with pytest.raises(ValueError):
        count_classes(7)


def test_count_classes_agrees_with_canonical_hashing():
    for n in (2, 3, 4):
        assert count_classes(n) == len(enumerate_classes(n))


def test_orbit_sizes_sum_to_all_configurations():
    reps = enumerate_classes(4)
    assert sum(orbit_size(rep) for rep in reps) == factorial(4) ** 3
    # orbit sizes divide the group order
    group_order = factorial(3) * factorial(4) * 2**3
    assert all(group_order % orbit_size(rep) == 0 for rep in reps)


def test_equivalence_preserves_fixity_and_transports_sign():
    rng = random.Random(6)
    samples = fixed_n4_configs() + [random_linear_cfg(rng, 4) for _ in range(20)]
    for cfg in samples:
        base = decide(cfg)
        for _ in range(8):
            g = random_group_element(rng, len(cfg.labels))
            image = decide(apply(g, cfg))
            assert image.status is base.status
            if base.status is Status.FIXED:
                expected = sign_parity(g).value * base.sign.value
                assert image.sign.value == expected
