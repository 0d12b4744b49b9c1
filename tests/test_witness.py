"""Witness construction: exact opposite-orientation assignment pairs."""

import random
from fractions import Fraction
from itertools import permutations, product

import pytest

from simplexfix import (
    Configuration,
    NotNonFixedError,
    Status,
    build_witness,
    decide,
    det_sign,
    satisfies,
    verify_witness,
)
from conftest import N4_LABELS, XYZ, fixed_n4_configs, seeded_partials, subset_13710

LABELS3 = ("A", "B", "C")


def test_equal_orderings_base_witness():
    cfg = Configuration.from_sequences(LABELS3, ("x", "y"), (LABELS3, LABELS3))
    pair = build_witness(cfg)
    assert verify_witness(pair, cfg)
    assert isinstance(pair.plus.value("A", "x"), Fraction)


def test_reversed_orderings_base_witness():
    cfg = Configuration.from_sequences(LABELS3, ("x", "y"), (LABELS3, ("C", "B", "A")))
    pair = build_witness(cfg)
    assert verify_witness(pair, cfg)


def test_every_non_fixed_three_label_configuration():
    perms = list(permutations(LABELS3))
    count = 0
    for sx, sy in product(perms, perms):
        cfg = Configuration.from_sequences(LABELS3, ("x", "y"), (sx, sy))
        if decide(cfg).status is Status.NON_FIXED:
            assert verify_witness(build_witness(cfg), cfg)
            count += 1
    assert count == 12


def test_random_non_fixed_four_label_configurations():
    rng = random.Random(21)
    perms = list(permutations(N4_LABELS))
    done = 0
    while done < 60:
        cfg = Configuration.from_sequences(
            N4_LABELS, XYZ, [rng.choice(perms) for _ in range(3)]
        )
        if decide(cfg).status is not Status.NON_FIXED:
            continue
        pair = build_witness(cfg)
        assert verify_witness(pair, cfg)
        done += 1


def test_partial_configuration_witness_satisfies_weaker_relation():
    cfg = subset_13710()
    pair = build_witness(cfg)
    assert satisfies(pair.plus, cfg) and satisfies(pair.minus, cfg)
    assert det_sign(pair.plus).value == 1 and det_sign(pair.minus).value == -1


def test_empty_two_label_configuration():
    cfg = Configuration.from_pairs(("A", "B"), ("x",), {"x": []})
    pair = build_witness(cfg)
    assert verify_witness(pair, cfg)


def test_witness_follows_a_supplied_certificate_chain():
    from conftest import subset_13710_extension
    from simplexfix import ConfigSign, FixityVerdict, non_fixed_by_extreme_lemma

    ext = subset_13710_extension()
    pair = build_witness(ext, non_fixed_by_extreme_lemma(ext))
    assert verify_witness(pair, ext)

    documented = FixityVerdict(
        Status.NON_FIXED,
        ConfigSign.BOTH,
        {
            "type": "extreme_lemma",
            "steps": [{"label": "10", "axis": "z", "extreme": "max"}],
            "base": {"type": "dim2_non_fixed", "relation": "equal"},
        },
    )
    assert verify_witness(build_witness(ext, documented), ext)

    bogus = FixityVerdict(
        Status.NON_FIXED,
        ConfigSign.BOTH,
        {
            "type": "extreme_lemma",
            "steps": [{"label": "1", "axis": "z", "extreme": "max"}],
            "base": {"type": "dim2_non_fixed", "relation": "equal"},
        },
    )
    with pytest.raises(ValueError, match="certificate invalid"):
        build_witness(ext, bogus)


@pytest.mark.parametrize(
    "step, relation",
    [
        # the base pair {7,3,1} is equal on x and y, not reversed
        ({"label": "10", "axis": "z", "extreme": "max"}, "reversed"),
        # 10 is the maximum on z, not the minimum
        ({"label": "10", "axis": "z", "extreme": "min"}, "equal"),
    ],
)
def test_supplied_chain_is_checked_step_by_step(step, relation):
    from conftest import subset_13710_extension
    from simplexfix import ConfigSign, FixityVerdict, replay_certificate

    ext = subset_13710_extension()
    wrong = FixityVerdict(
        Status.NON_FIXED,
        ConfigSign.BOTH,
        {
            "type": "extreme_lemma",
            "steps": [step],
            "base": {"type": "dim2_non_fixed", "relation": relation},
        },
    )
    with pytest.raises(ValueError, match="certificate invalid"):
        build_witness(ext, wrong)
    assert not replay_certificate(ext, wrong)


def test_witness_follows_ray_pair_certificates():
    # README's five-label example has no extreme-removal chain; its
    # witnesses come from the ray criterion's positive and negative tuples
    from simplexfix import FixityVerdict, non_fixed_by_extreme_lemma
    from simplexfix.configio import parse_configuration

    cfg = parse_configuration(
        "x: D<B<A<E<C\ny: D<C<A<E<B\nz: B<D<C<A<E\nu: A<D<C<B<E\n"
    )
    assert non_fixed_by_extreme_lemma(cfg).status is Status.UNKNOWN
    verdict = decide(cfg)
    assert verdict.status is Status.NON_FIXED
    assert verify_witness(build_witness(cfg), cfg)
    assert verify_witness(build_witness(cfg, verdict), cfg)

    # the inner certificate names up-sets of the representative
    cert = verdict.certificate
    rep = cert["representative"]
    rep_cfg = Configuration.from_sequences(rep["labels"], rep["axes"], rep["sequences"])
    inner = FixityVerdict(verdict.status, verdict.sign, cert["inner"])
    pair = build_witness(rep_cfg, inner)
    assert verify_witness(pair, rep_cfg)
    assert all(v.denominator == 1 for v in pair.plus.values.values())

    plus, minus = cert["inner"]["plus"], cert["inner"]["minus"]
    swapped = dict(cert["inner"], plus=minus, minus=plus)
    not_up = dict(cert["inner"], plus=dict(plus, x=[rep["sequences"][0][0]]))
    for bad in (swapped, not_up):
        with pytest.raises(ValueError, match="certificate invalid"):
            build_witness(rep_cfg, FixityVerdict(verdict.status, verdict.sign, bad))


def test_witness_following_decide_equals_the_search_on_the_input():
    # an `equivalent` certificate is checked, not followed: the witness is
    # searched on the input itself, as `simplexfix witness` builds it
    import copy

    from simplexfix import FixityVerdict, sign_parity
    from simplexfix.configio import parse_configuration
    from simplexfix.equivalence import GroupElement

    rng = random.Random(22)
    cfgs = []
    for n, count in ((3, 20), (4, 60), (5, 30), (6, 8)):
        labels = tuple("ABCDEF"[:n])
        axes = tuple(f"a{i}" for i in range(n - 1))
        for _ in range(count):
            cfgs.append(Configuration.from_sequences(labels, axes, [rng.sample(labels, n) for _ in axes]))
    for n, count in ((3, 20), (4, 30), (5, 15)):
        cfgs += seeded_partials(rng, n, count)
    parities = set()
    shown = 0
    for cfg in cfgs:
        verdict = decide(cfg)
        if verdict.status is not Status.NON_FIXED:
            continue
        cert = verdict.certificate
        if cert["type"] == "equivalent":
            g = GroupElement(tuple(cert["axis_source"]), tuple(cert["label_perm"]), tuple(cert["reversals"]))
            parities.add(str(sign_parity(g)))
        assert build_witness(cfg, verdict) == build_witness(cfg)
        shown += 1
    assert parities == {"+", "-"} and shown > 100

    readme = parse_configuration("x: D<B<A<E<C\ny: D<C<A<E<B\nz: B<D<C<A<E\nu: A<D<C<B<E\n")
    verdict = decide(readme)
    wrong = copy.deepcopy(verdict.certificate)
    wrong["label_perm"] = wrong["label_perm"][1:] + wrong["label_perm"][:1]
    with pytest.raises(ValueError, match="certificate invalid"):
        build_witness(readme, FixityVerdict(verdict.status, verdict.sign, wrong))


def test_fixed_configurations_refuse_witnesses():
    with pytest.raises(NotNonFixedError):
        build_witness(Configuration.from_sequences(LABELS3, ("x", "y"), (LABELS3, ("B", "C", "A"))))
    with pytest.raises(NotNonFixedError):
        build_witness(fixed_n4_configs()[0])
    with pytest.raises(NotNonFixedError):
        build_witness(Configuration.from_sequences(("A", "B"), ("x",), (("A", "B"),)))
