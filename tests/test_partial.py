"""Partial input: the first linear extension, then the ray criterion over
filters, checked against the extension loop it replaced."""

import copy
import random
from itertools import combinations, product

import pytest

from simplexfix import (
    ConfigSign,
    Configuration,
    FixityVerdict,
    NotNonFixedError,
    Ordering,
    Status,
    build_witness,
    configuration_extensions,
    decide,
    replay_certificate,
    verify_witness,
)
from simplexfix.orders import OrderingCycleError
from conftest import seeded_partials


def reference_decide(cfg):
    """Status and sign by the extension loop: non-fixed as soon as one
    linear extension is, otherwise fixed with the extensions' common sign;
    only the empty two-label ordering has fixed extensions of both signs,
    and it is non-fixed."""
    signs = set()
    for ext in configuration_extensions(cfg):
        verdict = decide(ext)
        if verdict.status is Status.NON_FIXED:
            return Status.NON_FIXED, ConfigSign.BOTH
        signs.add(verdict.sign)
    if len(signs) == 2:
        assert cfg.n() == 2
        return Status.NON_FIXED, ConfigSign.BOTH
    return Status.FIXED, signs.pop()


def all_orderings(labels):
    pairs = [(e, f) for e in labels for f in labels if e != f]
    found = set()
    for r in range(len(pairs) + 1):
        for chosen in combinations(pairs, r):
            try:
                found.add(Ordering.from_pairs(labels, chosen).pairs)
            except OrderingCycleError:
                pass
    return [Ordering(labels, p) for p in sorted(found, key=sorted)]


def every_n3_configuration():
    orderings = all_orderings(("A", "B", "C"))
    return [Configuration(("A", "B", "C"), ("x", "y"), pair) for pair in product(orderings, repeat=2)]


def assert_matches_reference(cfg):
    verdict = decide(cfg)
    assert (verdict.status, verdict.sign) == reference_decide(cfg), cfg
    assert replay_certificate(cfg, verdict), cfg
    return verdict


def test_every_n3_configuration_matches_the_extension_loop():
    cfgs = every_n3_configuration()
    assert len(cfgs) == 361
    partial = [cfg for cfg in cfgs if not cfg.is_linear()]
    assert len(partial) == 325
    kinds = {}
    for cfg in cfgs:
        kind = assert_matches_reference(cfg).certificate["type"]
        kinds[kind] = kinds.get(kind, 0) + 1
    assert kinds["extension"] + kinds["ray_pair"] + kinds["ray_all"] == 325


@pytest.mark.parametrize("n, count, drop", [(2, 1, 1.0), (4, 300, 0.5), (5, 60, 0.3), (5, 20, 0.5)])
def test_seeded_partial_configurations_match_the_extension_loop(n, count, drop):
    rng = random.Random(f"partial:{n}:{drop}")
    for cfg in seeded_partials(rng, n, count, drop):
        verdict = assert_matches_reference(cfg)
        if verdict.status is Status.NON_FIXED:
            assert verify_witness(build_witness(cfg, verdict), cfg)


def test_empty_two_label_configuration_is_a_ray_pair():
    cfg = Configuration.from_pairs(("A", "B"), ("x",), {"x": []})
    verdict = decide(cfg)
    assert verdict.to_json() == {
        "status": "non_fixed",
        "sign": "+-",
        "certificate": {"type": "ray_pair", "plus": {"x": ["B"]}, "minus": {"x": ["A"]}},
    }
    assert replay_certificate(cfg, verdict)
    pair = build_witness(cfg)
    assert (pair.plus.value("A", "x"), pair.plus.value("B", "x")) == (1, 2)
    assert (pair.minus.value("A", "x"), pair.minus.value("B", "x")) == (2, 1)


# x free, y: A<C<B; the first extension (x: A<B<C) is fixed, so the
# filter pass finds the opposite signs
RAY_PAIR3 = Configuration.from_pairs(
    ("A", "B", "C"), ("x", "y"), {"x": [], "y": [("A", "C"), ("C", "B")]}
)
# x: A<B, A<C; y: C<A<B; every filter tuple is <= 0
RAY_ALL3 = Configuration.from_pairs(
    ("A", "B", "C"), ("x", "y"), {"x": [("A", "B"), ("A", "C")], "y": [("C", "A"), ("A", "B")]}
)


def tampered(verdict, edit, sign=None):
    cert = copy.deepcopy(verdict.certificate)
    edit(cert)
    return FixityVerdict(verdict.status, verdict.sign if sign is None else sign, cert)


def test_partial_ray_pair_certificate_and_tampering():
    verdict = decide(RAY_PAIR3)
    assert verdict.certificate == {
        "type": "ray_pair",
        "plus": {"x": ["A"], "y": ["B"]},
        "minus": {"x": ["C"], "y": ["B"]},
    }
    assert replay_certificate(RAY_PAIR3, verdict)
    pair = build_witness(RAY_PAIR3, verdict)
    assert verify_witness(pair, RAY_PAIR3)

    def swap(c):
        c["plus"], c["minus"] = c["minus"], c["plus"]

    def not_a_filter(c):  # {A, B} is not up-closed on y: C lies above A
        c["plus"]["y"] = ["A", "B"]

    def repeated_label(c):
        c["plus"]["y"] = ["B", "B"]

    for edit in (swap, not_a_filter, repeated_label):
        bad = tampered(verdict, edit)
        assert not replay_certificate(RAY_PAIR3, bad)
        with pytest.raises(ValueError, match="certificate invalid"):
            build_witness(RAY_PAIR3, bad)
    assert not replay_certificate(
        RAY_PAIR3, FixityVerdict(Status.FIXED, ConfigSign.PLUS, verdict.certificate)
    )
    # on x every nonempty proper subset is a filter, so {B, C} stands
    assert replay_certificate(RAY_PAIR3, tampered(verdict, lambda c: c["minus"].update(x=["B", "C"])))


def test_partial_ray_all_certificate_and_tampering():
    verdict = decide(RAY_ALL3)
    # x has the filters {B}, {C}, {B, C}; y, a chain, has 2
    assert verdict.certificate == {"type": "ray_all", "tuples": 6, "sign": "-"}
    assert verdict.sign is ConfigSign.MINUS
    assert replay_certificate(RAY_ALL3, verdict)

    def flip(c):
        c["sign"] = "+"

    assert not replay_certificate(RAY_ALL3, tampered(verdict, lambda c: c.update(tuples=4)))
    assert not replay_certificate(RAY_ALL3, tampered(verdict, flip))
    assert not replay_certificate(RAY_ALL3, tampered(verdict, flip, ConfigSign.PLUS))
    assert not replay_certificate(RAY_ALL3, tampered(verdict, lambda c: None, ConfigSign.PLUS))
    # the same claim on a non-fixed input fails
    assert not replay_certificate(RAY_PAIR3, verdict)
    with pytest.raises(NotNonFixedError):
        build_witness(RAY_ALL3, verdict)


def test_partial_witness_searches_past_a_foreign_certificate():
    # a certificate the witness does not follow, even a FIXED one or a
    # fixed extension's, leaves the search on the input: a partial input
    # is not taken at its word
    cfg = Configuration.from_pairs(
        ("A", "B", "C"), ("x", "y"), {"x": [("A", "B")], "y": [("A", "B"), ("B", "C")]}
    )
    assert decide(cfg).status is Status.NON_FIXED
    foreign = [
        {"type": "ray_all", "tuples": 3, "sign": "+"},
        {"type": "dim2_fixed", "middle": "B", "sign": "+"},
    ]
    fixed_extension = {  # C < A < B against A < B < C
        "type": "extension",
        "orders": {"x": ["C", "A", "B"], "y": ["A", "B", "C"]},
        "inner": {"type": "dim2_fixed", "middle": "A", "sign": "+"},
    }
    for cert in (*foreign, fixed_extension):
        given = FixityVerdict(Status.FIXED, ConfigSign.PLUS, cert)
        assert verify_witness(build_witness(cfg, given), cfg)
    for cert in (None, *foreign):
        with pytest.raises(NotNonFixedError):
            build_witness(RAY_ALL3, cert and FixityVerdict(Status.FIXED, ConfigSign.MINUS, cert))


def test_extension_certificates_are_checked_by_position():
    from conftest import subset_13710

    cfg = subset_13710()
    verdict = decide(cfg)
    assert verdict.certificate["type"] == "extension"
    assert replay_certificate(cfg, verdict)

    def out_of_order(c):  # x holds 7 < 3
        c["orders"]["x"] = ["3", "7", "1", "10"]

    assert not replay_certificate(cfg, tampered(verdict, out_of_order))
    with pytest.raises(ValueError, match="certificate invalid"):
        build_witness(cfg, tampered(verdict, out_of_order))
    for edit in (
        lambda c: c["orders"]["x"].append("7"),
        lambda c: c["orders"]["x"].__setitem__(0, "3"),
    ):
        with pytest.raises(ValueError, match="every label exactly once"):
            replay_certificate(cfg, tampered(verdict, edit))


def _chain_case_n5():
    """A seeded partial five-label configuration whose first extension
    has a chain of extreme removals, over labels no representative uses."""
    from simplexfix.criteria import _Lin, _lemma_certificate

    names = dict(zip("ABCDE", ("p1", "p2", "p3", "p4", "p5")))
    for cfg in seeded_partials(random.Random(53), 5, 40):
        first = _Lin(cfg.labels, cfg.axes, tuple(o.first_extension() for o in cfg.orders))
        if _lemma_certificate(first) is not None:
            return Configuration.from_pairs(
                tuple(names[lab] for lab in cfg.labels),
                cfg.axes,
                {axis: [(names[e], names[f]) for e, f in o.pairs] for axis, o in zip(cfg.axes, cfg.orders)},
            )
    raise AssertionError("no seeded input with a chain")


def test_partial_input_is_decided_off_the_class_memo(monkeypatch):
    # a partial input is decided as a scan decides a pattern: the chain of
    # its first extension, built fresh on its own labels; neither decide
    # nor the witness that follows its certificate reaches the class memo
    # or searches for the chain again
    from conftest import partial_n3_quartet, subset_13710
    from simplexfix import engine
    from simplexfix.criteria import _Lin, _lemma_certificate

    def refuse(*args):
        raise AssertionError("reached the class memo or searched again")

    monkeypatch.setattr(engine, "_decide_class", refuse)
    monkeypatch.setattr(engine, "canonical", refuse)
    for cfg in (subset_13710(), partial_n3_quartet()[2], _chain_case_n5()):
        verdict = decide(cfg)
        first = _Lin(cfg.labels, cfg.axes, tuple(o.first_extension() for o in cfg.orders))
        assert verdict.certificate == {
            "type": "extension",
            "orders": {axis: list(seq) for axis, seq in zip(cfg.axes, first.seqs)},
            "inner": _lemma_certificate(first),
        }
        assert {step["label"] for step in verdict.certificate["inner"]["steps"]} <= set(cfg.labels)
        assert cfg.n() == 3 or verdict.certificate["inner"]["steps"]
        assert replay_certificate(cfg, verdict)
        monkeypatch.setattr(engine, "_lemma_certificate", refuse)
        assert verify_witness(build_witness(cfg, verdict), cfg)
        monkeypatch.setattr(engine, "_lemma_certificate", _lemma_certificate)
