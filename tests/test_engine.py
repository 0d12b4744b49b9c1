"""Fixity deciders: base dimensions, expansion, extreme-element lemma,
the ray-determinant criterion, partial inputs, certificates, and the
size limit."""

import copy
import os
import random
import subprocess
import sys
import textwrap
import time
from collections import Counter
from itertools import permutations, product
from pathlib import Path

import pytest

from simplexfix import (
    ConfigSign,
    Configuration,
    CrossCheckError,
    FixityVerdict,
    FormalSign,
    GroupElement,
    Status,
    apply,
    build_witness,
    decide,
    decide_dim1,
    decide_dim2,
    decide_dim3,
    enumerate_classes,
    expansion_formal_sign,
    formally_fixed_by_expansion,
    is_conformal,
    non_fixed_by_extreme_lemma,
    replay_certificate,
    sample_signs,
    verify_witness,
)
from conftest import (
    N4_LABELS,
    XYZ,
    fixed_n4_configs,
    partial_n3_quartet,
    seeded_partials,
    subset_13710,
    subset_13710_extension,
    subset_15910,
    subset_2589,
)

LABELS3 = ("A", "B", "C")
AXES2 = ("x", "y")


def linear3(sx, sy):
    return Configuration.from_sequences(LABELS3, AXES2, (tuple(sx), tuple(sy)))


def test_decide_dim1():
    up = Configuration.from_sequences(("A", "B"), ("x",), (("A", "B"),))
    down = Configuration.from_sequences(("A", "B"), ("x",), (("B", "A"),))
    assert decide_dim1(up).status is Status.FIXED
    assert decide_dim1(up).sign is ConfigSign.PLUS
    assert decide_dim1(down).sign is ConfigSign.MINUS
    empty = Configuration.from_pairs(("A", "B"), ("x",), {"x": []})
    with pytest.raises(ValueError):
        decide_dim1(empty)
    verdict = decide(empty)
    assert verdict.status is Status.NON_FIXED


def test_decide_dim2_examples():
    equal = linear3("ABC", "ABC")
    reversed_ = linear3("ABC", "CBA")
    skew = linear3("ABC", "BCA")
    assert decide_dim2(equal).status is Status.NON_FIXED
    assert decide_dim2(reversed_).status is Status.NON_FIXED
    verdict = decide_dim2(skew)
    assert verdict.status is Status.FIXED
    # the true orientation, cross-checked by exact sampling
    assert verdict.sign is ConfigSign.PLUS
    assert sample_signs(skew, 0, 400) == {"pos": 400, "neg": 0, "zero": 0}


def test_decide_dim2_completeness_split():
    perms = list(permutations(LABELS3))
    non_fixed = []
    for sx, sy in product(perms, perms):
        verdict = decide_dim2(linear3(sx, sy))
        if verdict.status is Status.NON_FIXED:
            non_fixed.append((sx, sy))
        else:
            assert verdict.sign in (ConfigSign.PLUS, ConfigSign.MINUS)
    expected = {(sx, sy) for sx in perms for sy in perms if sy == sx or sy == sx[::-1]}
    assert len(expected) == 12
    assert set(non_fixed) == expected


def test_is_conformal_examples():
    cfg = Configuration.from_sequences(
        N4_LABELS, XYZ, (("A", "B", "C", "D"), ("D", "C", "B", "A"), ("B", "C", "A", "D"))
    )
    assert is_conformal(cfg, ("A", "B", "C"), "x", "y")  # reversed
    assert is_conformal(cfg, ("A", "B", "C"), "x", "x")  # equal (trivially)
    assert not is_conformal(cfg, ("A", "B", "C"), "x", "z")


def test_decide_dim3_fixed_examples():
    for cfg in fixed_n4_configs():
        verdict = decide_dim3(cfg)
        assert verdict.status is Status.FIXED
        assert verdict.sign is ConfigSign.PLUS
        assert verdict.certificate["type"] == "expansion"


def test_decide_dim3_rejects_wrong_size():
    with pytest.raises(ValueError):
        decide_dim3(linear3("ABC", "BCA"))


def test_partial_shape_with_floating_label_is_non_fixed():
    # cyclic triple shape, D comparable to A only on z: every completion of
    # the partial ordering admits both orientations
    cfg = Configuration.from_pairs(
        N4_LABELS,
        XYZ,
        {
            "x": [("B", "D"), ("D", "C"), ("C", "A")],
            "y": [("C", "A"), ("A", "D"), ("D", "B")],
            "z": [("A", "B"), ("B", "C"), ("A", "D")],
        },
    )
    verdict = decide(cfg)
    assert verdict.status is Status.NON_FIXED
    assert replay_certificate(cfg, verdict)


def test_expansion_formal_sign_prop_setup():
    cfg = fixed_n4_configs()[0]  # D above every triple label on every axis
    children = {
        axis: decide_dim2(
            Configuration.from_sequences(
                ("A", "B", "C"),
                tuple(a for a in XYZ if a != axis),
                tuple(
                    tuple(l for l in o.sequence() if l != "D")
                    for a, o in zip(cfg.axes, cfg.orders)
                    if a != axis
                ),
            )
        )
        for axis in XYZ
    }
    assert expansion_formal_sign(cfg, "D", "A", children) is FormalSign.PLUS
    # the three cofactor signs behind that sum
    assert [str(children[a].sign) for a in XYZ] == ["+", "-", "+"]

    # reversing every axis flips all difference signs; the result is MINUS
    flipped = Configuration.from_sequences(
        N4_LABELS,
        XYZ,
        tuple(tuple(reversed(o.sequence())) for o in cfg.orders),
    )
    flipped_children = {
        axis: decide_dim2(
            Configuration.from_sequences(
                ("A", "B", "C"),
                tuple(a for a in XYZ if a != axis),
                tuple(
                    tuple(l for l in o.sequence() if l != "D")
                    for a, o in zip(flipped.axes, flipped.orders)
                    if a != axis
                ),
            )
        )
        for axis in XYZ
    }
    assert expansion_formal_sign(flipped, "D", "A", flipped_children) is FormalSign.MINUS
    assert decide(flipped).sign is ConfigSign.MINUS


def test_expansion_with_non_fixed_child_collapses():
    cfg = fixed_n4_configs()[0]
    children = {
        axis: FixityVerdict(Status.NON_FIXED, ConfigSign.BOTH, None) for axis in XYZ
    }
    assert expansion_formal_sign(cfg, "D", "A", children) is FormalSign.UNKNOWN
    with pytest.raises(ValueError):
        expansion_formal_sign(cfg, "D", "D", children)


def test_formally_fixed_by_expansion_matches_direct_decider():
    rng = random.Random(11)
    perms = list(permutations(N4_LABELS))
    for cfg in fixed_n4_configs():
        verdict = formally_fixed_by_expansion(cfg)
        assert verdict.status is Status.FIXED
        assert verdict.sign is ConfigSign.PLUS
    for _ in range(100):
        cfg = Configuration.from_sequences(
            N4_LABELS, XYZ, [rng.choice(perms) for _ in range(3)]
        )
        direct = decide_dim3(cfg)
        by_expansion = formally_fixed_by_expansion(cfg)
        if direct.status is Status.FIXED:
            assert by_expansion.status is Status.FIXED
            assert by_expansion.sign is direct.sign
        else:
            assert by_expansion.status is Status.UNKNOWN


def test_expansion_sign_agrees_with_sampling():
    rng = random.Random(12)
    perms = list(permutations(N4_LABELS))
    checked = 0
    while checked < 5:
        cfg = Configuration.from_sequences(
            N4_LABELS, XYZ, [rng.choice(perms) for _ in range(3)]
        )
        verdict = formally_fixed_by_expansion(cfg)
        if verdict.status is not Status.FIXED:
            continue
        histogram = sample_signs(cfg, 99, 1000)
        bucket = "pos" if verdict.sign is ConfigSign.PLUS else "neg"
        assert histogram[bucket] == 1000
        checked += 1


def test_extreme_lemma_examples():
    ext = subset_13710_extension()
    verdict = non_fixed_by_extreme_lemma(ext)
    assert verdict.status is Status.NON_FIXED
    assert len(verdict.certificate["steps"]) == 1
    assert verdict.certificate["base"]["relation"] == "equal"
    assert replay_certificate(ext, verdict)
    # removing the label 10 (extreme on z) leaves equal orderings on {7,3,1};
    # that hand-written chain must replay as well
    documented = FixityVerdict(
        Status.NON_FIXED,
        ConfigSign.BOTH,
        {
            "type": "extreme_lemma",
            "steps": [{"label": "10", "axis": "z", "extreme": "max"}],
            "base": {"type": "dim2_non_fixed", "relation": "equal"},
        },
    )
    assert replay_certificate(ext, documented)

    for cfg in fixed_n4_configs():
        assert non_fixed_by_extreme_lemma(cfg).status is Status.UNKNOWN

    tangled = Configuration.from_sequences(
        N4_LABELS,
        XYZ,
        (("D", "B", "C", "A"), ("C", "A", "D", "B"), ("A", "B", "D", "C")),
    )
    verdict = non_fixed_by_extreme_lemma(tangled)
    assert verdict.status is Status.NON_FIXED
    assert replay_certificate(tangled, verdict)


def reference_lemma_certificate(lin):
    """The extreme-removal search as first written, recursing on ``_Lin``
    views: the reference for which chain the search returns first."""
    from simplexfix.criteria import _relation

    if len(lin.labels) == 3:
        relation = _relation(*lin.seqs)
        if relation is None:
            return None
        base = {"type": "dim2_non_fixed", "relation": relation}
        return {"type": "extreme_lemma", "steps": [], "base": base}
    for a, seq in enumerate(lin.seqs):
        for e, kind in ((seq[0], "min"), (seq[-1], "max")):
            cert = reference_lemma_certificate(lin.drop(e, a))
            if cert is not None:
                cert["steps"].insert(0, {"label": e, "axis": lin.axes[a], "extreme": kind})
                return cert
    return None


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_chain_search_returns_the_reference_chain(n):
    # one label first on every axis and the others shifted one place per
    # axis has no chain at n >= 4; its images under the symmetry group
    # have none either, and random inputs mostly have one
    from simplexfix.criteria import _Lin, _lemma_certificate

    rng = random.Random(f"chain-reference:{n}")
    labels = tuple(f"p{i}" for i in range(n))
    axes = tuple(f"a{i}" for i in range(n - 1))
    rest = labels[1:]
    cyclic = [(labels[0], *rest[i:], *rest[:i]) for i in range(n - 1)]
    found = Counter()
    for t in range(120 if n < 7 else 60):
        if n > 3 and t % 4 == 0:
            rename = dict(zip(labels, rng.sample(labels, n)))
            oriented = [s[::-1] if rng.random() < 0.5 else s for s in rng.sample(cyclic, n - 1)]
            seqs = [tuple(rename[lab] for lab in s) for s in oriented]
        else:
            seqs = [tuple(rng.sample(labels, n)) for _ in axes]
        lin = _Lin(labels, axes, tuple(seqs))
        want = reference_lemma_certificate(lin)
        assert _lemma_certificate(lin) == want, seqs
        found["none" if want is None else "chain"] += 1
    assert found["none"] and found["chain"]


def tampered(verdict, edit, sign=None):
    cert = copy.deepcopy(verdict.certificate)
    edit(cert)
    return FixityVerdict(verdict.status, sign or verdict.sign, cert)


def test_replay_rejects_tampered_certificates():
    up = Configuration.from_sequences(("A", "B"), ("x",), (("A", "B"),))
    assert not replay_certificate(up, tampered(decide(up), lambda c: None, ConfigSign.MINUS))
    skew = linear3("ABC", "BCA")
    assert not replay_certificate(skew, tampered(decide(skew), lambda c: None, ConfigSign.MINUS))
    claim = {"type": "dim2_non_fixed", "relation": "equal"}
    assert not replay_certificate(skew, FixityVerdict(Status.NON_FIXED, ConfigSign.BOTH, claim))

    cfg = fixed_n4_configs()[0]
    expansion = decide_dim3(cfg)
    assert replay_certificate(cfg, expansion)

    def flip_sign(cert):
        cert["sign"] = "-" if cert["sign"] == "+" else "+"

    assert not replay_certificate(cfg, tampered(expansion, flip_sign))
    assert not replay_certificate(cfg, tampered(expansion, lambda c: c["terms"].pop()))

    ext = subset_13710_extension()
    lemma = non_fixed_by_extreme_lemma(ext)
    assert replay_certificate(ext, lemma)
    step = lemma.certificate["steps"][0]
    middle = ext.order_for(step["axis"]).sequence()[1]
    assert not replay_certificate(ext, tampered(lemma, lambda c: c["steps"][0].update(label=middle)))
    other = {"equal": "reversed", "reversed": "equal"}[lemma.certificate["base"]["relation"]]
    assert not replay_certificate(ext, tampered(lemma, lambda c: c["base"].update(relation=other)))

    from simplexfix.equivalence import code_of

    equivalent = decide(cfg)
    assert equivalent.certificate["type"] == "equivalent"
    perm = list(equivalent.certificate["label_perm"])
    perm[0], perm[1] = perm[1], perm[0]
    g = GroupElement(tuple(equivalent.certificate["axis_source"]), tuple(perm),
                     tuple(equivalent.certificate["reversals"]))
    rep = equivalent.certificate["representative"]
    assert code_of(apply(g, cfg)) != code_of(
        Configuration.from_sequences(rep["labels"], rep["axes"], rep["sequences"])
    )
    assert not replay_certificate(cfg, tampered(equivalent, lambda c: c.update(label_perm=perm)))

    partial = subset_13710()
    extension = decide(partial)
    assert extension.certificate["type"] == "extension"
    # 7 < 3 on x in the input; the tampered extension puts 3 first
    assert not replay_certificate(
        partial, tampered(extension, lambda c: c["orders"].update(x=["3", "7", "1", "10"]))
    )

    for config, verdict, key in (
        (cfg, expansion, "pivot"),
        (ext, lemma, "steps"),
        (cfg, equivalent, "representative"),
        (partial, extension, "orders"),
    ):
        with pytest.raises(KeyError):
            replay_certificate(config, tampered(verdict, lambda c: c.pop(key)))


def _flip(symbol):
    return {"+": "-", "-": "+"}[symbol]


TERM_EDITS = {
    "axis": lambda t: t.update(axis="y" if t["axis"] == "x" else "x"),
    "parity": lambda t: t.update(parity=_flip(t["parity"])),
    "diff": lambda t: t.update(diff=_flip(t["diff"])),
    "child_status": lambda t: t.update(child_status="non_fixed"),
    "child_sign": lambda t: t.update(child_sign=_flip(t["child_sign"])),
    "child": lambda t: t.update(child={"type": "dim2_non_fixed", "relation": "equal"}),
}


@pytest.mark.parametrize("field", list(TERM_EDITS))
def test_replay_checks_every_expansion_term(field):
    cfg = fixed_n4_configs()[0]
    expansion = decide_dim3(cfg)
    assert replay_certificate(cfg, expansion)
    for k in range(3):
        edited = tampered(expansion, lambda c: TERM_EDITS[field](c["terms"][k]))
        assert not replay_certificate(cfg, edited), k


#: every value each claim field of a certificate can take
CLAIM_ALPHABETS = {
    "sign": ("+", "-", "+-", "?"),
    "parity": ("+", "-"),
    "relation": ("equal", "reversed"),
    "middle": tuple("ABCDE") + ("1", "2", "3"),
    "extreme": ("min", "max"),
    "diff": ("+", "-", "?"),
    "child_status": ("fixed", "non_fixed", "unknown"),
    "child_sign": ("+", "-", "+-", None),
}


def _claims(cert, path=()):
    """``(path, field)`` of every claim field in a certificate, at any
    depth."""
    if isinstance(cert, dict):
        for key, value in cert.items():
            if key in CLAIM_ALPHABETS:
                yield path, key
            yield from _claims(value, path + (key,))
    elif isinstance(cert, list):
        for k, value in enumerate(cert):
            yield from _claims(value, path + (k,))


def _at(cert, path):
    for key in path:
        cert = cert[key]
    return cert


def _claim_case(case):
    """A configuration whose verdict has the named certificate kind, and
    the claim fields that certificate holds."""
    return {
        "dim1": (Configuration.from_sequences(("A", "B"), ("x",), (("A", "B"),)), {"sign"}),
        "dim2_fixed": (linear3("ABC", "BCA"), {"middle", "sign"}),
        "dim2_non_fixed": (linear3("ABC", "CBA"), {"relation"}),
        "n4_expansion": (
            fixed_n4_configs()[0],
            {"parity", "diff", "child_status", "child_sign", "sign", "middle"},
        ),
        "n4_extreme_lemma": (
            Configuration.from_sequences(N4_LABELS, XYZ, (N4_LABELS,) * 3),
            {"parity", "extreme", "relation"},
        ),
        "ray_pair": (README5, {"parity"}),
        "ray_all": (FRONTIER5, {"parity", "sign"}),
        "partial_extension": (subset_13710(), {"extreme", "relation"}),
        "partial_ray_pair": (partial_n3_quartet()[1], set()),
        "partial_ray_all": (subset_2589(), {"sign"}),
    }[case]


@pytest.mark.parametrize(
    "case",
    [
        "dim1", "dim2_fixed", "dim2_non_fixed", "n4_expansion", "n4_extreme_lemma",
        "ray_pair", "ray_all", "partial_extension", "partial_ray_pair", "partial_ray_all",
    ],
)
def test_replay_checks_every_claim_field(case):
    # every claim a certificate makes, at any depth, is re-derived: any
    # other value of a sign, parity, relation, middle, extreme, diff,
    # child status or child sign field fails replay
    cfg, fields = _claim_case(case)
    verdict = decide(cfg)
    assert replay_certificate(cfg, verdict)
    claims = list(_claims(verdict.certificate))
    assert {field for _, field in claims} == fields
    for path, field in claims:
        for value in CLAIM_ALPHABETS[field]:
            if value == _at(verdict.certificate, path)[field]:
                continue
            bad = tampered(verdict, lambda c: _at(c, path).__setitem__(field, value))
            try:
                assert not replay_certificate(cfg, bad), (path, field, value)
            except ValueError:
                pass


def test_replay_checks_the_base_of_an_extreme_chain():
    cfg = Configuration.from_sequences(N4_LABELS, XYZ, (N4_LABELS,) * 3)
    lemma = non_fixed_by_extreme_lemma(cfg)
    assert replay_certificate(cfg, lemma)
    base = tampered(lemma, lambda c: c["base"].update(type="dim2_fixed"))
    assert not replay_certificate(cfg, base)
    verdict = decide(cfg)
    assert verdict.certificate["inner"]["type"] == "extreme_lemma"
    inner = tampered(verdict, lambda c: c["inner"]["base"].update(type="dim2_fixed"))
    assert not replay_certificate(cfg, inner)


def _expansions(cert):
    """Every ``expansion`` certificate inside ``cert``, at any depth."""
    if isinstance(cert, dict):
        if cert.get("type") == "expansion":
            yield cert
        for value in cert.values():
            yield from _expansions(value)
    elif isinstance(cert, list):
        for value in cert:
            yield from _expansions(value)


def test_replay_proves_expansion_children_without_deciding_them(monkeypatch):
    # an expansion term's child sign is read from the certificate and
    # proved by replaying the child's own certificate: replay reaches
    # neither a canonical form nor the class memo, and a flipped child
    # sign is refused
    from class_growth import FIXED_SIX
    from simplexfix import engine
    from simplexfix.criteria import default_axes, default_labels
    from simplexfix.equivalence import decode

    labels6 = default_labels(6)
    classes = [decode(bytes.fromhex(code), labels6) for code in FIXED_SIX.read_text().split()]
    rng = random.Random(18)
    cases = []
    while len(cases) < 50:
        # a fixed six-label class, or one of its extreme removals, under a
        # random relabeling, axis order and reversal mask
        seqs = [list(seq) for seq in rng.choice(classes)]
        if rng.random() < 0.5:
            gone = seqs.pop(rng.randrange(5))[rng.choice((0, -1))]
            seqs = [[lab for lab in seq if lab != gone] for seq in seqs]
        n = len(seqs[0])
        names = dict(zip(seqs[0], rng.sample(default_labels(n), n)))
        rng.shuffle(seqs)
        seqs = [[names[lab] for lab in (seq[::-1] if rng.random() < 0.5 else seq)] for seq in seqs]
        cfg = Configuration.from_sequences(default_labels(n), default_axes(n - 1), seqs)
        verdict = decide(cfg)
        if next(_expansions(verdict.certificate), None) is not None:
            cases.append((cfg, verdict))
    assert {cfg.n() for cfg, _ in cases} == {5, 6}

    def refuse(*args):
        raise AssertionError("replay consulted the class memo")

    engine.clear_memo()
    monkeypatch.setattr(engine, "_decide_class", refuse)
    monkeypatch.setattr(engine, "canonical", refuse)
    for cfg, verdict in cases:
        assert replay_certificate(cfg, verdict)
        terms = next(_expansions(verdict.certificate))["terms"]
        k = rng.randrange(len(terms))
        bad = tampered(verdict, lambda c: next(_expansions(c))["terms"][k].update(
            child_sign=_flip(terms[k]["child_sign"])))
        try:
            assert not replay_certificate(cfg, bad), cfg
        except ValueError:
            pass


def _ray_reference(labels, gens):
    """First tuple of each nonzero determinant sign, one determinant
    (integer Bareiss) per tuple."""
    from simplexfix.engine import _ray_rows
    from simplexfix.orders import _det_sign_int

    found = {}
    for chosen in product(*(range(len(g)) for g in gens)):
        d = _det_sign_int(_ray_rows(labels, [g[k] for g, k in zip(gens, chosen)]))
        if d and d not in found:
            found[d] = list(chosen)
            if len(found) == 2:
                break
    return found


def test_ray_search_matches_one_determinant_per_tuple():
    from simplexfix.engine import _Lin, _chain_filters, _first_extension, _partial_filters, _ray_search

    rng = random.Random(41)
    for n, count in ((2, 4), (3, 40), (4, 200), (5, 200), (6, 30)):
        labels = tuple("ABCDEF"[:n])
        axes = tuple(f"a{i}" for i in range(n - 1))
        for _ in range(count):
            lin = _Lin(labels, axes, tuple(tuple(rng.sample(labels, n)) for _ in axes))
            gens = _chain_filters(lin)
            assert gens == [[seq[n - s :] for s in range(1, n)] for seq in lin.seqs]
            assert _ray_search(labels, gens) == _ray_reference(labels, gens), lin.seqs
    # filters of partial orders: several labels enter and leave per step
    for n, count in ((3, 40), (4, 60), (5, 10)):
        for cfg in seeded_partials(rng, n, count):
            gens = _partial_filters(cfg, _first_extension(cfg))
            assert _ray_search(cfg.labels, gens) == _ray_reference(cfg.labels, gens)


def test_order_parts_from_shapes_match_each_ordering_and_decide():
    from simplexfix.criteria import _filters, _order_parts, _pattern_status, _ray_steps
    from simplexfix.engine import _ray_verdict

    rng = random.Random(43)
    for n, count in ((3, 40), (4, 60), (5, 30), (6, 10)):
        for cfg in seeded_partials(rng, n, count):
            parts = [_order_parts(o) for o in cfg.orders]
            filters = [_filters(o.first_extension(), o.pairs) for o in cfg.orders]
            assert parts == [(o.first_extension(), _ray_steps(o.labels, f)) for o, f in zip(cfg.orders, filters)]
            verdict = decide(cfg)
            if verdict.certificate["type"] != "extension":
                assert verdict == _ray_verdict(cfg, filters)
            assert _pattern_status(cfg.labels, cfg.axes, parts) == (verdict.status, verdict.sign)


def test_ray_criterion_agrees_with_decide_at_n3_and_n4():
    from simplexfix.engine import _chain_filters, _Lin, _ray_verdict

    rng = random.Random(42)
    perms = list(permutations(N4_LABELS))
    seeded = [
        Configuration.from_sequences(N4_LABELS, XYZ, [rng.choice(perms) for _ in range(3)])
        for _ in range(300)
    ]
    for cfg in [*enumerate_classes(3), *enumerate_classes(4), *seeded]:
        lin = _Lin.of(cfg)
        ray = _ray_verdict(lin, _chain_filters(lin))
        verdict = decide(cfg)
        assert (ray.status, ray.sign) == (verdict.status, verdict.sign)
        assert ray.certificate["type"] == ("ray_all" if ray.status is Status.FIXED else "ray_pair")
        assert replay_certificate(cfg, ray)


# x: D<B<A<E<C, y: D<C<A<E<B, z: B<D<C<A<E, u: A<D<C<B<E (README): non-fixed,
# with no extreme-removal chain
README5 = Configuration.from_sequences(
    ("D", "B", "A", "E", "C"),
    ("x", "y", "z", "u"),
    (tuple("DBAEC"), tuple("DCAEB"), tuple("BDCAE"), tuple("ADCBE")),
)


def test_replay_rejects_tampered_ray_certificates():
    pair = decide(README5)
    assert pair.status is Status.NON_FIXED
    assert pair.certificate["inner"]["type"] == "ray_pair"
    assert replay_certificate(README5, pair)

    def swap(c):
        c["inner"]["plus"], c["inner"]["minus"] = c["inner"]["minus"], c["inner"]["plus"]

    def lowest_label(c):
        rep = c["representative"]
        c["inner"]["plus"][rep["axes"][0]] = [rep["sequences"][0][0]]

    def whole_axis(c):
        rep = c["representative"]
        c["inner"]["minus"][rep["axes"][1]] = list(rep["sequences"][1])

    for edit in (swap, lowest_label, whole_axis):
        assert not replay_certificate(README5, tampered(pair, edit))
    assert not replay_certificate(
        README5, FixityVerdict(Status.FIXED, ConfigSign.PLUS, pair.certificate)
    )

    fixed = decide(FRONTIER5)
    assert fixed.certificate["inner"]["type"] == "ray_all"

    def flip_inner_sign(c):
        c["inner"]["sign"] = _flip(c["inner"]["sign"])

    assert not replay_certificate(FRONTIER5, tampered(fixed, lambda c: None, ConfigSign.PLUS))
    assert not replay_certificate(FRONTIER5, tampered(fixed, flip_inner_sign))
    assert not replay_certificate(FRONTIER5, tampered(fixed, flip_inner_sign, ConfigSign.PLUS))
    assert not replay_certificate(
        FRONTIER5, tampered(fixed, lambda c: c["inner"].update(tuples=255))
    )
    assert not replay_certificate(
        README5, FixityVerdict(Status.FIXED, ConfigSign.PLUS, fixed.certificate["inner"])
    )


def test_configurations_above_the_size_limit_are_refused():
    from simplexfix import MAX_LABELS, landmark

    labels = tuple("ABCDEFGHI")
    axes = tuple(f"a{i}" for i in range(8))
    big = Configuration.from_sequences(labels, axes, [labels] * 8)
    assert MAX_LABELS == 8
    for call in (
        lambda: decide(big),
        lambda: build_witness(big),
        lambda: replay_certificate(big, FixityVerdict(Status.NON_FIXED, ConfigSign.BOTH, {})),
    ):
        with pytest.raises(ValueError, match="more than 8 labels"):
            call()
    cloud = landmark.PointCloud.from_csv(
        "label," + ",".join(axes) + "\n"
        + "".join(f"{lab}," + ",".join([str(i)] * 8) + "\n" for i, lab in enumerate(labels))
    )
    with pytest.raises(ValueError, match="more than 8 labels"):
        landmark.scan(cloud)


def test_decide_partial_cloud_subsets():
    assert decide(subset_15910()).status is Status.FIXED
    assert decide(subset_2589()).status is Status.FIXED
    verdict = decide(subset_13710())
    assert verdict.status is Status.NON_FIXED
    assert replay_certificate(subset_13710(), verdict)


def test_decide_partial_quartet_verdicts():
    p1, p2, p3, p4 = partial_n3_quartet()
    assert decide(p1).status is Status.FIXED
    assert decide(p2).status is Status.NON_FIXED
    assert decide(p3).status is Status.NON_FIXED
    assert decide(p4).status is Status.NON_FIXED


def test_partial_fixed_reports_common_sign_of_extensions():
    # x: A<B<C has 2 filters, y: B<A, B<C has 3 ({A}, {C}, {A, C}); both
    # linear extensions are fixed +, and so is every filter tuple
    from simplexfix import configuration_extensions

    p1 = partial_n3_quartet()[0]
    assert {decide(ext).sign for ext in configuration_extensions(p1)} == {ConfigSign.PLUS}
    verdict = decide(p1)
    assert verdict.status is Status.FIXED
    assert verdict.sign is ConfigSign.PLUS
    assert verdict.certificate == {"type": "ray_all", "tuples": 6, "sign": "+"}
    assert replay_certificate(p1, verdict)


def test_partial_with_non_fixed_first_extension_certifies_it():
    # x and y both A<B with C free: the first extension puts C last on
    # both axes, two equal orders
    cfg = Configuration.from_pairs(
        LABELS3, AXES2, {"x": [("A", "B")], "y": [("A", "B")]}
    )
    verdict = decide(cfg)
    assert verdict.status is Status.NON_FIXED
    assert verdict.certificate == {
        "type": "extension",
        "orders": {"x": ["A", "B", "C"], "y": ["A", "B", "C"]},
        "inner": {"type": "extreme_lemma", "steps": [], "base": {"type": "dim2_non_fixed", "relation": "equal"}},
    }
    assert replay_certificate(cfg, verdict)


def test_decide_transports_signs_through_equivalence():
    from simplexfix import apply, sign_parity
    from test_equivalence import random_group_element

    rng = random.Random(13)
    for cfg in fixed_n4_configs():
        base = decide(cfg)
        for _ in range(10):
            g = random_group_element(rng, 4)
            moved = decide(apply(g, cfg))
            assert moved.status is Status.FIXED
            assert moved.sign.value == sign_parity(g).value * base.sign.value
            assert replay_certificate(apply(g, cfg), moved)


def test_crosscheck_agreement_sample():
    rng = random.Random(14)
    perms = list(permutations(N4_LABELS))
    for _ in range(200):
        cfg = Configuration.from_sequences(
            N4_LABELS, XYZ, [rng.choice(perms) for _ in range(3)]
        )
        assert decide_dim3(cfg).status is decide(cfg, debug_crosscheck=True).status


def test_the_n4_check_runs_each_characterization_once(monkeypatch):
    from simplexfix import engine

    reps = enumerate_classes(4)
    engine.clear_memo()
    for rep in reps:
        decide(rep)  # warm memo: only the check searches below
    calls = Counter()
    for name in ("_dim3_fixed_search", "_lemma_verdict", "_expansion_verdict"):
        def counted(lin, _name=name, _inner=getattr(engine, name)):
            calls[_name] += 1
            return _inner(lin)

        monkeypatch.setattr(engine, name, counted)
    for rep in reps:
        decide(rep, debug_crosscheck=True)
    assert calls == {"_dim3_fixed_search": 21, "_lemma_verdict": 21, "_expansion_verdict": 21}
    fixed = [rep for rep in reps if decide(rep).status is Status.FIXED]
    assert len(fixed) == 4
    for rep in fixed:
        pivot = list(engine._dim3_fixed_search(engine._Lin.of(rep)))
        assert decide_dim3(rep).certificate["pivot"] == pivot
    # a direct search that misses the fixed shape is a split, not a verdict
    monkeypatch.setattr(engine, "_dim3_fixed_search", lambda lin: None)
    for rep in fixed:
        with pytest.raises(CrossCheckError):
            decide_dim3(rep)


def test_four_labels_need_neither_the_direct_search_nor_the_ray_pass(monkeypatch):
    # at n = 4 the extreme-element lemma and the cofactor expansion decide
    # every class, so the direct characterization stays an independent check
    from simplexfix import engine

    def unreachable(*args):
        raise AssertionError("plain decide left the lemma and the expansion at n = 4")

    engine.clear_memo()
    monkeypatch.setattr(engine, "_dim3_fixed_search", unreachable)
    monkeypatch.setattr(engine, "_ray_verdict", unreachable)
    statuses = Counter()
    for rep in enumerate_classes(4):
        verdict = decide(rep)
        assert replay_certificate(rep, verdict)
        statuses[verdict.status] += 1
    assert statuses == {Status.FIXED: 4, Status.NON_FIXED: 17}


FIXED5 =Configuration.from_sequences(
    ("A", "B", "C", "D", "E"),
    ("x", "y", "z", "w"),
    (
        ("A", "D", "C", "B", "E"),
        ("D", "C", "B", "A", "E"),
        ("E", "D", "A", "B", "C"),
        ("B", "A", "D", "C", "E"),
    ),
)

FRONTIER5 = Configuration.from_sequences(
    ("A", "B", "C", "D", "E"),
    ("x", "y", "z", "w"),
    (
        ("B", "E", "D", "C", "A"),
        ("E", "A", "D", "B", "C"),
        ("D", "A", "B", "E", "C"),
        ("D", "C", "E", "A", "B"),
    ),
)


def test_dim5_fixed_by_expansion():
    verdict = decide(FIXED5)
    assert verdict.status is Status.FIXED
    assert verdict.sign is ConfigSign.PLUS
    assert sample_signs(FIXED5, 5, 600) == {"pos": 600, "neg": 0, "zero": 0}
    assert replay_certificate(FIXED5, verdict)


def test_engine_builds_orderings_only_for_certificate_payloads(monkeypatch):
    from simplexfix import engine, orders

    partial = subset_13710()
    built = []
    original = orders.Ordering.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(orders.Ordering, "__post_init__", counted)
    engine.clear_memo()
    # an equivalent certificate's representative is checked as sequences
    # and an extension certificate's orders by positions, so neither
    # FIXED5's replay, children included, nor the partial one builds any
    for cfg in (FIXED5, partial):
        verdict = decide(cfg)
        assert replay_certificate(cfg, verdict)
        assert built == []
    build_witness(partial)
    assert built == []


REPRESENTATIVE_EDITS = {
    "repeated label": lambda r: r["sequences"][0].__setitem__(1, r["sequences"][0][0]),
    "missing label": lambda r: r["sequences"][0].pop(),
    "extra repeated label": lambda r: r["sequences"][0].append(r["sequences"][0][0]),
    "repeated name": lambda r: r["labels"].__setitem__(1, r["labels"][0]),
    "missing axis": lambda r: r["axes"].pop(),
    "repeated axis": lambda r: r["axes"].__setitem__(1, r["axes"][0]),
    "missing sequence": lambda r: r["sequences"].pop(),
}


@pytest.mark.parametrize("edit", sorted(REPRESENTATIVE_EDITS))
def test_replay_refuses_malformed_representatives(edit):
    # each edit raises ValueError, as rebuilding the representative's
    # orderings did; the untouched certificate replays
    verdict = decide(FIXED5)
    assert verdict.certificate["type"] == "equivalent"
    assert replay_certificate(FIXED5, verdict)
    with pytest.raises(ValueError):
        replay_certificate(
            FIXED5,
            tampered(verdict, lambda c: REPRESENTATIVE_EDITS[edit](c["representative"])),
        )


def _as_bools(perm):
    return [v if v > 1 else bool(v) for v in perm]


GROUP_ELEMENT_EDITS = {
    "truthy words for reversal bits": lambda c: c.update(
        reversals=["yes" if r else 0 for r in c["reversals"]]
    ),
    "ints for reversal bits": lambda c: c.update(reversals=[int(r) for r in c["reversals"]]),
    "missing reversal bit": lambda c: c["reversals"].pop(),
    "floats in label_perm": lambda c: c.update(label_perm=[float(v) for v in c["label_perm"]]),
    "bools in label_perm": lambda c: c.update(label_perm=_as_bools(c["label_perm"])),
    "repeated label_perm entry": lambda c: c["label_perm"].__setitem__(0, c["label_perm"][1]),
    "label_perm for another size": lambda c: c["label_perm"].append(len(c["label_perm"])),
    "floats in axis_source": lambda c: c.update(axis_source=[float(v) for v in c["axis_source"]]),
    "bools in axis_source": lambda c: c.update(axis_source=_as_bools(c["axis_source"])),
}


@pytest.mark.parametrize("edit", sorted(GROUP_ELEMENT_EDITS))
def test_replay_refuses_malformed_group_elements(edit):
    # bits were once read with bool(), so "yes" and 0 replayed as True and
    # False, and float permutation entries raised TypeError
    verdict = decide(FIXED5)
    assert verdict.certificate["type"] == "equivalent"
    bad = tampered(verdict, GROUP_ELEMENT_EDITS[edit])
    with pytest.raises(ValueError, match="certificate invalid"):
        replay_certificate(FIXED5, bad)
    with pytest.raises(ValueError, match="certificate invalid"):
        build_witness(FIXED5, bad)


def test_memo_is_bounded_and_eviction_keeps_verdicts(monkeypatch):
    from functools import lru_cache

    from simplexfix import engine

    labels = ("A", "B", "C", "D", "E")
    axes = ("x", "y", "z", "w")
    rng = random.Random("memo-bound")
    cfgs = [
        Configuration.from_sequences(labels, axes, [tuple(rng.sample(labels, 5)) for _ in axes])
        for _ in range(40)
    ]
    assert engine._decide_class.cache_info().maxsize == engine._MEMO_SIZE == 1 << 14
    engine.clear_memo()
    reference = [decide(cfg).to_json() for cfg in cfgs]
    assert engine._decide_class.cache_info().currsize > 8
    capped = lru_cache(maxsize=8)(engine._decide_class.__wrapped__)
    monkeypatch.setattr(engine, "_decide_class", capped)
    for _ in range(2):  # the second pass decides many evicted classes again
        for cfg, want in zip(cfgs, reference):
            assert decide(cfg).to_json() == want
            assert capped.cache_info().currsize <= 8
    engine.clear_memo()


def test_the_class_memo_adds_no_object_the_collector_tracks():
    # each class is kept as an int sign and marshalled bytes, so a warm
    # memo lengthens no full collection
    import gc

    from simplexfix import engine

    labels = ("A", "B", "C", "D", "E")
    axes = ("x", "y", "z", "w")
    rng = random.Random("memo-untracked")
    cfgs = [
        Configuration.from_sequences(labels, axes, [tuple(rng.sample(labels, 5)) for _ in axes])
        for _ in range(300)
    ]
    engine.clear_memo()
    gc.collect()
    gc.collect()
    before = len(gc.get_objects())
    for cfg in cfgs:
        decide(cfg)
    gc.collect()
    gc.collect()
    assert engine._decide_class.cache_info().currsize > 200
    assert len(gc.get_objects()) - before <= 50
    engine.clear_memo()


def test_only_the_winning_pivot_builds_child_certificates(monkeypatch):
    # the pivot search reads each child's sign from the memo; only the
    # children of the pivot that wins, (E, A) here, are decided with
    # certificates
    from simplexfix import engine

    first = formally_fixed_by_expansion(FIXED5)
    assert first.certificate["pivot"] == ["E", "A"]
    calls = []
    inner = engine._decide_lin

    def counted(lin):
        calls.append(lin)
        return inner(lin)

    monkeypatch.setattr(engine, "_decide_lin", counted)
    assert formally_fixed_by_expansion(FIXED5) == first
    assert len(calls) == 4


ROTATED5 = Configuration.from_sequences(
    ("A", "B", "C", "D", "E"),
    ("x", "y", "z", "w"),
    (tuple("ABCDE"), tuple("BCDEA"), tuple("CDEAB"), tuple("EDCBA")),
)

# ROTATED5 with A unordered on x: its first extension is ROTATED5 itself
FLOATING5 = Configuration.from_pairs(
    ROTATED5.labels,
    ROTATED5.axes,
    {
        "x": [("B", "C"), ("C", "D"), ("D", "E")],
        "y": [("B", "C"), ("C", "D"), ("D", "E"), ("E", "A")],
        "z": [("C", "D"), ("D", "E"), ("E", "A"), ("A", "B")],
        "w": [("E", "D"), ("D", "C"), ("C", "B"), ("B", "A")],
    },
)


def _wreck(node):
    """Empty every dict and list of a certificate, innermost first."""
    for child in list(node.values() if isinstance(node, dict) else node):
        if isinstance(child, (dict, list)):
            _wreck(child)
    node.clear()


@pytest.mark.parametrize(
    "cfg, run, kind",
    [
        (FIXED5, decide, "equivalent"),
        (ROTATED5, decide, "equivalent"),
        (FLOATING5, decide, "extension"),
        (FIXED5, formally_fixed_by_expansion, "expansion"),
    ],
    ids=["fixed", "non_fixed", "partial", "expansion"],
)
def test_editing_a_returned_certificate_changes_no_later_verdict(cfg, run, kind):
    # the memo stores each class's certificate marshalled, and every
    # verdict handed out unmarshals its own, so emptying one leaves the
    # memo intact
    from simplexfix import engine

    engine.clear_memo()
    first = run(cfg)
    assert first.certificate["type"] == kind
    untouched = copy.deepcopy(first)
    _wreck(first.certificate)
    assert run(cfg) == untouched
    moved = apply(GroupElement((1, 0, 2, 3), (4, 0, 1, 2, 3), (True, False, False, False)), cfg)
    assert replay_certificate(moved, decide(moved))


def test_dim5_frontier_is_decided_by_the_ray_criterion():
    # neither the lemma nor the expansion certifies FRONTIER5; every ray
    # determinant is <= 0
    assert non_fixed_by_extreme_lemma(FRONTIER5).status is Status.UNKNOWN
    assert formally_fixed_by_expansion(FRONTIER5).status is Status.UNKNOWN
    verdict = decide(FRONTIER5)
    assert verdict.status is Status.FIXED
    assert verdict.sign is ConfigSign.MINUS
    assert verdict.certificate["type"] == "equivalent"
    assert verdict.certificate["inner"]["type"] == "ray_all"
    assert replay_certificate(FRONTIER5, verdict)
    assert sample_signs(FRONTIER5, 5, 4000) == {"pos": 0, "neg": 4000, "zero": 0}


def test_partial_with_ray_decided_extension_is_fixed():
    # two extensions: one fixed by expansion, one only by the ray criterion
    labels = ("A", "B", "C", "D", "E")
    axes = ("x", "y", "z", "w")
    cfg = Configuration.from_pairs(
        labels,
        axes,
        {
            "x": [("B", "E"), ("E", "D"), ("E", "C"), ("D", "A"), ("C", "A")],
            "y": [("E", "A"), ("A", "D"), ("D", "B"), ("B", "C")],
            "z": [("D", "A"), ("A", "B"), ("B", "E"), ("E", "C")],
            "w": [("D", "C"), ("C", "E"), ("E", "A"), ("A", "B")],
        },
    )
    from simplexfix import configuration_extensions, extension_count

    assert extension_count(cfg) == 2
    inner = [decide(ext).certificate["inner"]["type"] for ext in configuration_extensions(cfg)]
    assert sorted(inner) == ["expansion", "ray_all"]
    # the first extension is fixed, so the filter pass decides: y, z and w
    # are chains (4 filters each), x has 5
    verdict = decide(cfg)
    assert verdict.status is Status.FIXED
    assert verdict.certificate == {"type": "ray_all", "tuples": 5 * 4**3, "sign": "-"}
    assert replay_certificate(cfg, verdict)


def test_dim5_non_fixed_via_lemma_chain():
    cfg = Configuration.from_sequences(
        ("A", "B", "C", "D", "E"),
        ("x", "y", "z", "w"),
        (("A", "B", "C", "D", "E"),) * 4,
    )
    verdict = decide(cfg, frontier_samples=0)
    assert verdict.status is Status.NON_FIXED
    pair = build_witness(cfg)
    assert verify_witness(pair, cfg)


def test_dim5_random_soundness_soak():
    # every verdict above the exact range stays backed by evidence: fixed
    # verdicts survive sampling, non-fixed verdicts yield exact witnesses
    rng = random.Random(31)
    labels = ("A", "B", "C", "D", "E")
    axes = ("x", "y", "z", "w")
    perms = list(permutations(labels))
    for _ in range(40):
        cfg = Configuration.from_sequences(
            labels, axes, [rng.choice(perms) for _ in range(4)]
        )
        verdict = decide(cfg, frontier_samples=0)
        if verdict.status is Status.FIXED:
            histogram = sample_signs(cfg, 17, 400)
            bucket = "pos" if verdict.sign is ConfigSign.PLUS else "neg"
            assert histogram[bucket] == 400
            assert replay_certificate(cfg, verdict)
        else:
            assert verdict.status is Status.NON_FIXED
            assert verify_witness(build_witness(cfg, verdict), cfg)


def test_sample_signs_refuses_more_than_max_samples():
    from simplexfix.engine import MAX_SAMPLES

    assert MAX_SAMPLES == 1_000_000
    cfg = linear3(("A", "B", "C"), ("B", "C", "A"))
    with pytest.raises(ValueError, match="more than 1,000,000 samples"):
        sample_signs(cfg, 0, MAX_SAMPLES + 1)
    with pytest.raises(ValueError, match="at least 1"):
        sample_signs(cfg, 0, 0)


def test_sample_signs_determinism_and_threads():
    cfg = subset_2589()
    one = sample_signs(cfg, 123, 1000, threads=1)
    four = sample_signs(cfg, 123, 1000, threads=4)
    assert one == four
    assert sum(one.values()) == 1000
    assert sample_signs(cfg, 124, 1000) != one or True  # different seed may differ


def test_partial_sampling_draws_are_pinned():
    # each axis's random extension draws one label at a time from those
    # free to come next; these counts pin the sequence of draws
    assert sample_signs(subset_13710(), 7, 1000) == {"pos": 190, "neg": 810, "zero": 0}


def test_sampling_both_signs_on_non_fixed():
    equal = linear3("ABC", "ABC")
    histogram = sample_signs(equal, 7, 500)
    assert histogram["pos"] > 0 and histogram["neg"] > 0
    assert histogram["zero"] == 0  # the degenerate locus has measure zero


def _pairwise_nonconformal(o1, o2, o3):
    def conf(a, b):
        return a == b or a == tuple(reversed(b))

    return not (conf(o1, o2) or conf(o1, o3) or conf(o2, o3))


def _cyclic_pattern_reachable(o1, o2, o3):
    """Brute force: some axis roles + reversals + relabeling produce the
    exact cyclic shape (B,C,A), (C,A,B), (A,B,C)."""
    orders = (o1, o2, o3)
    for rho in permutations(range(3)):
        for mask in range(8):
            picked = [
                tuple(reversed(orders[rho[i]])) if mask >> i & 1 else orders[rho[i]]
                for i in range(3)
            ]
            oz = picked[2]
            if picked[0] == (oz[1], oz[2], oz[0]) and picked[1] == (oz[2], oz[0], oz[1]):
                return True
    return False


def test_triple_fixity_pattern_characterization():
    # exhaustive over every triple of linear orders on three labels
    perms = list(permutations(("A", "B", "C")))
    for o1, o2, o3 in product(perms, repeat=3):
        assert _pairwise_nonconformal(o1, o2, o3) == _cyclic_pattern_reachable(o1, o2, o3)


def test_triple_fixity_bridges_to_induced_verdicts():
    # on random 4-label configurations: all three induced configurations on
    # a triple are fixed exactly when the restrictions avoid conformality
    rng = random.Random(15)
    perms4 = list(permutations(N4_LABELS))
    for _ in range(60):
        cfg = Configuration.from_sequences(
            N4_LABELS, XYZ, [rng.choice(perms4) for _ in range(3)]
        )
        for drop in N4_LABELS:
            triple = tuple(l for l in N4_LABELS if l != drop)
            restricted = [
                tuple(l for l in o.sequence() if l != drop) for o in cfg.orders
            ]
            statuses = []
            for skip in range(3):
                axes = tuple(a for i, a in enumerate(XYZ) if i != skip)
                seqs = tuple(s for i, s in enumerate(restricted) if i != skip)
                sub = Configuration.from_sequences(triple, axes, seqs)
                statuses.append(decide_dim2(sub).status)
            all_fixed = all(s is Status.FIXED for s in statuses)
            assert all_fixed == _pairwise_nonconformal(*restricted)
            assert all_fixed == _cyclic_pattern_reachable(*restricted)


SEVEN_LABEL_DECIDE = textwrap.dedent(
    """
    import random
    from simplexfix import Configuration, decide, replay_certificate

    rng = random.Random(7)
    labels = tuple("ABCDEFG")
    axes = tuple(f"a{i}" for i in range(6))
    cfg = Configuration.from_sequences(labels, axes, [rng.sample(labels, 7) for _ in axes])
    verdict = decide(cfg)
    assert replay_certificate(cfg, verdict), "certificate does not replay"
    print(verdict.status.value)
    """
)


def test_seven_label_decide_is_fast_in_a_fresh_process():
    # Canonicalization builds no permutation table, so a cold n=7 decide
    # (all its n=6 and n=5 children decided from an empty memo) takes
    # about half a second; 10 s leaves room for a slow host.
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SEVEN_LABEL_DECIDE],
        capture_output=True, text=True, env=env, timeout=120,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() in {"fixed", "non_fixed", "unknown"}
    assert elapsed < 10.0, f"cold n=7 decide took {elapsed:.2f}s (budget 10s)"
