"""Point clouds, derived configurations, and the subset scan."""

import json
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from simplexfix import (
    InputFormatError,
    PointAssignment,
    PointCloud,
    Status,
    derive_configuration,
    det_sign,
    iter_scan,
    replay_certificate,
    satisfies,
    scan,
)
from simplexfix import criteria, engine, landmark
from simplexfix.cli import main
from simplexfix.equivalence import default_labels
from simplexfix.landmark import jitter
from simplexfix.orders import MAX_EXPONENT
from scan_reference import grid_cloud_csv, reference_scan_output


def small_cloud():
    return PointCloud.from_points(
        {
            "A": (0, 0, 0),
            "B": (1, 3, 2),
            "C": (2, 1, 5),
            "D": (4, 2, 1),
            "E": (3, 5, 4),
        }
    )


def test_derive_configuration_linear_when_distinct():
    cloud = small_cloud()
    cfg = derive_configuration(cloud, ("A", "B", "C", "D"))
    assert cfg.is_linear()
    assert cfg.orders[0].sequence() == ("A", "B", "C", "D")


def test_tie_leaves_pair_incomparable_on_that_axis_only():
    cloud = PointCloud.from_points(
        {"A": (0, 0), "B": (0, 1), "C": (1, 2)}, axes=("x", "y")
    )
    cfg = derive_configuration(cloud, ("A", "B", "C"))
    x_order = cfg.order_for("x")
    assert not x_order.comparable("A", "B")
    assert x_order.less("A", "C") and x_order.less("B", "C")
    assert cfg.order_for("y").is_linear()


def test_derive_configuration_validation():
    cloud = small_cloud()
    with pytest.raises(KeyError):
        derive_configuration(cloud, ("A", "B", "C", "Z"))
    with pytest.raises(ValueError):
        derive_configuration(cloud, ("A", "B", "C"))


@settings(deadline=None, max_examples=25)
@given(
    st.integers(min_value=1, max_value=9),
    st.integers(min_value=-20, max_value=20),
)
def test_derive_configuration_only_depends_on_order(scale, shift):
    cloud = small_cloud()
    transformed = PointCloud.from_points(
        {
            lab: tuple(
                (cloud.value(lab, a) * scale + shift) ** 3
                for a in cloud.axes
            )
            for lab in cloud.labels
        },
        axes=cloud.axes,
    )
    subset = ("A", "B", "C", "D")
    assert derive_configuration(cloud, subset) == derive_configuration(transformed, subset)


def test_satisfaction_of_derived_configuration():
    cloud = small_cloud()
    subset = ("B", "C", "D", "E")
    cfg = derive_configuration(cloud, subset)
    assignment = PointAssignment.from_points(
        {lab: tuple(cloud.value(lab, a) for a in cloud.axes) for lab in subset},
        cloud.axes,
    )
    assert satisfies(assignment, cfg)


def test_scan_counts_and_determinism():
    cloud = small_cloud()
    report = scan(cloud)
    assert len(report.results) == 5  # C(5, 4)
    assert sum(report.counts.values()) == 5
    assert [r.labels for r in report.results] == list(combinations(cloud.labels, 4))
    assert scan(cloud, threads=3).to_json_objects() == report.to_json_objects()
    # generic position in 3D never leaves the decider undecided
    assert report.counts["unknown"] == 0


def test_scan_single_subset_matches_decide():
    cloud = PointCloud.from_points(
        {"A": (0, 0, 0), "B": (1, 3, 2), "C": (2, 1, 5), "D": (4, 2, 1)}
    )
    report = scan(cloud)
    assert len(report.results) == 1
    from simplexfix import decide

    direct = decide(derive_configuration(cloud, cloud.labels))
    assert report.results[0].verdict.status is direct.status


def test_shipped_cloud_regression_subsets(cloud_csv_path):
    cloud = PointCloud.from_csv(cloud_csv_path.read_text())
    report = scan(cloud)
    assert len(report.results) == 210
    by_subset = {r.labels: r.verdict for r in report.results}
    assert by_subset[("1", "5", "9", "10")].status is Status.FIXED
    assert by_subset[("2", "5", "8", "9")].status is Status.FIXED
    assert by_subset[("1", "3", "7", "10")].status is Status.NON_FIXED
    assert sum(report.counts.values()) == 210


def test_shipped_cloud_reproduces_known_relations(cloud_csv_path):
    cloud = PointCloud.from_csv(cloud_csv_path.read_text())
    cfg = derive_configuration(cloud, ("1", "5", "9", "10"))
    x = cfg.order_for("x")
    assert x.less("9", "1") and x.less("1", "10") and x.less("9", "5") and x.less("5", "10")
    assert not x.comparable("1", "5")
    y = cfg.order_for("y")
    assert y.less("5", "9") and y.less("9", "1") and y.less("5", "10") and y.less("10", "1")
    assert not y.comparable("9", "10")
    z = cfg.order_for("z")
    for low in ("1", "5"):
        for high in ("9", "10"):
            assert z.less(low, high)
    assert not z.comparable("1", "5") and not z.comparable("9", "10")


def test_jitter_breaks_ties_deterministically(cloud_csv_path):
    cloud = PointCloud.from_csv(cloud_csv_path.read_text())
    wobbled = jitter(cloud, 42)
    assert jitter(cloud, 42).values == wobbled.values
    for axis in wobbled.axes:
        values = [wobbled.value(lab, axis) for lab in wobbled.labels]
        assert len(set(values)) == len(values)
    # prior strict relations survive
    for axis in cloud.axes:
        for a in cloud.labels:
            for b in cloud.labels:
                if cloud.value(a, axis) < cloud.value(b, axis):
                    assert wobbled.value(a, axis) < wobbled.value(b, axis)
    report = scan(cloud, jitter_seed=42)
    assert report.summary()["exact"] is False
    assert report.summary()["jitter"] == 42
    assert all(r.configuration.is_linear() for r in report.results)


def test_csv_parsing_and_errors():
    cloud = PointCloud.from_csv("# note\nlabel,x,y\nP,0.5,1\nQ,1/3,2\n")
    assert cloud.value("Q", "x") == Fraction(1, 3)
    assert cloud.value("P", "x") == Fraction(1, 2)

    with pytest.raises(InputFormatError) as err:
        PointCloud.from_csv("label,x,y\nP,0.5\n")
    assert err.value.line == 2

    with pytest.raises(InputFormatError) as err:
        PointCloud.from_csv("label,x,y\nP,zero,1\n")
    assert err.value.line == 2 and err.value.column == 2

    with pytest.raises(InputFormatError):
        PointCloud.from_csv("point,x,y\nP,0,1\n")

    with pytest.raises(InputFormatError):
        PointCloud.from_csv("label,x,y\nP,0,1\nP,2,3\n")

    with pytest.raises(InputFormatError):
        PointCloud.from_csv("")


def test_csv_exponent_beyond_the_limit_fails_fast():
    # Fraction("1e999999999") would build 10**999999999 for minutes
    assert PointCloud.from_csv(f"label,x\nP,1e-{MAX_EXPONENT}\nQ,2.5E+{MAX_EXPONENT}\n").value("Q", "x") == (
        Fraction(5, 2) * 10**MAX_EXPONENT
    )
    for cell in ("1e999999999", f"1E-{MAX_EXPONENT + 1}", "-0.5e1_000_000", "1e" + "9" * 5000):
        start = time.perf_counter()
        with pytest.raises(InputFormatError, match=f"exceeds {MAX_EXPONENT}") as err:
            PointCloud.from_csv(f"label,x,y\nP,0,1\nQ,1,{cell}\nR,2,2\n")
        assert time.perf_counter() - start < 0.1
        assert (err.value.line, err.value.column) == (3, 3)


def test_library_coordinates_share_the_exponent_limit():
    # the library path refuses what the CSV reader refuses, as fast
    for build in (
        lambda v: PointCloud.from_points({"A": (v, "0"), "B": ("1", "1"), "C": ("2", "0")}),
        lambda v: PointAssignment.from_points({"A": (v,), "B": ("1",)}, ("x",)),
    ):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"exceeds {MAX_EXPONENT}"):
            build("1e2000000")
        assert time.perf_counter() - start < 0.1
        with pytest.raises(ValueError, match="exact rational"):
            build("1/0")


def test_scan_needs_enough_points():
    tiny = PointCloud.from_points({"A": (0, 0, 0), "B": (1, 1, 1)})
    with pytest.raises(ValueError):
        scan(tiny)


def test_an_empty_cloud_with_default_axes_is_a_value_error():
    # with no point to count coordinates from, the axes cannot be inferred
    with pytest.raises(ValueError, match="at least one point"):
        PointCloud.from_points({})


@settings(deadline=None, max_examples=20)
@given(st.randoms(use_true_random=False))
def test_generic_position_clouds_always_decide(rng):
    # distinct per-axis values: every derived configuration is linear and
    # the 3D decider never reports unknown; each subset's own coordinates
    # satisfy its derived configuration
    coords = {}
    for axis_index in range(3):
        column = rng.sample(range(100), 6)
        for i, lab in enumerate("ABCDEF"):
            coords.setdefault(lab, [0, 0, 0])[axis_index] = column[i]
    cloud = PointCloud.from_points({lab: tuple(v) for lab, v in coords.items()})
    report = scan(cloud)
    assert len(report.results) == 15  # C(6, 4)
    assert report.counts["unknown"] == 0
    for result in report.results:
        assert result.configuration.is_linear()
        assignment = PointAssignment.from_points(
            {lab: tuple(cloud.value(lab, a) for a in cloud.axes) for lab in result.labels},
            cloud.axes,
        )
        assert satisfies(assignment, result.configuration)


@pytest.mark.parametrize(
    "shape, fixed_subsets",
    [(None, 18), ((3, 16, 8), 175), ((6, 30, 6), 1086), ((4, 20, 5, 2), 423), ((5, 14, 4, 4), 0)],
)
def test_fixed_scan_answers_carry_the_sign_of_their_own_coordinates(shape, fixed_subsets, cloud_csv_path):
    # a fixed answer is a claim about every realization, the cloud's own
    # coordinates included; shape None is the shipped cloud, the others
    # grid_cloud_csv's (seed, points, grid[, dimension]).  The 4D cloud has
    # no fixed subset: tests/test_class_growth.py scans fixed 4D ones
    text = cloud_csv_path.read_text() if shape is None else grid_cloud_csv(*shape)
    cloud = PointCloud.from_csv(text)
    fixed = 0
    for result in iter_scan(cloud):
        if result.status is Status.FIXED:
            own = PointAssignment(result.labels, cloud.axes, cloud.values)
            assert det_sign(own).value == result.sign.value, result.labels
            fixed += 1
    assert fixed == fixed_subsets


def scan_cli(capsys, path, *flags):
    assert main(["scan", str(path), *flags]) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("seed", [0, 1])
def test_scan_output_matches_per_subset_reference(seed, tmp_path, capsys):
    text = grid_cloud_csv(seed, points=9, grid=3)
    path = tmp_path / "grid.csv"
    path.write_text(text)
    cloud = PointCloud.from_csv(text)
    assert len({len(lab) for lab in cloud.labels}) > 1
    for jitter_seed in (None, 4):
        extra = () if jitter_seed is None else ("--jitter", str(jitter_seed))
        for fmt in ("json", "text"):
            want = reference_scan_output(cloud, fmt, jitter_seed)
            for threads in ("1", "3"):  # --threads has no effect on scan
                out = scan_cli(capsys, path, "--format", fmt, "--threads", threads, *extra)
                assert out == want


def _renamed_patterns(cloud) -> list:
    """Per subset, per axis, its derived ordering's pairs renamed to the
    labels ``A, B, ...`` in cloud label order."""
    names = default_labels(cloud.dimension + 1)
    out = []
    for subset in combinations(cloud.labels, cloud.dimension + 1):
        cfg = derive_configuration(cloud, subset)
        rename = dict(zip(cfg.labels, names))
        out.append(tuple(frozenset((rename[e], rename[f]) for e, f in o.pairs) for o in cfg.orders))
    return out


def test_scan_decides_each_distinct_pattern_once(monkeypatch):
    cloud = PointCloud.from_csv(grid_cloud_csv(2, points=10, grid=2))
    patterns = set(_renamed_patterns(cloud))
    decided, searched = [], []
    real_status, real_search = landmark._pattern_status, criteria._ray_status

    def counted_status(labels, axes, parts):
        decided.append(parts)
        return real_status(labels, axes, parts)

    def counted_search(n, steps):
        searched.append(steps)
        return real_search(n, steps)

    monkeypatch.setattr(landmark, "_pattern_status", counted_status)
    monkeypatch.setattr(criteria, "_ray_status", counted_search)
    report = scan(cloud)
    assert len(report.results) == 210
    assert len(decided) == len(patterns) < 210 / 2
    # the ray pass runs only where the first extensions have no chain of
    # extreme removals
    assert 0 < len(searched) < len(decided)


def test_scan_computes_first_extension_and_filters_once_per_weak_order(monkeypatch):
    cloud = PointCloud.from_csv(grid_cloud_csv(2, points=10, grid=3))
    listed = Counter()
    real = landmark._order_parts

    def counted(order):
        assert order.labels == default_labels(4)
        listed[order.pairs] += 1
        return real(order)

    monkeypatch.setattr(landmark, "_order_parts", counted)
    report = scan(cloud)
    assert len(report.results) == 210
    uses = [axis for pattern in _renamed_patterns(cloud) for axis in pattern]
    # once per weak order; the patterns share their weak orders, so far
    # fewer than uses
    assert set(listed) == set(uses) and max(listed.values()) == 1
    assert len(listed) < len(uses) / 4


def test_scan_decides_nothing_until_a_verdict_is_read(monkeypatch):
    cloud = PointCloud.from_csv(grid_cloud_csv(2, points=10, grid=3))
    decided = []
    real = engine.decide

    def counted(cfg):
        decided.append(cfg)
        return real(cfg)

    monkeypatch.setattr(engine, "decide", counted)
    monkeypatch.setattr(engine, "_decide_lin", lambda *args: pytest.fail("the scan decided a linear input"))
    assert len(list(landmark.json_lines(cloud))) == 211
    results = list(landmark.iter_scan(cloud))
    assert decided == []
    monkeypatch.undo()
    monkeypatch.setattr(engine, "decide", counted)
    verdict = results[7].verdict
    assert decided == [derive_configuration(cloud, results[7].labels)]
    assert (verdict.status, verdict.sign) == (results[7].status, results[7].sign)


def awkward_labels_csv() -> str:
    """A 3D cloud with ties whose labels need JSON escaping: a quoted one
    holding a comma and a double quote, a backslash, non-ASCII text."""
    rows = [
        ("plain", 0, 1, 2),
        ('"comma, and ""quote"""', 1, 1, 0),
        ("back\\slash", 2, 0, 2),
        ("\u00c5ngstr\u00f6m", 0, 2, 1),
        ("\u70b9", 3, 0, 0),
        ("tab\\t", 1, 2, 2),
    ]
    return "label,x,y,z\n" + "".join(",".join(map(str, row)) + "\n" for row in rows)


def test_json_lines_equal_json_dumps_of_the_objects(tmp_path, capsys):
    text = awkward_labels_csv()
    path = tmp_path / "awkward.csv"
    path.write_text(text, encoding="utf-8")
    cloud = PointCloud.from_csv(text)
    assert 'comma, and "quote"' in cloud.labels and "back\\slash" in cloud.labels
    for jitter_seed in (None, 7):
        extra = () if jitter_seed is None else ("--jitter", str(jitter_seed))
        out = scan_cli(capsys, path, "--format", "json", *extra)
        objects = landmark.json_objects(landmark.iter_scan(cloud, jitter_seed), jitter_seed)
        want = [json.dumps(obj, sort_keys=True) for obj in objects]
        assert out.splitlines() == want
        assert out == reference_scan_output(cloud, "json", jitter_seed)
        assert '\\"quote\\"' in out and "back\\\\slash" in out and "\\u00c5" in out
        assert json.loads(out.splitlines()[-1]) == {"summary": scan(cloud, jitter_seed=jitter_seed).summary()}


def with_tied_axis(text: str, axis: int) -> str:
    """The cloud of ``text`` with every point at 0 on axis number ``axis``."""
    header, *rows = text.splitlines()
    out = [header]
    for row in rows:
        cells = row.split(",")
        cells[axis + 1] = "0"
        out.append(",".join(cells))
    return "\n".join(out) + "\n"


@pytest.mark.parametrize("dimension", [1, 2, 3, 4])
def test_scan_matches_reference_in_every_dimension(dimension, tmp_path, capsys):
    grid = grid_cloud_csv(dimension, points=8, grid=3, dimension=dimension)
    clouds = {
        "grid": grid,
        "tied": with_tied_axis(grid, dimension - 1),
        "minimal": grid_cloud_csv(dimension, points=dimension + 1, grid=2, dimension=dimension),
    }
    for name, text in clouds.items():
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        cloud = PointCloud.from_csv(text)
        assert cloud.dimension == dimension
        for jitter_seed in (None, 5):
            extra = () if jitter_seed is None else ("--jitter", str(jitter_seed))
            for fmt in ("json", "text"):
                out = scan_cli(capsys, path, "--format", fmt, *extra)
                assert out == reference_scan_output(cloud, fmt, jitter_seed), (name, jitter_seed, fmt)


def test_larger_tied_4d_scan_matches_reference(tmp_path, capsys):
    # 1,996 of the 2,002 subsets have ties, and one tied subset is fixed
    text = grid_cloud_csv(2, points=14, grid=6, dimension=4)
    path = tmp_path / "grid4d.csv"
    path.write_text(text)
    cloud = PointCloud.from_csv(text)
    for jitter_seed in (None, 9):
        extra = () if jitter_seed is None else ("--jitter", str(jitter_seed))
        out = scan_cli(capsys, path, "--format", "json", *extra)
        assert out == reference_scan_output(cloud, "json", jitter_seed)
        summary = json.loads(out.splitlines()[-1])["summary"]
        assert summary["subsets"] == 2002 and summary["fixed"] and summary["non_fixed"]


def test_scan_results_derive_their_own_configuration_and_verdict(cloud_csv_path):
    cloud = PointCloud.from_csv(cloud_csv_path.read_text())
    for r in scan(cloud).results:
        cfg, verdict = r.configuration, r.verdict
        assert cfg == derive_configuration(cloud, r.labels)
        assert (verdict.status, verdict.sign) == (r.status, r.sign)
        assert replay_certificate(cfg, verdict)

