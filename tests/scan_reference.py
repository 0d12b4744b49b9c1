"""A seeded tie-heavy point cloud and the scan output built subset by
subset, the reference the streamed, pattern-cached scan must match.

Plain module (no pytest), so a child process can import it and measure
the memory of holding every result, or of streaming them.
"""

import json
import random
from itertools import combinations

from simplexfix import decide, derive_configuration
from simplexfix.equivalence import default_axes
from simplexfix.landmark import jitter


def grid_cloud_csv(seed: int, points: int, grid: int, dimension: int = 3) -> str:
    """A seeded cloud on a ``grid``-value integer grid, so most
    ``(d+1)``-subsets have ties; labels have unequal lengths in no length
    order.  Axes are named as ``default_axes`` names them (``x, y, z``
    in 3D)."""
    rng = random.Random(f"grid-cloud:{seed}")
    columns = []
    for _ in range(dimension):
        values = [i % grid for i in range(points)]
        rng.shuffle(values)
        columns.append(values)
    rows = [",".join(("label",) + default_axes(dimension))]
    for i, coords in enumerate(zip(*columns)):
        label = "p" + "q" * rng.randrange(4) + str(i)
        rows.append(label + "," + ",".join(map(str, coords)))
    return "\n".join(rows) + "\n"


def _decided(source):
    """``(subset, configuration, verdict)`` per subset, each from
    ``decide(derive_configuration(...))``."""
    for subset in combinations(source.labels, source.dimension + 1):
        cfg = derive_configuration(source, subset)
        yield subset, cfg, decide(cfg)


def _lines(results, fmt: str, width: int, jitter_seed):
    """The output lines of ``results``, rendered as each one arrives."""
    counts = {"fixed": 0, "non_fixed": 0, "unknown": 0}
    if fmt != "json":
        yield f"{'subset'.ljust(width)}  status     sign"
    for subset, _, verdict in results:
        counts[verdict.status.value] += 1
        if fmt == "json":
            obj = {"subset": list(subset), "status": verdict.status.value}
            if verdict.sign is not None:
                obj["sign"] = str(verdict.sign)
            yield json.dumps(obj, sort_keys=True)
        else:
            sign = str(verdict.sign) if verdict.sign is not None else "-"
            yield f"{' '.join(subset).ljust(width)}  {verdict.status.value.ljust(9)}  {sign}"
    total = sum(counts.values())
    if fmt == "json":
        summary = {"subsets": total, **counts}
        if jitter_seed is not None:
            summary.update(jitter=jitter_seed, exact=False)
        yield json.dumps({"summary": summary}, sort_keys=True)
    else:
        yield (
            f"total {total}: {counts['fixed']} fixed, "
            f"{counts['non_fixed']} non-fixed, {counts['unknown']} unknown"
        )
        if jitter_seed is not None:
            yield f"jitter seed {jitter_seed}: ties perturbed, results not exact"


def reference_scan_output(cloud, fmt: str, jitter_seed=None) -> str:
    """What ``simplexfix scan`` prints, built subset by subset from
    ``decide(derive_configuration(...))`` with every result held."""
    source = jitter(cloud, jitter_seed) if jitter_seed is not None else cloud
    results = list(_decided(source))
    width = max(len(" ".join(subset)) for subset, _, _ in results)
    return "".join(line + "\n" for line in _lines(results, fmt, width, jitter_seed))


def reference_scan_lines(cloud, fmt: str, jitter_seed=None):
    """The lines of :func:`reference_scan_output`, each decided and
    rendered as it is needed, so memory stays flat however many subsets
    the cloud has."""
    source = jitter(cloud, jitter_seed) if jitter_seed is not None else cloud
    width = max(len(" ".join(s)) for s in combinations(source.labels, source.dimension + 1))
    return _lines(_decided(source), fmt, width, jitter_seed)
