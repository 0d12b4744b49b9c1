"""A seeded tie-heavy point cloud and the scan output built subset by
subset, the reference the streamed, pattern-cached scan must match.

Plain module (no pytest), so a child process can import it and measure
the memory of holding every result.
"""

import json
import random
from itertools import combinations

from simplexfix import decide, derive_configuration
from simplexfix.landmark import jitter


def grid_cloud_csv(seed: int, points: int, grid: int) -> str:
    """A seeded 3D cloud on a ``grid``-value integer grid, so most
    4-subsets have ties; labels have unequal lengths in no length order."""
    rng = random.Random(f"grid-cloud:{seed}")
    columns = []
    for _ in range(3):
        values = [i % grid for i in range(points)]
        rng.shuffle(values)
        columns.append(values)
    rows = ["label,x,y,z"]
    for i, coords in enumerate(zip(*columns)):
        label = "p" + "q" * rng.randrange(4) + str(i)
        rows.append(label + "," + ",".join(map(str, coords)))
    return "\n".join(rows) + "\n"


def reference_scan_output(cloud, fmt: str, jitter_seed=None) -> str:
    """What ``simplexfix scan`` prints, built subset by subset from
    ``decide(derive_configuration(...))`` with every result held."""
    source = jitter(cloud, jitter_seed) if jitter_seed is not None else cloud
    results = []
    for subset in combinations(source.labels, source.dimension + 1):
        cfg = derive_configuration(source, subset)
        results.append((subset, cfg, decide(cfg)))
    counts = {"fixed": 0, "non_fixed": 0, "unknown": 0}
    for _, _, verdict in results:
        counts[verdict.status.value] += 1
    if fmt == "json":
        lines = []
        for subset, _, verdict in results:
            obj = {"subset": list(subset), "status": verdict.status.value}
            if verdict.sign is not None:
                obj["sign"] = str(verdict.sign)
            lines.append(json.dumps(obj, sort_keys=True))
        summary = {"subsets": len(results), **counts}
        if jitter_seed is not None:
            summary.update(jitter=jitter_seed, exact=False)
        lines.append(json.dumps({"summary": summary}, sort_keys=True))
    else:
        width = max(len(" ".join(subset)) for subset, _, _ in results)
        lines = [f"{'subset'.ljust(width)}  status     sign"]
        for subset, _, verdict in results:
            sign = str(verdict.sign) if verdict.sign is not None else "-"
            lines.append(f"{' '.join(subset).ljust(width)}  {verdict.status.value.ljust(9)}  {sign}")
        lines.append(
            f"total {len(results)}: {counts['fixed']} fixed, "
            f"{counts['non_fixed']} non-fixed, {counts['unknown']} unknown"
        )
        if jitter_seed is not None:
            lines.append(f"jitter seed {jitter_seed}: ties perturbed, results not exact")
    return "\n".join(lines) + "\n"
