"""grids layer probe: per-call S^2 transform and table-build time at one band.

    python3 perfbench/probe.py OUT_JSON N SEED

Runs in a fresh process so the Legendre tables start cold and peak RSS
belongs to this band alone.  The first inverse_sht builds the tables;
table-build time is that call minus the median warm inverse_sht.
"""

import json
import resource
import statistics
import sys
from time import perf_counter

import numpy as np
from sphere_strichartz.grids import build_sphere_grid, forward_sht, inverse_sht
from sphere_strichartz.spectral import random_field

REPEATS = {128: 5, 256: 3, 512: 1}


def main() -> None:
    out, N, seed = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    grid = build_sphere_grid(N)
    f = random_field(N, 2, np.random.default_rng([seed, N]))
    t0 = perf_counter()
    vals = inverse_sht(f, grid)
    cold = perf_counter() - t0
    inv, fwd = [], []
    for _ in range(REPEATS.get(N, 1)):
        t0 = perf_counter()
        vals = inverse_sht(f, grid)
        t1 = perf_counter()
        back = forward_sht(vals, grid, N)
        inv.append(t1 - t0)
        fwd.append(perf_counter() - t1)
    warm_inv = statistics.median(inv)
    result = {
        "N": N,
        "grid": list(grid.shape),
        "inverse_sht_s": warm_inv,
        "forward_sht_s": statistics.median(fwd),
        "table_build_s": cold - warm_inv,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "round_trip_error": float(np.max(np.abs(back.a - f.a))),
    }
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
