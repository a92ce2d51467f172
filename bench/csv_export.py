"""Time the score CSV export against np.savetxt, and check the bytes.

    python3 bench/csv_export.py [--repeats 15] [--out PATH]

Writes LeNet-5 fc-1-shaped (500 x 801) and LeNet-300-100-shaped (300 x 785)
float64 score grids with ``metrics.export_importance_csv``, and the same
grids two other ways, in this one process: with ``np.savetxt(fmt="%.9g")``,
which the export used before, and with one ``%`` over each row's Python
floats (``row.tolist()``), the simplest byte-exact writer. It asserts the
three files are byte-identical, and writes the median seconds of each, with
``harness.host``'s record (BLAS pinned to one thread, as in the other bench
scripts), to the JSON file (by default ``bench/BENCH_csv_export.json``).
The grids look like the pipeline's: rows of scores summing to 1, every
seventh row dead (all zero), and ~14% of the columns zero, as LeNet-5 fc-1's
always-dead inputs are.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import harness  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from prune_relief import (ImportanceScores, cli,  # noqa: E402
                          export_importance_csv)

GRIDS = {"lenet5_fc1": (500, 801), "lenet300100_fc1": (300, 785)}


def score_grid(rows, cols, seed):
    rng = np.random.default_rng(seed)
    grid = rng.random((rows, cols)) ** 3
    grid[:, rng.random(cols) < 0.14] = 0
    grid[::7] = 0
    totals = grid.sum(axis=1)
    np.divide(grid, totals[:, None], out=grid, where=totals[:, None] > 0)
    return ImportanceScores(scores=grid, totals=totals)


def savetxt_csv(scores, path):
    m = scores.scores.shape[1] - 1
    header = ",".join([f"in_{i}" for i in range(m)] + ["bias"])
    np.savetxt(path, scores.scores, fmt="%.9g", delimiter=",",
               newline="\r\n", header=header, comments="")


def tolist_csv(scores, path, rows=16):
    grid = scores.scores
    m = grid.shape[1] - 1
    header = ",".join([f"in_{i}" for i in range(m)] + ["bias"])
    fmt = ",".join(["%.9g"] * grid.shape[1]) + "\r\n"
    with open(path, "wb") as fh:
        fh.write((header + "\r\n").encode())
        for r in range(0, grid.shape[0], rows):
            fh.write("".join([fmt % tuple(row) for row in
                              grid[r:r + rows].tolist()]).encode())


WRITERS = {"export_importance_csv": export_importance_csv,
           "savetxt": savetxt_csv, "tolist": tolist_csv}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeats", type=harness.count, default=15)
    p.add_argument("--out", default=str(ROOT / "bench" /
                                        "BENCH_csv_export.json"))
    args = p.parse_args(argv)
    cli._keep_freed_memory()

    result = {"host": harness.host(), "repeats": args.repeats, "grids": {}}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {k: Path(tmp) / f"{k}.csv" for k in WRITERS}
        t0 = time.perf_counter()
        export_importance_csv(score_grid(1, 2, 0), paths["savetxt"])
        result["first_call_s"] = time.perf_counter() - t0
        for seed, (name, (rows, cols)) in enumerate(GRIDS.items()):
            scores = score_grid(rows, cols, seed)
            times = {k: [] for k in WRITERS}
            for _ in range(args.repeats):
                for key, write in WRITERS.items():
                    t0 = time.perf_counter()
                    write(scores, paths[key])
                    times[key].append(time.perf_counter() - t0)
                new = paths["export_importance_csv"].read_bytes()
                for key in ("savetxt", "tolist"):
                    if paths[key].read_bytes() != new:
                        raise SystemExit(f"{name}: the export's bytes differ "
                                         f"from {key}'s")
            med = {k: statistics.median(v) for k, v in times.items()}
            result["grids"][name] = {
                "shape": [rows, cols], "values": rows * cols,
                "bytes": len(new), "bytes_identical": True,
                "median_s": med,
                "ns_per_value": {k: 1e9 * v / (rows * cols)
                                 for k, v in med.items()},
                "speedup": med["savetxt"] / med["export_importance_csv"],
                "speedup_vs_tolist": (med["tolist"]
                                      / med["export_importance_csv"])}
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    for name, g in result["grids"].items():
        med = g["median_s"]
        print(f"{name} {g['shape']}: export "
              f"{med['export_importance_csv']:.4f} s, savetxt "
              f"{med['savetxt']:.4f} s (x{g['speedup']:.2f}), tolist "
              f"{med['tolist']:.4f} s (x{g['speedup_vs_tolist']:.2f}), "
              f"bytes identical")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
