"""Layer timings of the character oracle: the class table and one cold
character row, for n = 14, 16, ..., 24.

    PYTHONPATH=src python scripts/bench_characters.py [--out BENCH_characters.json]

For each n it records the median over REPS repetitions of

* ``classes_cold_ms``: ``_classes(n)`` right after ``clear_cache()``;
* ``char_row_cold_ms``: ``_char_row(lam, n)`` for the fixed general shape
  ``lam`` of SHAPES, right after ``clear_cache()`` and an untimed
  ``_classes(n)``, so the class table is not part of this time;

and the number of ``_strip_cache`` entries that one cold row leaves behind.
Only ``clear_cache``, ``_classes``, ``_char_row`` and ``_strip_cache`` are
used, so the script runs unchanged against earlier versions of the package.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import time

from kroncoef import characters

REPS = 5
SHAPES = {
    14: (5, 4, 3, 2),
    16: (6, 4, 3, 2, 1),
    18: (6, 5, 4, 3),
    20: (6, 5, 4, 3, 2),
    22: (7, 6, 4, 3, 2),
    24: (7, 6, 5, 4, 2),
}


def cold_classes_ms(n: int) -> float:
    times = []
    for _ in range(REPS):
        characters.clear_cache()
        start = time.perf_counter()
        characters._classes(n)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def cold_char_row_ms(lam: tuple[int, ...], n: int) -> tuple[float, int]:
    times = []
    for _ in range(REPS):
        characters.clear_cache()
        characters._classes(n)
        start = time.perf_counter()
        characters._char_row(lam, n)
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3, len(characters._strip_cache)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="BENCH_characters.json")
    args = parser.parse_args()
    rows = []
    for n, lam in SHAPES.items():
        row_ms, entries = cold_char_row_ms(lam, n)
        rows.append({"n": n, "lambda": list(lam), "classes_cold_ms": round(cold_classes_ms(n), 3),
                     "char_row_cold_ms": round(row_ms, 3), "strip_cache_entries": entries})
        print(json.dumps(rows[-1]))
    report = {"topic": "characters", "cache": "cold: clear_cache() before every repetition",
              "statistic": "median", "repetitions": REPS,
              "python": platform.python_version(), "cpu_count": os.cpu_count(), "rows": rows}
    with open(args.out, "w") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")


if __name__ == "__main__":
    main()
