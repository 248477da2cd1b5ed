#!/usr/bin/env python3
"""Walk the bundled example jobs through the full pipeline.

Shows the two qualitatively different routes: a quartic parametrization with
one base point (k = 1, a moving plane enters the matrix) and the Segre
embedding (k = 0, quadrics only, projection fallback).
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from movsurf import Parametrization, check_all, parse, pipeline

JOBS = [
    ("one base point, bidegree (2,2)",
     2, 2, ["u^2*t*v + s^2*t*v", "u^2*t^2 + s*u*v^2",
            "s^2*v^2 + s^2*t^2", "s^2*t*v"]),
    ("Segre embedding, bidegree (1,1)",
     1, 1, ["s*t", "s*v", "u*t", "u*v"]),
    ("rank-4 quadric with two base points, bidegree (1,2)",
     1, 2, ["s*t^2", "s*t*v", "u*t*v", "u*v^2"]),
]


def main():
    for label, m, n, strings in JOBS:
        print("=" * 72)
        print(label)
        phi = Parametrization(m, n, tuple(parse(s, bidegree=(m, n))
                                          for s in strings))
        t0 = time.perf_counter()
        report = check_all(phi)
        for name in sorted(report.verdicts):
            verdict = report.verdicts[name]
            print("  %s: %s" % (name, "skipped" if verdict is None
                                else "pass" if verdict else "fail"))
        print("  k = %s, short path: %s" % (report.k, report.short_path))
        result = pipeline(phi, report=report)
        elapsed = time.perf_counter() - t0
        print("  |M| = %s" % result.polynomial.render())
        print("  degree %d = 2*%d - %d, %d terms, verified: %s  (%.2fs)"
              % (result.degree, phi.mn, result.k,
                 len(result.polynomial.terms), result.verification.ok, elapsed))
        if result.report.coordinate_change is not None:
            print("  coordinate change applied (seed %d)"
                  % result.report.coordinate_seed)


if __name__ == "__main__":
    main()
