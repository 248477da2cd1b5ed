#!/usr/bin/env python3
"""Seeded experiment: implicitize random parametrizations and tabulate.

Draws random bidegree-(m,n) quadruples, runs the condition battery and the
pipeline on those that qualify, and reports degrees, term counts, timings and
verification outcomes.  Useful for eyeballing scaling behaviour.

    python scripts/random_surfaces.py --bidegree 2 2 --count 5 --seed 0
"""

import argparse
import pathlib
import random
import sys
import time
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from movsurf import (BihomPoly, Parametrization, PipelineConfig,
                     ConditionError, VerificationError, monomial_basis,
                     pipeline)
from movsurf.cli import DET_BACKENDS


def random_poly(rng, bidegree, bound=5):
    terms = {}
    for mono in monomial_basis(bidegree):
        c = rng.randint(-bound, bound)
        if c and rng.random() < 0.85:
            terms[mono] = Fraction(c)
    if not terms:
        terms[monomial_basis(bidegree)[0]] = Fraction(1)
    return BihomPoly(bidegree, terms)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--bidegree", nargs=2, type=int, default=(2, 2),
                    metavar=("M", "N"))
    ap.add_argument("--count", type=int, default=5)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=100)
    ap.add_argument("--backend", default="auto", choices=DET_BACKENDS)
    args = ap.parse_args()
    m, n = args.bidegree

    rng = random.Random(args.seed)
    config = PipelineConfig(det_backend=args.backend, samples=args.samples)
    print("%4s %6s %4s %7s %7s %9s" % (
        "idx", "k", "deg", "terms", "verify", "secs"))
    done = 0
    attempt = 0
    while done < args.count and attempt < 50 * args.count:
        attempt += 1
        phi = Parametrization(m, n, tuple(random_poly(rng, (m, n))
                                          for _ in range(4)))
        t0 = time.perf_counter()
        try:
            result = pipeline(phi, config)
        except (ConditionError, VerificationError) as exc:
            print("%4d  skipped: %s" % (attempt, str(exc)[:60]))
            continue
        elapsed = time.perf_counter() - t0
        done += 1
        print("%4d %6d %4d %7d %7s %9.2f" % (
            attempt, result.k, result.degree, len(result.polynomial.terms),
            "ok" if result.verification.ok else "FAIL", elapsed))
    print("completed %d instances" % done)


if __name__ == "__main__":
    main()
