#!/usr/bin/env python3
"""Portrait of one mixture: eigenvalue trajectories, singular times, CP steps.

Builds a mixture map for the requested weights, prints lambda_i(t) on a
coarse grid, the analytic and numeric singular times per index, and the
stepwise CP verdicts of the intermediate propagators.

    python scripts/singularity_portrait.py --d 3 --n 1.15 --weights 0.05,0.4,0.3,0.25
"""

import argparse

import numpy as np

from paulimix.dynmaps import Exponential, mixture_map
from paulimix.errors import SingularAtGridPointError
from paulimix.invertibility import (
    analytic_singularity_report,
    cp_divisibility_check,
    numeric_singularity_scan,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=3)
    parser.add_argument("--n", type=float, default=1.15)
    parser.add_argument("--c", type=float, default=1.0)
    parser.add_argument("--weights", type=str, default=None, help="d+1 comma-separated weights")
    parser.add_argument("--t-max", type=float, default=6.0)
    args = parser.parse_args()

    d = args.d
    if args.weights:
        weights = np.array([float(x) for x in args.weights.split(",")])
        weights = weights / weights.sum()
    else:
        weights = np.random.default_rng(0).dirichlet(np.ones(d + 1))
    m = mixture_map(d, weights, Exponential(n=args.n, c=args.c))

    print(f"d={d}, n={args.n}, c={args.c}, weights={np.round(weights, 4)}")
    ts = np.linspace(0.0, args.t_max, 13)
    header = "     t  " + "  ".join(f"lam_{i:<2d}" for i in range(d + 1))
    print(header)
    for t in ts:
        lam = m.eigenvalues(float(t))
        print(f"{t:6.2f}  " + "  ".join(f"{v:+.3f}" for v in lam))

    analytic = analytic_singularity_report(m)
    numeric = numeric_singularity_scan(m, t_max=m.pf.horizon(), grid_points=4001)
    print(f"\nclassification: {numeric.classification.value}")
    for i in range(d + 1):
        ta, tn = analytic.singular_times[i], numeric.singular_times[i]
        fmt = lambda v: "none" if v is None else f"{v:.9f}"
        print(f"  index {i}: x={weights[i]:.4f}  t*_analytic={fmt(ta)}  t*_numeric={fmt(tn)}")

    try:
        steps = cp_divisibility_check(m, np.linspace(0.0, args.t_max, 13))
        bad = [s for s in steps if not s.cp]
        print(f"\nCP-divisibility: {len(steps) - len(bad)}/{len(steps)} propagator steps CP")
        for s in bad:
            print(f"  non-CP on [{s.t_start:.3f}, {s.t_end:.3f}] (min Choi eig {s.choi_min_eigenvalue:.2e})")
    except SingularAtGridPointError as exc:
        print(f"\nCP-divisibility: skipped ({exc})")


if __name__ == "__main__":
    main()
