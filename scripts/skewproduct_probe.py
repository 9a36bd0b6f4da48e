#!/usr/bin/env python3
"""Monte Carlo repetition fractions for iterated skew-products across
dimension.

The d-dimensional skew-product T(w)_1 = w_1 + alpha, T(w)_i = w_1 + ... + w_i
pushes any almost-repeat of the first coordinate up through increasingly
rigid polynomial structure in the higher coordinates, so the measured
fraction of starts with a repetition time should fall off with d at fixed
epsilon and horizon.  The 2-D case coincides with the classical skew-shift at
doubled frequency.

Usage:
    python scripts/skewproduct_probe.py
    python scripts/skewproduct_probe.py --alpha liouville10 --dims 2,3,4 --eps 0.2
"""

import argparse
import sys

from gordonlab.cli import parse_alpha
from gordonlab.dynamics import SkewProduct
from gordonlab.repetition import estimate_prp_fraction


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alpha", default="liouville10")
    parser.add_argument("--dims", default="2,3,4,5")
    parser.add_argument("--eps", type=float, default=0.3)
    parser.add_argument("--r", type=float, default=1.0)
    parser.add_argument("--qmax", type=int, default=300)
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    alpha = parse_alpha(args.alpha)
    print(f"alpha={args.alpha}  eps={args.eps}  r={args.r}  q<={args.qmax}"
          f"  samples={args.samples}  seed={args.seed}")
    print(f"{'dim':>4} {'hits':>6} {'fraction':>10} {'wilson95':>24}")
    for text in args.dims.split(","):
        d = int(text)
        est = estimate_prp_fraction(
            SkewProduct(d, alpha), args.eps, args.r, args.qmax, args.samples,
            seed=args.seed,
        )
        lo, hi = est.wilson_ci
        print(f"{d:>4} {est.n_hits:>6} {est.fraction:>10.4f} "
              f"[{lo:>10.4g}, {hi:>10.4g}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
