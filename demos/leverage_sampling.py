"""Leverage scores concentrate on the columns that matter.

Builds a matrix whose row space is dominated by a few heavy features,
prints the leverage distribution, then samples r columns with replacement
and compares empirical selection frequency against the scores.
"""

import numpy as np

from marginsparse.leverage import leverage_scores, leverage_select
from marginsparse.linalg import spectral_error, thin_svd


def main():
    rng = np.random.default_rng(3)
    n, d = 80, 30
    # rank-3 data whose row space leans hard on features 0, 2, and 5
    B = rng.normal(size=(3, d)) * 0.05
    B[0, 0], B[1, 2], B[2, 5] = 4.0, 3.0, 2.0
    X = rng.normal(size=(n, 3)) @ B

    V = thin_svd(X).V
    p = leverage_scores(V)
    top = np.argsort(p)[::-1][:6]
    print("heaviest leverage probabilities:")
    for j in top:
        print(f"  feature {j:>2}: p = {p[j]:.3f}")

    r = 2000
    op = leverage_select(V, r, seed=11)
    freq = np.bincount(op.indices, minlength=d) / r
    print(f"\nempirical frequency over {r} draws (top features):")
    for j in top:
        print(f"  feature {j:>2}: {freq[j]:.3f}  (expected {p[j]:.3f})")

    print()
    for r in (32, 128, 512):
        errs = []
        for seed in range(10):
            op = leverage_select(V, r, seed=seed)
            errs.append(spectral_error(V, op.indices, op.weights))
        print(f"mean spectral error at r={r:>4}: {np.mean(errs):.3f} "
              f"(10 draws, worst {np.max(errs):.3f})")
    print("\nerror shrinks like 1/sqrt(r) on average; any single draw is")
    print("reproducible by its seed.")


if __name__ == "__main__":
    main()
