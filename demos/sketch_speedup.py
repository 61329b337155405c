"""Sketch-accelerated selection: almost the same subset, fraction of the cost.

Exact deterministic selection needs the right singular basis of the data
matrix; for many rows that SVD dominates.  The approximate variant runs the
same selection on the basis of a t x d Gaussian sketch of X.  This demo
compares wall time and the spectral error measured on the true basis as t
grows.
"""

import time

import numpy as np

from marginsparse.bss import bss_select
from marginsparse.linalg import spectral_error, thin_svd
from marginsparse.sketch import approx_bss_select


def main():
    rng = np.random.default_rng(19)
    n, d, rank = 6000, 300, 12
    Z = rng.normal(size=(n, rank))
    X = Z @ rng.normal(size=(rank, d))

    ell = thin_svd(X).rank
    r = 4 * ell
    print(f"data: {n} x {d}, rank {ell}; selecting r={r} features")

    t0 = time.perf_counter()
    V = thin_svd(X).V
    op_exact = bss_select(V, r)
    exact_s = time.perf_counter() - t0
    err = spectral_error(V, op_exact.indices, op_exact.weights)
    print(f"\nexact (full SVD): {exact_s * 1e3:7.1f} ms  "
          f"error {err:.3f}  features {np.sort(op_exact.indices)[:6].tolist()}...")

    for mult in (2, 4, 8):
        t = mult * ell
        t0 = time.perf_counter()
        op = approx_bss_select(X, t, r, seed=1)
        sketch_s = time.perf_counter() - t0
        err = spectral_error(V, op.indices, op.weights)
        shared = np.intersect1d(op.indices, op_exact.indices).size
        print(f"t = {mult:>2}*l sketch:  {sketch_s * 1e3:7.1f} ms  "
              f"error {err:.3f}  shares {shared}/{np.unique(op_exact.indices).size} "
              f"features with exact")

    print("\nthe sketch never sees the full SVD; the guarantee on the sketched")
    print("basis transfers to the true one once t is a few multiples of l.")


if __name__ == "__main__":
    main()
