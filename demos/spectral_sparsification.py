"""Deterministic column selection keeps a sampled Gram matrix near identity.

Selects r weighted columns from a random d x l orthonormal basis and prints
how the singular values of the rescaled selection concentrate around 1 as
r grows.  The guarantee: every singular value of R^T V lies in
[1 - sqrt(l/r), 1 + sqrt(l/r)], so ||V^T V - V^T R R^T V||_2 <= 3 sqrt(l/r).
"""

import numpy as np

from marginsparse.bss import bss_select
from marginsparse.linalg import spectral_error


def main():
    rng = np.random.default_rng(7)
    d, ell = 400, 8
    V, _ = np.linalg.qr(rng.normal(size=(d, ell)))

    print(f"orthonormal basis: {d} rows, {ell} columns")
    print(f"{'r':>5} {'sqrt(l/r)':>10} {'min sigma':>10} {'max sigma':>10} "
          f"{'error':>8} {'3*sqrt(l/r)':>12}")
    for r in (16, 32, 64, 128, 256):
        op = bss_select(V, r)
        sig = np.linalg.svd(V[op.indices] * op.weights[:, None], compute_uv=False)
        err = spectral_error(V, op.indices, op.weights)
        bound = np.sqrt(ell / r)
        print(f"{r:>5} {bound:>10.3f} {sig.min():>10.3f} {sig.max():>10.3f} "
              f"{err:>8.3f} {3 * bound:>12.3f}")

    print("\nsingular values tighten toward 1 like sqrt(l/r); the selection")
    print("is deterministic, so rerunning this script reproduces every row.")


if __name__ == "__main__":
    main()
