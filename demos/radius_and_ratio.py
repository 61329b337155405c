"""Feature selection also preserves the enclosing-ball radius.

The generalization story needs two quantities: the margin (bigger is
better) and the radius B of the smallest ball containing the data (smaller
is better).  This demo checks both directions on a low-rank dataset: the
sampled radius obeys B~^2 <= (1 + e) B^2, and the combined ratio
(B~/margin~)^2 stays within (1+e)/(1-e) of the original.
"""

import numpy as np

from marginsparse.bss import bss_select
from marginsparse.data import LabeledDataset
from marginsparse.geometry import augmented_right_basis, radius_bound_check
from marginsparse.pipelines import unsupervised_select, verify_margin_bound


def make_data(seed, n=40, d=200, rank=10):
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(n, rank))
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    w = rng.normal(size=rank)
    Z += 0.8 * y[:, None] * (w / np.linalg.norm(w))[None, :]
    return LabeledDataset(Z @ rng.normal(size=(rank, d)), y)


def main():
    data = make_data(seed=0)
    print(f"rank-10 data: n={data.n}, d={data.d}")

    # radius: select on the center-augmented right basis
    basis = augmented_right_basis(data.X)
    op = bss_select(basis.V, 40)
    chk = radius_bound_check(basis, op)
    print(f"\nradius with r=40 deterministic selection:")
    print(f"  B full    = {chk.radius_full:.4f}")
    print(f"  B sampled = {chk.radius_sampled:.4f}")
    print(f"  measured error {chk.spectral_error:.3f}, "
          f"bound on B~^2 = {chk.bound:.4f}, passed = {chk.passed}")

    # ratio: full pipeline report carries margins and radii together
    rep = unsupervised_select(data, "bss", r=160)
    bound = verify_margin_bound(rep)
    ratio_full = (rep.radius_full / rep.margin_full) ** 2
    ratio_sampled = (rep.radius_sampled / rep.margin_sampled) ** 2
    print(f"\nratio with r=160 (error {rep.spectral_error:.3f}):")
    print(f"  (B/margin)^2 full    = {ratio_full:.2f}")
    print(f"  (B/margin)^2 sampled = {ratio_sampled:.2f}")
    print(f"  allowed by bound     = {bound.ratio_rhs:.2f}  -> {bound.ratio_status}")


if __name__ == "__main__":
    main()
