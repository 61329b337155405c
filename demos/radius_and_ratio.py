"""Feature selection also preserves the enclosing-ball radius.

The generalization story needs two quantities: the margin (bigger is
better) and the radius B of the smallest ball containing the data (smaller
is better).  This demo checks both directions on a low-rank dataset: the
sampled radius obeys B~^2 <= (1 + e) B^2, and the combined ratio
(B~/margin~)^2 stays within (1+e)/(1-e) of the original.
"""

import numpy as np

from marginsparse.data import LabeledDataset
from marginsparse.pipelines import select_geometry, unsupervised_select, verify_margin_bound


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

    # radius: select from the data's right basis, which also spans the
    # ball's center; no SVM is needed for this bound
    geo = select_geometry(data, "bss", r=40)
    radius = verify_margin_bound(geo).radius
    print(f"\nradius with r=40 deterministic selection:")
    print(f"  B full    = {geo.ball_full.radius:.4f}")
    print(f"  B sampled = {geo.ball_sampled.radius:.4f}")
    print(f"  measured error {geo.spectral_error:.3f}, "
          f"bound on B~^2 = {radius.rhs:.4f} -> {radius.status}")

    # ratio: the full report carries margins and balls together
    rep = unsupervised_select(data, "bss", r=160)
    bound = verify_margin_bound(rep)
    ratio_full = (rep.ball_full.radius / rep.margin_full) ** 2
    ratio_sampled = (rep.ball_sampled.radius / rep.margin_sampled) ** 2
    print(f"\nratio with r=160 (error {rep.spectral_error:.3f}):")
    print(f"  (B/margin)^2 full    = {ratio_full:.2f}")
    print(f"  (B/margin)^2 sampled = {ratio_sampled:.2f}")
    print(f"  allowed by bound     = {bound.ratio.rhs:.2f}  -> {bound.ratio_status}")


if __name__ == "__main__":
    main()
