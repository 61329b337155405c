"""Dataset ingestion, synthetic data, and cross-validation folds.

Formats: svmlight-style sparse text ("<label> <idx>:<val> ...", 1-based
strictly increasing indices) and dense CSV with the label in the last
column.  Labels are strictly {-1, +1}.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DataError
from .linalg import check_matrix, is_sparse, to_dense


@dataclass(frozen=True)
class LabeledDataset:
    X: object  # dense ndarray or scipy sparse, n x d
    y: np.ndarray

    def __post_init__(self):
        check_matrix(self.X, name="X")
        y = np.asarray(self.y, dtype=np.float64).ravel()
        if y.size != self.X.shape[0]:
            raise DataError(f"{y.size} labels for {self.X.shape[0]} rows")
        valid = (y == 1.0) | (y == -1.0)
        if not valid.all():
            bad = y[~valid][0]
            raise DataError(f"labels must be -1 or +1, found {bad}")
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    @property
    def has_both_classes(self) -> bool:
        return bool(np.any(self.y > 0) and np.any(self.y < 0))

    def subset(self, rows) -> "LabeledDataset":
        rows = np.asarray(rows, dtype=np.intp)
        return LabeledDataset(self.X[rows], self.y[rows])

    def dense(self) -> np.ndarray:
        return to_dense(self.X)


def parse_svmlight(text: str, n_features: int | None = None) -> LabeledDataset:
    """Parse svmlight-style text into a sparse LabeledDataset.

    Feature indices on disk are 1-based and must be strictly increasing
    within a line; in memory they become 0-based.  d is the largest index
    seen unless n_features overrides it.
    """
    labels, counts, cols, vals = [], [], [], []
    max_idx = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] not in ("+1", "1", "-1"):
            raise DataError(f"line {lineno}: label must be +1 or -1, got {parts[0]!r}")
        labels.append(1.0 if parts[0] in ("+1", "1") else -1.0)
        prev = 0
        for tok in parts[1:]:
            idx_s, sep, val_s = tok.partition(":")
            if not sep:
                raise DataError(f"line {lineno}: malformed feature {tok!r}")
            try:
                idx = int(idx_s)
                val = float(val_s)
            except ValueError:
                raise DataError(f"line {lineno}: malformed feature {tok!r}") from None
            if idx < 1:
                raise DataError(f"line {lineno}: feature index {idx} is not 1-based")
            if idx <= prev:
                raise DataError(f"line {lineno}: index {idx} not strictly increasing")
            if not math.isfinite(val):
                raise DataError(f"line {lineno}: non-finite value {val_s!r}")
            prev = idx
            cols.append(idx - 1)
            vals.append(val)
        counts.append(len(parts) - 1)
        max_idx = max(max_idx, prev)  # a line's indices increase: prev is its largest
    d = max_idx if n_features is None else n_features
    if n_features is not None and max_idx > n_features:
        raise DataError(f"feature index {max_idx} exceeds declared dimension {n_features}")
    rows = np.repeat(np.arange(len(counts)), counts)
    X = sp.csr_matrix((vals, (rows, cols)), shape=(len(counts), d))
    return LabeledDataset(X, np.array(labels))


def write_svmlight(data: LabeledDataset) -> str:
    """Serialize with repr-exact values so parse(write(ds)) round-trips."""
    X = data.X.tocsr() if is_sparse(data.X) else sp.csr_matrix(data.X)
    out = io.StringIO()
    for i in range(data.n):
        lab = "+1" if data.y[i] > 0 else "-1"
        start, end = X.indptr[i], X.indptr[i + 1]
        feats = " ".join(
            f"{X.indices[j] + 1}:{float(X.data[j])!r}" for j in range(start, end)
        )
        out.write(lab if not feats else f"{lab} {feats}")
        out.write("\n")
    return out.getvalue()


def parse_csv(text: str) -> LabeledDataset:
    """Dense CSV, comma-delimited, with the label in the last column.

    The first line is skipped as a header when it fails to parse as numbers.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataError("empty CSV input")
    start = 0
    try:
        [float(t) for t in lines[0].split(",")]
    except ValueError:
        start = 1
    rows = []
    width = None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        toks = line.split(",")
        if width is None:
            width = len(toks)
            if width < 2:
                raise DataError(f"line {lineno}: need at least one feature and a label")
        elif len(toks) != width:
            raise DataError(f"line {lineno}: expected {width} fields, got {len(toks)}")
        try:
            rows.append([float(t) for t in toks])
        except ValueError as e:
            raise DataError(f"line {lineno}: {e}") from None
    M = np.asarray(rows)
    return LabeledDataset(M[:, :-1], M[:, -1])


def load_dataset(path) -> LabeledDataset:
    """Read a dataset file: CSV when the name ends in .csv, else svmlight."""
    path = str(path)
    with open(path) as f:
        text = f.read()
    return parse_csv(text) if path.endswith(".csv") else parse_svmlight(text)


def gen_synthetic(n: int = 200, d: int = 1000, k: int = 40, seed: int = 0) -> LabeledDataset:
    """Synthetic classification data with k label-correlated features.

    Labels are uniform +/-1.  For j = 1..k, feature j of point i is
    y_i * N(-j, 1), so the two class means sit at -j and +j and separation
    grows with the feature index; the remaining d-k features are N(0, 1)
    noise.  Defaults n=200, d=1000, k=40.
    """
    if k > d:
        raise DataError(f"k={k} informative features exceed d={d}")
    if n < 2:
        raise DataError("need at least two points")
    rng = np.random.default_rng(seed)
    y = rng.integers(0, 2, size=n) * 2.0 - 1.0
    X = np.empty((n, d))
    for j in range(1, k + 1):
        X[:, j - 1] = y * rng.normal(-float(j), 1.0, size=n)
    if k < d:
        X[:, k:] = rng.standard_normal((n, d - k))
    return LabeledDataset(X, y)


@dataclass(frozen=True)
class FoldPlan:
    """Shuffled k-fold assignments, one permutation per repeat."""

    folds: int
    repeats: int
    seed: int
    assignments: np.ndarray  # (repeats, n) permutations

    @property
    def n(self) -> int:
        return self.assignments.shape[1]


def make_folds(n: int, folds: int, repeats: int, seed: int) -> FoldPlan:
    if folds < 2 or folds > n:
        raise DataError(f"need 2 <= folds <= n, got folds={folds}, n={n}")
    if repeats < 1:
        raise DataError("need repeats >= 1")
    rng = np.random.default_rng(seed)
    perms = np.stack([rng.permutation(n) for _ in range(repeats)])
    return FoldPlan(folds, repeats, seed, perms)


def fold_test_indices(plan: FoldPlan, repeat: int, fold: int) -> np.ndarray:
    if not (0 <= repeat < plan.repeats and 0 <= fold < plan.folds):
        raise IndexError("repeat or fold out of range")
    n, k = plan.n, plan.folds
    base, extra = divmod(n, k)
    # First `extra` folds take one extra row, so fold sizes differ by <= 1.
    start = fold * base + min(fold, extra)
    stop = start + base + (1 if fold < extra else 0)
    return plan.assignments[repeat, start:stop]


def apply_fold(data: LabeledDataset, plan: FoldPlan, repeat: int, fold: int):
    """Split into (train, test) for one fold of one repeat."""
    if plan.n != data.n:
        raise DataError(f"fold plan built for n={plan.n}, dataset has n={data.n}")
    test_idx = fold_test_indices(plan, repeat, fold)
    mask = np.ones(data.n, dtype=bool)
    mask[test_idx] = False
    return data.subset(np.flatnonzero(mask)), data.subset(test_idx)
