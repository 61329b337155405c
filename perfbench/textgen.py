"""Seeded stand-in for a TechTC-300 text-categorisation pair.

TechTC-300 datasets are bags of words from two Open Directory categories:
about a hundred documents, tens of thousands of word features, roughly one
per cent of entries non-zero.  This module draws documents of that shape
from a Zipf background vocabulary mixed with a small topic vocabulary per
class, and writes them as svmlight text through the package's own writer,
so the CLI parses real svmlight input.  Nothing is downloaded.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from marginsparse.data import LabeledDataset, write_svmlight

TOPIC_WORDS = 150      # class-specific vocabulary per category
TOPIC_SHARE = 0.25     # share of a document's tokens drawn from its topic
ZIPF_EXPONENT = 1.0


def techtc_like(n: int, d: int, doc_tokens: int, seed: int) -> LabeledDataset:
    """n documents over a d-word vocabulary, labels alternating +1/-1.

    Each document draws about doc_tokens tokens; a feature value is
    log(1 + term count), the usual damped term frequency.
    """
    rng = np.random.default_rng(seed)
    background = 1.0 / np.arange(1, d + 1) ** ZIPF_EXPONENT
    background /= background.sum()
    # Word rank -> feature column.  The most frequent word takes the last
    # column, so that column is never empty and the parsed width is d.
    vocab = np.concatenate([[d - 1], rng.permutation(d - 1)])
    topics = [rng.choice(d, size=TOPIC_WORDS, replace=False) for _ in range(2)]
    y = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    rows, cols, vals = [], [], []
    for i in range(n):
        length = int(rng.integers(doc_tokens // 2, 3 * doc_tokens // 2 + 1))
        n_topic = rng.binomial(length, TOPIC_SHARE)
        words = np.concatenate([
            vocab[rng.choice(d, size=length - n_topic, p=background)],
            rng.choice(topics[i % 2], size=n_topic),
        ])
        col, count = np.unique(words, return_counts=True)
        rows.append(np.full(col.size, i))
        cols.append(col)
        vals.append(np.log1p(count))
    X = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, d))
    return LabeledDataset(X, y)


def write_techtc_like(path, n: int, d: int, doc_tokens: int, seed: int) -> LabeledDataset:
    """Generate a dataset and write it to path in svmlight format."""
    data = techtc_like(n, d, doc_tokens, seed)
    with open(path, "w") as f:
        f.write(write_svmlight(data))
    return data
