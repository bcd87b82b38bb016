"""Leakage metrics: what the honest-but-curious server learns.

Quantifies the structural leakage of each scheme's server-side view so the
Table 1 'formal security' column can be backed by numbers:

* **OPE** — the storage order is the plaintext order: rank correlation 1.0;
* **bucketization** — per-bucket cardinalities equal the true histogram:
  leakage distance 0;
* **FRESQUE / PINED-RQ** — the observable per-leaf pair counts differ from
  the true histogram by the Laplace noise (dummies added, removals hidden
  in fixed-size overflow arrays): the leakage distance is bounded by the
  calibrated noise, never zero.
"""

from __future__ import annotations


def rank_correlation(plaintexts: list[float], observed: list[float]) -> float:
    """Spearman rank correlation between plaintexts and the observed keys.

    1.0 means the server-side ordering reveals the plaintext order
    exactly (OPE); ~0 means no ordinal information.
    """
    if len(plaintexts) != len(observed):
        raise ValueError("sequences must have equal length")
    n = len(plaintexts)
    if n < 2:
        return 0.0

    def ranks(values: list[float]) -> list[float]:
        order = sorted(range(n), key=lambda i: values[i])
        result = [0.0] * n
        i = 0
        while i < n:
            j = i
            while j + 1 < n and values[order[j + 1]] == values[order[i]]:
                j += 1
            average = (i + j) / 2.0
            for k in range(i, j + 1):
                result[order[k]] = average
            i = j + 1
        return result

    rank_a = ranks(list(plaintexts))
    rank_b = ranks(list(observed))
    mean = (n - 1) / 2.0
    cov = sum((a - mean) * (b - mean) for a, b in zip(rank_a, rank_b))
    var_a = sum((a - mean) ** 2 for a in rank_a)
    var_b = sum((b - mean) ** 2 for b in rank_b)
    if var_a == 0 or var_b == 0:
        return 0.0
    return cov / (var_a * var_b) ** 0.5


def histogram_distance(
    observed: list[float] | dict[int, float],
    truth: list[float] | dict[int, float],
    num_bins: int,
) -> float:
    """Normalised L1 distance between an observed and the true histogram.

    0 means the server sees the exact histogram (bucketization's leak);
    larger values mean the published counts hide the true distribution
    behind noise.  Normalised by the total true mass.
    """
    def as_list(source) -> list[float]:
        if isinstance(source, dict):
            values = [0.0] * num_bins
            for key, count in source.items():
                values[key] = count
            return values
        if len(source) != num_bins:
            raise ValueError(f"expected {num_bins} bins, got {len(source)}")
        return list(source)

    observed_bins = as_list(observed)
    true_bins = as_list(truth)
    total = sum(true_bins)
    if total == 0:
        return 0.0
    return sum(
        abs(a - b) for a, b in zip(observed_bins, true_bins)
    ) / total


def fresque_observed_histogram(cloud, publication: int = 0) -> list[int]:
    """The per-leaf pair counts an adversary reads off a published FRESQUE
    dataset: real records minus removals plus dummies — i.e. the noisy
    counts, never the true histogram."""
    dataset = next(
        d for d in cloud.engine.published if d.publication == publication
    )
    return [
        len(dataset.pointers.ordinals(offset))
        for offset in range(dataset.tree.num_leaves)
    ]
