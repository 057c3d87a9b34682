"""Paired significance testing for result comparisons."""

import math

import numpy as np


def wilcoxon_signed_rank(x, y):
    """Two-sided Wilcoxon signed-rank test on paired samples.

    Zero differences are dropped; at least 6 non-zero differences are
    required, and a non-finite input raises ValueError.  The p-value uses
    the normal approximation with the standard tie correction on the rank
    variance.  Returns (statistic, p_value)
    where the statistic is the smaller of the positive and negative rank
    sums.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("inputs must be 1-D arrays of equal length")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("inputs must be finite")
    d = x - y
    d = d[d != 0.0]
    n = len(d)
    if n < 6:
        raise ValueError(
            f"insufficient data: need >= 6 non-zero differences, got {n}")
    # average ranks of |d|: a group of t ties at sorted positions
    # i+1 .. i+t all rank i + (t + 1) / 2
    _, inverse, counts = np.unique(np.abs(d), return_inverse=True,
                                   return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    statistic = min(w_plus, w_minus)
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    # tie correction: subtract sum(t^3 - t)/48 over groups of tied |d|
    var -= float(np.sum(counts.astype(np.float64) ** 3 - counts)) / 48.0
    if var <= 0:
        raise ValueError("zero variance after tie correction")
    z = (statistic - mean) / math.sqrt(var)
    p = min(1.0, math.erfc(-z / math.sqrt(2.0)))  # = 2 * Phi(z) for z <= 0
    return statistic, p
