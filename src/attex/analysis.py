"""Attention-weight analysis: per-context group weights, neutral vs
sentiment weight distributions with Gaussian KDE, and heatmap export.

A context's weight for a term group is the sum of attention weights over
its positions in that group. Distributions of these weights are compared
between neutral contexts (class N) and sentiment-labeled ones (class S).
"""

import numpy as np

from . import lexicons as lx
from . import model as md
from . import termizer as tz
from .errors import write_lines

CLASS_NEUTRAL = "N"
CLASS_SENTIMENT = "S"

REPORT_GROUPS = (tz.GROUP_PREP, tz.GROUP_FRAMES, tz.GROUP_SENTIMENT)

GRID_POINTS = 201
GRID_MAX = 0.2

# Float64 values in kde's scratch block. 64 KiB stays below glibc's
# default 128 KiB mmap threshold, so the scratch comes from heap memory
# already mapped rather than from fresh pages.
KDE_BLOCK = 8192

UNDEFINED = "NA"


def default_grid():
    return np.linspace(0.0, GRID_MAX, GRID_POINTS)


def label_class(label):
    return CLASS_NEUTRAL if label == lx.NEUTRAL else CLASS_SENTIMENT


class DistributionSummary:
    """One report group's context weights, split by context class: each
    class's mean, KDE curve on the grid and count of weights.

    Means and curves are None when a class has no contexts.
    """

    __slots__ = ("group", "mean_n", "mean_s", "kde_n", "kde_s", "grid",
                 "n_count", "s_count")

    def __init__(self, group, grid, n_weights, s_weights):
        self.group = group
        self.grid = grid
        self.mean_n, self.kde_n, self.n_count = _describe(n_weights, grid)
        self.mean_s, self.kde_s, self.s_count = _describe(s_weights, grid)


def _describe(weights, grid):
    """(mean, KDE curve, count) of one class's weights."""
    if not weights:
        return None, None, 0
    return float(np.mean(weights)), kde(weights, grid), len(weights)


def _alphas(model, samples):
    """Attention weights (N, n) of the samples, by the batched forward."""
    if not model.encoder.attentive:
        raise ValueError("encoder kind %r exposes no attention weights"
                         % (model.encoder.cfg.kind,))
    return md.infer(model, samples)[1]


def extract_alpha(model, sample):
    """Attention weights over the real positions of one context."""
    return _alphas(model, [sample])[0, :len(sample.terms.terms)]


def silverman_bandwidth(samples):
    """1.06 * sample std * N^(-1/5), floored at 1e-3."""
    x = np.asarray(samples, dtype=float)
    sigma = x.std(ddof=1) if len(x) > 1 else 0.0
    return max(1.06 * sigma * len(x) ** -0.2, 1e-3)


def kde(samples, grid):
    """Gaussian kernel density of the samples on the grid, at the
    Silverman bandwidth.

    The kernel sum runs over blocks of max(1, KDE_BLOCK // N) grid points
    in one reused scratch array: at most KDE_BLOCK values, or one grid row
    of N values when there are more samples, whatever the grid's size.
    Each row takes the same steps over the same sorted samples as one
    (grid, samples) matrix would, so the curve is the same bit for bit.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise ValueError("kde needs at least one sample")
    bw = silverman_bandwidth(x)
    grid = np.asarray(grid, dtype=float)
    rows = max(1, KDE_BLOCK // x.size)
    scratch = np.empty((min(rows, grid.size), x.size))
    curve = np.empty(grid.size)
    for start in range(0, grid.size, rows):
        points = grid[start:start + rows]
        phi = scratch[:points.size]
        np.subtract(points[:, None], x, out=phi)
        phi /= bw
        phi *= phi
        phi *= -0.5
        np.exp(phi, out=phi)
        phi /= np.sqrt(2.0 * np.pi)
        phi.sum(axis=1, out=curve[start:start + rows])
    curve /= x.size * bw
    return curve


def summarize_distributions(model, contexts, sentiment_lexicon=None,
                            preposition_list=None):
    """One DistributionSummary per report group over the given contexts."""
    grid = default_grid()
    weights = {(group, cls): [] for group in REPORT_GROUPS
               for cls in (CLASS_NEUTRAL, CLASS_SENTIMENT)}
    groups = {}  # term -> group: each distinct term is classified once

    def group_of(term):
        if term not in groups:
            groups[term] = tz.group_of(term, sentiment_lexicon,
                                       preposition_list)
        return groups[term]

    for sample, alpha in zip(contexts, _alphas(model, contexts)):
        terms = sample.terms.terms
        # A context's weight for a group: its terms' weights in position order.
        totals = dict.fromkeys(tz.ANALYSIS_GROUPS, 0)
        for a, term in zip(alpha[:len(terms)].tolist(), terms):
            totals[group_of(term)] += a
        cls = label_class(sample.label)
        for group in REPORT_GROUPS:
            weights[group, cls].append(min(float(totals[group]), 1.0))
    return [DistributionSummary(group, grid, weights[group, CLASS_NEUTRAL],
                                weights[group, CLASS_SENTIMENT])
            for group in REPORT_GROUPS]


def export_heatmap(sample, alpha, path, sentiment_lexicon=None,
                   preposition_list=None):
    """TSV of per-term weights normalized by the context maximum."""
    terms = sample.terms.terms
    if len(alpha) != len(terms):
        raise ValueError("weight count %d does not match %d terms"
                         % (len(alpha), len(terms)))
    top = max(alpha)
    rows = ["position\tterm\tgroup\tnormalized_weight"]
    for i, (a, term) in enumerate(zip(alpha, terms)):
        group = tz.group_of(term, sentiment_lexicon, preposition_list)
        rows.append("%d\t%s\t%s\t%s" % (i, term.display(), group,
                                        repr(float(a / top))))
    write_lines(path, rows)


def write_distribution_csv(summaries, path):
    """CSV of the KDE curves: group,label_class,grid_point,density."""
    rows = ["group,label_class,grid_point,density"]
    for summary in summaries:
        for cls, curve in ((CLASS_NEUTRAL, summary.kde_n),
                           (CLASS_SENTIMENT, summary.kde_s)):
            if curve is None:
                continue
            for g, d in zip(summary.grid, curve):
                rows.append("%s,%s,%s,%s" % (summary.group, cls,
                                             repr(float(g)), repr(float(d))))
    write_lines(path, rows)


def write_means_csv(summaries, path):
    """CSV of the expected values: group,mean_N,mean_S."""
    rows = ["group,mean_N,mean_S"]
    for summary in summaries:
        mean_n, mean_s = (UNDEFINED if v is None else repr(float(v))
                          for v in (summary.mean_n, summary.mean_s))
        rows.append("%s,%s,%s" % (summary.group, mean_n, mean_s))
    write_lines(path, rows)
