"""Attention-weight analysis: per-context group weights, neutral vs
sentiment weight distributions with Gaussian KDE, and heatmap export.

A context's weight for a term group is the sum of attention weights over
its positions in that group. Distributions of these weights are compared
between neutral contexts (class N) and sentiment-labeled ones (class S).
"""

from collections import defaultdict

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

UNDEFINED = "NA"


def default_grid():
    return np.linspace(0.0, GRID_MAX, GRID_POINTS)


def label_class(label):
    return CLASS_NEUTRAL if label == lx.NEUTRAL else CLASS_SENTIMENT


class DistributionSummary:
    """Per-group means and KDE curves, split by context class.

    Means and curves are None when a class has no contexts; n_count and
    s_count say how many contexts fed each side.
    """

    __slots__ = ("group", "mean_n", "mean_s", "kde_n", "kde_s", "grid",
                 "n_count", "s_count")

    def __init__(self, group, mean_n, mean_s, kde_n, kde_s, grid,
                 n_count, s_count):
        self.group = group
        self.mean_n = mean_n
        self.mean_s = mean_s
        self.kde_n = kde_n
        self.kde_s = kde_s
        self.grid = grid
        self.n_count = n_count
        self.s_count = s_count


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


def kde(samples, grid, bandwidth=None):
    """Gaussian kernel density of the samples on the grid."""
    x = np.sort(np.asarray(samples, dtype=float))
    if x.size == 0:
        raise ValueError("kde needs at least one sample")
    bw = silverman_bandwidth(x) if bandwidth is None else float(bandwidth)
    grid = np.asarray(grid, dtype=float)
    # In place: a CV run's study holds one (grid, samples) array at a time.
    phi = grid[:, None] - x[None, :]
    phi /= bw
    phi *= phi
    phi *= -0.5
    np.exp(phi, out=phi)
    phi /= np.sqrt(2.0 * np.pi)
    return phi.sum(axis=1) / (x.size * bw)


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
        totals = defaultdict(int)
        for a, term in zip(alpha[:len(terms)].tolist(), terms):
            totals[group_of(term)] += a
        cls = label_class(sample.label)
        for group in REPORT_GROUPS:
            weights[group, cls].append(min(float(totals[group]), 1.0))
    summaries = []
    for group in REPORT_GROUPS:
        sides = {}
        counts = {}
        for cls in (CLASS_NEUTRAL, CLASS_SENTIMENT):
            values = weights[group, cls]
            counts[cls] = len(values)
            if values:
                sides[cls] = (float(np.mean(values)), kde(values, grid))
            else:
                sides[cls] = (None, None)
        summaries.append(DistributionSummary(
            group,
            sides[CLASS_NEUTRAL][0], sides[CLASS_SENTIMENT][0],
            sides[CLASS_NEUTRAL][1], sides[CLASS_SENTIMENT][1],
            grid, counts[CLASS_NEUTRAL], counts[CLASS_SENTIMENT]))
    return summaries


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
