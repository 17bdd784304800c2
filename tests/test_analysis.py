"""Tests for attention weight extraction, KDE, and distribution export."""

import tracemalloc

import numpy as np
import pytest

import per_context as pc
from attex import analysis as an
from attex import corpus as cp
from attex import encoders as enc
from attex import lexicons as lx
from attex import model as md
from attex import termizer as tz

SENT_LEX = lx.LemmaSet(["ужасно", "прекрасно"])
PREPS = lx.LemmaSet(["в", "на"])


def make_sample(words, subj, obj, label=lx.NEUTRAL, frames=(), doc_id="d",
                source="a", target="b"):
    terms = []
    for i, w in enumerate(words):
        if i == subj:
            terms.append(tz.Term.entity_subj())
        elif i == obj:
            terms.append(tz.Term.entity_obj())
        elif i in frames:
            terms.append(tz.Term.frame(w, lx.POSITIVE))
        else:
            terms.append(tz.Term.word(w))
    seq = tz.TermSequence(terms, subj, obj)
    return cp.ContextSample(doc_id, 0, seq, label, source, target)


def mixed_samples():
    return [
        make_sample(["e", "хвалит", "x", "в", "ужасно"], 0, 2,
                    label=lx.POSITIVE, frames=(1,), doc_id="d1"),
        make_sample(["e", "в", "x", "осудил"], 0, 2,
                    label=lx.NEGATIVE, frames=(3,), doc_id="d1",
                    target="c"),
        make_sample(["e", "и", "x"], 0, 2, label=lx.NEUTRAL, doc_id="d2"),
        make_sample(["прекрасно", "e", "x", "на"], 1, 2,
                    label=lx.NEUTRAL, doc_id="d2", source="q"),
    ]


def attentive_model(samples, kind="att-blstm", n=8, seed=0):
    cfg = enc.EncoderConfig(kind, n=n, h=3, filters=3, window=1, k=3)
    vocab = enc.build_vocab(samples)
    options = {"m": 3, "polarity_dim": 1, "use_position": False}
    return md.build_model(vocab, cfg, options,
                          rng=np.random.default_rng(seed))


class TestExtractAlpha:
    def test_real_length_and_normalization(self):
        samples = mixed_samples()
        model = attentive_model(samples)
        for sample in samples:
            alpha = an.extract_alpha(model, sample)
            assert len(alpha) == len(sample.terms.terms)
            assert (alpha >= 0).all()
            assert abs(alpha.sum() - 1.0) < 1e-9

    def test_non_attentive_kind_rejected(self):
        samples = mixed_samples()
        model = attentive_model(samples, kind="cnn")
        with pytest.raises(ValueError, match="cnn"):
            an.extract_alpha(model, samples[0])

    def test_all_attentive_kinds_work(self):
        samples = mixed_samples()
        for kind in ("att-blstm", "att-blstm-zyang", "att-cnn", "ian"):
            model = attentive_model(samples, kind=kind, seed=3)
            alpha = an.extract_alpha(model, samples[0])
            assert abs(alpha.sum() - 1.0) < 1e-9


class TestGroupWeight:
    def test_documented_sum(self):
        sample = make_sample(["e", "хвалит", "x", "осудил"], 0, 2,
                             frames=(1, 3))
        alpha = [0.5, 0.3, 0.1, 0.2]
        w = pc.context_group_weight(alpha, sample.terms.terms,
                                    tz.GROUP_FRAMES, SENT_LEX, PREPS)
        assert w == pytest.approx(0.5)

    def test_no_member_is_zero(self):
        sample = make_sample(["e", "слово", "x"], 0, 2)
        w = pc.context_group_weight([0.4, 0.3, 0.3], sample.terms.terms,
                                    tz.GROUP_FRAMES, SENT_LEX, PREPS)
        assert w == 0.0

    def test_all_members_is_one(self):
        sample = make_sample(["e", "x"], 0, 1)
        w = pc.context_group_weight([0.6, 0.4], sample.terms.terms,
                                    tz.GROUP_OTHER, SENT_LEX, PREPS)
        assert abs(w - 1.0) < 1e-9

    def test_length_mismatch_rejected(self):
        sample = make_sample(["e", "x"], 0, 1)
        with pytest.raises(ValueError):
            pc.context_group_weight([1.0], sample.terms.terms,
                                    tz.GROUP_OTHER, SENT_LEX, PREPS)

    def test_four_groups_partition_every_context(self):
        samples = mixed_samples()
        model = attentive_model(samples, seed=5)
        for sample in samples:
            alpha = an.extract_alpha(model, sample)
            total = sum(
                pc.context_group_weight(alpha, sample.terms.terms, group,
                                        SENT_LEX, PREPS)
                for group in tz.ANALYSIS_GROUPS)
            assert abs(total - 1.0) < 1e-9


def one_matrix_kde(samples, grid):
    """an.kde as one (grid, samples) matrix: the formula before the kernel
    sum ran in blocks."""
    x = np.sort(np.asarray(samples, dtype=float))
    bw = an.silverman_bandwidth(x)
    grid = np.asarray(grid, dtype=float)
    phi = grid[:, None] - x[None, :]
    phi /= bw
    phi *= phi
    phi *= -0.5
    np.exp(phi, out=phi)
    phi /= np.sqrt(2.0 * np.pi)
    return phi.sum(axis=1) / (x.size * bw)


def study_weights(rng, count):
    """Weights shaped like the study's: unsorted, in [0, 1], with exact
    zeros, ties and weights clipped to 1."""
    x = np.minimum(rng.exponential(0.06, count), 1.0)
    x[rng.random(count) < 0.1] = 0.0
    return x


class TestKde:
    @pytest.mark.parametrize("points", [1, 17, 201, 1001])
    @pytest.mark.parametrize("count", [1, 2, 95, 768, an.KDE_BLOCK + 1,
                                       20_000])
    def test_blocks_equal_one_matrix_bitwise(self, count, points):
        x = study_weights(np.random.default_rng([count, points]), count)
        grid = np.linspace(0.0, 1.0, points)
        assert an.kde(x, grid).tobytes() == one_matrix_kde(x, grid).tobytes()

    def test_scratch_stays_bounded(self):
        # One (grid, samples) matrix would take 201 * 20 000 * 8 B = 32 MB.
        x = np.random.default_rng(3).uniform(0.0, 0.2, 20_000)
        grid = an.default_grid()
        tracemalloc.start()
        try:
            an.kde(x, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            an.kde([], an.default_grid())

    def test_single_sample_peaks_at_nearest_point(self):
        grid = an.default_grid()
        curve = an.kde([0.1], grid)
        assert grid[np.argmax(curve)] == pytest.approx(0.1)

    def test_symmetric_samples_give_symmetric_curve(self):
        grid = np.linspace(0.0, 0.2, 201)
        curve = an.kde([0.08, 0.12], grid)
        assert np.allclose(curve, curve[::-1], atol=1e-12)

    def test_integral_close_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(0.0, 1.0, 100)
        bw = an.silverman_bandwidth(x)
        grid = np.linspace(x.min() - 3 * bw, x.max() + 3 * bw, 801)
        integral = np.trapezoid(an.kde(x, grid), grid)
        assert abs(integral - 1.0) < 0.02

    def test_silverman_value(self):
        x = [0.1, 0.2, 0.3]
        expected = 1.06 * np.std(x, ddof=1) * 3 ** -0.2
        assert an.silverman_bandwidth(x) == pytest.approx(expected, rel=1e-12)

    def test_bandwidth_floor(self):
        assert an.silverman_bandwidth([0.1]) == 1e-3
        assert an.silverman_bandwidth([0.1, 0.1, 0.1]) == 1e-3

    def test_explicit_bandwidth_and_formula(self):
        grid = np.array([0.0, 0.1, 0.2])
        x = [0.05, 0.15]
        bw = an.silverman_bandwidth(x)
        curve = an.kde(x, grid)
        manual = np.zeros(3)
        for i, g in enumerate(grid):
            for xi in x:
                u = (g - xi) / bw
                manual[i] += np.exp(-0.5 * u * u) / np.sqrt(2 * np.pi)
        manual /= len(x) * bw
        assert np.allclose(curve, manual, atol=1e-15)

    def test_permutation_invariance_is_bitwise(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(0.0, 0.2, 37)
        grid = an.default_grid()
        base = an.kde(x, grid)
        for _ in range(5):
            assert np.array_equal(base, an.kde(rng.permutation(x), grid))

    def test_non_negative(self):
        curve = an.kde([0.0, 0.2], an.default_grid())
        assert (curve >= 0).all()


class TestSummarize:
    def test_structure_and_grid(self):
        samples = mixed_samples()
        model = attentive_model(samples, seed=7)
        summaries = an.summarize_distributions(model, samples, SENT_LEX, PREPS)
        assert [s.group for s in summaries] == list(an.REPORT_GROUPS)
        for s in summaries:
            assert s.grid[0] == 0.0
            assert s.grid[-1] == pytest.approx(0.2)
            assert len(s.grid) == 201
            assert s.n_count == 2 and s.s_count == 2

    def test_means_match_direct_recomputation(self):
        samples = mixed_samples()
        model = attentive_model(samples, seed=8)
        summaries = an.summarize_distributions(model, samples, SENT_LEX, PREPS)
        for summary in summaries:
            for cls, got in ((an.CLASS_NEUTRAL, summary.mean_n),
                             (an.CLASS_SENTIMENT, summary.mean_s)):
                values = []
                for sample in samples:
                    if an.label_class(sample.label) != cls:
                        continue
                    alpha = an.extract_alpha(model, sample)
                    values.append(pc.context_group_weight(
                        alpha, sample.terms.terms, summary.group,
                        SENT_LEX, PREPS))
                assert got == pytest.approx(np.mean(values), abs=1e-12)

    def test_kde_curves_match_weights(self):
        samples = mixed_samples()
        model = attentive_model(samples, seed=9)
        summaries = an.summarize_distributions(model, samples, SENT_LEX, PREPS)
        frames = summaries[list(an.REPORT_GROUPS).index(tz.GROUP_FRAMES)]
        values = []
        for sample in samples:
            if an.label_class(sample.label) != an.CLASS_SENTIMENT:
                continue
            alpha = an.extract_alpha(model, sample)
            values.append(pc.context_group_weight(
                alpha, sample.terms.terms, tz.GROUP_FRAMES, SENT_LEX, PREPS))
        assert np.array_equal(frames.kde_s, an.kde(values, frames.grid))

    def test_classifies_each_distinct_term_once(self, monkeypatch):
        samples = mixed_samples() * 3
        model = attentive_model(samples, seed=10)
        calls = []
        group_of = tz.group_of

        def counted(term, *args):
            calls.append(term)
            return group_of(term, *args)

        monkeypatch.setattr(tz, "group_of", counted)
        an.summarize_distributions(model, samples, SENT_LEX, PREPS)
        assert len(calls) == len(set(calls))
        assert set(calls) == {t for s in samples for t in s.terms.terms}

    def test_equal_to_the_per_group_path_on_random_contexts(self):
        # summarize_distributions classifies each term once per context;
        # its means and curves must equal, exactly, those built from
        # context_group_weight one group at a time.
        rng = np.random.default_rng(11)
        words = ["ужасно", "прекрасно", "в", "на", "и", "слово", "хвалит"]
        samples = []
        for i in range(40):
            n_real = int(rng.integers(2, 9))
            subj, obj = (int(v) for v in rng.choice(n_real, 2, replace=False))
            frames = [p for p in range(n_real) if rng.random() < 0.3]
            samples.append(make_sample(
                list(rng.choice(words, n_real)), subj, obj,
                label=lx.POLARITIES[int(rng.integers(0, 3))], frames=frames,
                doc_id="d%d" % i))
        for kind in ("att-blstm", "att-cnn"):
            model = attentive_model(samples, kind=kind, seed=12)
            summaries = an.summarize_distributions(model, samples, SENT_LEX,
                                                   PREPS)
            _, alphas = md.infer(model, samples)
            for summary in summaries:
                sides = {an.CLASS_NEUTRAL: [], an.CLASS_SENTIMENT: []}
                for sample, alpha in zip(samples, alphas):
                    terms = sample.terms.terms
                    weight = pc.context_group_weight(
                        alpha[:len(terms)], terms, summary.group, SENT_LEX,
                        PREPS)
                    sides[an.label_class(sample.label)].append(
                        min(weight, 1.0))
                neutral, sentiment = sides[an.CLASS_NEUTRAL], \
                    sides[an.CLASS_SENTIMENT]
                assert summary.mean_n == float(np.mean(neutral))
                assert summary.mean_s == float(np.mean(sentiment))
                assert np.array_equal(summary.kde_n,
                                      an.kde(neutral, summary.grid))
                assert np.array_equal(summary.kde_s,
                                      an.kde(sentiment, summary.grid))

    def test_missing_class_is_flagged(self):
        samples = [s for s in mixed_samples() if s.label == lx.NEUTRAL]
        model = attentive_model(samples, seed=10)
        summaries = an.summarize_distributions(model, samples, SENT_LEX, PREPS)
        for s in summaries:
            assert s.s_count == 0
            assert s.mean_s is None and s.kde_s is None
            assert s.mean_n is not None and s.kde_n is not None

    def test_label_class(self):
        assert an.label_class(lx.NEUTRAL) == "N"
        assert an.label_class(lx.POSITIVE) == "S"
        assert an.label_class(lx.NEGATIVE) == "S"


class TestHeatmap:
    def test_uniform_weights(self, tmp_path):
        sample = make_sample(["e", "слово", "x"], 0, 2)
        path = tmp_path / "heat.tsv"
        an.export_heatmap(sample, [1 / 3, 1 / 3, 1 / 3], path,
                          SENT_LEX, PREPS)
        lines = path.read_text().splitlines()
        assert lines[0] == "position\tterm\tgroup\tnormalized_weight"
        for line in lines[1:]:
            assert line.split("\t")[3] == "1.0"

    def test_documented_normalization(self, tmp_path):
        sample = make_sample(["e", "x"], 0, 1)
        path = tmp_path / "heat.tsv"
        an.export_heatmap(sample, [0.1, 0.4], path)
        rows = [l.split("\t") for l in path.read_text().splitlines()[1:]]
        assert [r[3] for r in rows] == ["0.25", "1.0"]
        assert [r[1] for r in rows] == ["E_SUBJ", "E_OBJ"]

    def test_groups_and_display(self, tmp_path):
        sample = make_sample(["e", "хвалит", "x", "в"], 0, 2, frames=(1,))
        path = tmp_path / "heat.tsv"
        an.export_heatmap(sample, [0.25, 0.25, 0.25, 0.25], path,
                          SENT_LEX, PREPS)
        rows = [l.split("\t") for l in path.read_text().splitlines()[1:]]
        assert rows[1][1] == "хвалит" and rows[1][2] == tz.GROUP_FRAMES
        assert rows[3][1] == "в" and rows[3][2] == tz.GROUP_PREP
        assert rows[0][2] == tz.GROUP_OTHER

    def test_length_mismatch_rejected(self, tmp_path):
        sample = make_sample(["e", "x"], 0, 1)
        with pytest.raises(ValueError):
            an.export_heatmap(sample, [1.0], tmp_path / "heat.tsv")


class TestCsvWriters:
    def make_summaries(self):
        samples = mixed_samples()
        model = attentive_model(samples, seed=11)
        return an.summarize_distributions(model, samples, SENT_LEX, PREPS)

    def test_distribution_csv(self, tmp_path):
        summaries = self.make_summaries()
        path = tmp_path / "dist.csv"
        an.write_distribution_csv(summaries, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "group,label_class,grid_point,density"
        assert len(lines) == 1 + len(an.REPORT_GROUPS) * 2 * 201
        first = lines[1].split(",")
        assert first[0] == tz.GROUP_PREP and first[1] == "N"
        assert float(first[2]) == 0.0 and float(first[3]) >= 0.0

    def test_distribution_csv_skips_empty_side(self, tmp_path):
        samples = [s for s in mixed_samples() if s.label == lx.NEUTRAL]
        model = attentive_model(samples, seed=12)
        summaries = an.summarize_distributions(model, samples, SENT_LEX, PREPS)
        path = tmp_path / "dist.csv"
        an.write_distribution_csv(summaries, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 1 + len(an.REPORT_GROUPS) * 201
        assert all(l.split(",")[1] == "N" for l in lines[1:])

    def test_means_csv(self, tmp_path):
        summaries = self.make_summaries()
        path = tmp_path / "means.csv"
        an.write_means_csv(summaries, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "group,mean_N,mean_S"
        assert len(lines) == 1 + len(an.REPORT_GROUPS)
        for line, summary in zip(lines[1:], summaries):
            cols = line.split(",")
            assert cols[0] == summary.group
            assert float(cols[1]) == pytest.approx(summary.mean_n)
            assert float(cols[2]) == pytest.approx(summary.mean_s)

    def test_means_csv_undefined_marker(self, tmp_path):
        samples = [s for s in mixed_samples() if s.label == lx.NEUTRAL]
        model = attentive_model(samples, seed=13)
        summaries = an.summarize_distributions(model, samples, SENT_LEX, PREPS)
        path = tmp_path / "means.csv"
        an.write_means_csv(summaries, path)
        for line in path.read_text().splitlines()[1:]:
            assert line.split(",")[2] == "NA"
