"""Tests for the classifier head, training protocol, and evaluation."""

import errno
import multiprocessing
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

from attex import corpus as cp
from attex import encoders as enc
from attex import lexicons as lx
from attex import model as md
from attex import tensorgrad as tg
from attex import termizer as tz
from attex.errors import DataError, NumericError


def seq_of(middle, extra=("x",)):
    terms = [tz.Term.entity_subj(), tz.Term.word(middle), tz.Term.entity_obj()]
    terms.extend(tz.Term.word(w) for w in extra)
    return tz.TermSequence(terms, 0, 2)


def sample_of(doc_id, middle, label, source="s", target="t", sentence_idx=0):
    return cp.ContextSample(doc_id, sentence_idx, seq_of(middle), label,
                            source, target)


def toy_samples(n_docs=4):
    """Separable contexts: the middle word decides the label."""
    samples = []
    for d in range(n_docs):
        doc = "d%d" % d
        for rep in range(2):
            samples.append(sample_of(doc, "good", lx.POSITIVE, "a", "b", rep))
            samples.append(sample_of(doc, "bad", lx.NEGATIVE, "a", "c", rep))
        samples.append(sample_of(doc, "blah", lx.NEUTRAL, "b", "c"))
    return samples


def toy_model(samples, seed=0, kind="cnn", n=6, filters=6, window=1):
    cfg = enc.EncoderConfig(kind, n=n, h=4, filters=filters, window=window, k=3)
    vocab = enc.build_vocab(samples)
    options = {"m": 6, "polarity_dim": 1, "use_position": False}
    return md.build_model(vocab, cfg, options, rng=np.random.default_rng(seed))


KEY = ("d", "a", "b")


def label_of(*rows):
    """opinion_labels' label for one key whose contexts give rows."""
    return md.opinion_labels([KEY] * len(rows), np.array(rows))[KEY]


class TestPrediction:
    """The label rule: argmax of the mean, exact ties go neutral."""

    def test_unique_argmax(self):
        assert label_of([0.5, 0.2, 0.3]) == lx.POSITIVE
        assert label_of([0.1, 0.6, 0.3]) == lx.NEGATIVE
        assert label_of([0.2, 0.2, 0.6]) == lx.NEUTRAL

    def test_exact_tie_goes_neutral(self):
        assert label_of([0.4, 0.4, 0.2]) == lx.NEUTRAL
        assert label_of([0.2, 0.4, 0.4]) == lx.NEUTRAL

    def test_all_equal_goes_neutral(self):
        assert label_of([1 / 3, 1 / 3, 1 / 3]) == lx.NEUTRAL


def head_probabilities(head, s):
    tape = tg.Tape()
    logits = head.forward(tg.Tensor(np.asarray(s, dtype=float)[None], tape))
    return tg._softmax_rows(logits.data)[0]


class TestHead:
    def test_zero_parameters_give_uniform(self):
        head = md.ClassifierHead(4, np.random.default_rng(0))
        head.w_r.data[...] = 0.0
        probs = head_probabilities(head, np.ones(4))
        assert np.allclose(probs, 1 / 3, atol=1e-15)

    def test_bias_only_softmax_values(self):
        head = md.ClassifierHead(2, np.random.default_rng(0))
        head.w_r.data[...] = 0.0
        head.b_r.data[...] = [1.0, 2.0, 3.0]
        probs = head_probabilities(head, np.zeros(2))
        expected = [0.09003057317038046, 0.24472847105479767,
                    0.6652409557748219]
        assert np.allclose(probs, expected, atol=1e-15)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            z = int(rng.integers(1, 9))
            head = md.ClassifierHead(z, rng)
            probs = head_probabilities(head, rng.normal(size=z, scale=3.0))
            assert abs(probs.sum() - 1.0) < 1e-12
            assert (probs >= 0).all()

    def test_logit_shift_invariance(self):
        rng = np.random.default_rng(4)
        head = md.ClassifierHead(3, rng)
        s = rng.normal(size=3)
        base = head_probabilities(head, s)
        head.b_r.data += 17.5
        shifted = head_probabilities(head, s)
        assert np.allclose(base, shifted, atol=1e-12)

    def test_huge_inputs_stay_finite(self):
        head = md.ClassifierHead(3, np.random.default_rng(5))
        probs = head_probabilities(head, [1e6, -1e6, 1e6])
        assert np.isfinite(probs).all()
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_size_mismatch_rejected(self):
        embedder_rng = np.random.default_rng(6)
        cfg = enc.EncoderConfig("cnn", n=4, filters=3)
        vocab = enc.Vocab(["w"])
        embedder = enc.Embedder(vocab, n=4, m=2, polarity_dim=1,
                                rng=embedder_rng)
        encoder = enc.build_encoder(cfg, embedder.row_width, embedder_rng)
        head = md.ClassifierHead(encoder.z + 1, embedder_rng)
        with pytest.raises(ValueError):
            md.AttitudeModel(embedder, encoder, head)


class TestShouldStop:
    CFG = md.TrainConfig(max_epochs=150, eval_period=10, stop_threshold=0.85)

    def test_truth_table(self):
        assert md.should_stop(10, 0.90, self.CFG)
        assert md.should_stop(150, 0.30, self.CFG)
        assert not md.should_stop(20, 0.85, self.CFG)
        assert not md.should_stop(140, 0.0, self.CFG)
        assert md.should_stop(150, 0.86, self.CFG)

    def test_strictness_at_threshold(self):
        assert not md.should_stop(10, self.CFG.stop_threshold, self.CFG)
        assert md.should_stop(10, np.nextafter(self.CFG.stop_threshold, 1.0),
                              self.CFG)

    def test_monotone_in_f1_and_epoch(self):
        grid = [0.0, 0.5, 0.85, 0.86, 0.99]
        epochs = [10, 50, 100, 150, 200]
        for i, f1 in enumerate(grid[:-1]):
            for epoch in epochs:
                if md.should_stop(epoch, f1, self.CFG):
                    assert md.should_stop(epoch, grid[i + 1], self.CFG)
        for f1 in grid:
            for i, epoch in enumerate(epochs[:-1]):
                if md.should_stop(epoch, f1, self.CFG):
                    assert md.should_stop(epochs[i + 1], f1, self.CFG)


class TestTrainConfig:
    def test_defaults(self):
        cfg = md.TrainConfig()
        assert cfg.max_epochs == 150
        assert cfg.eval_period == 10
        assert cfg.stop_threshold == 0.85
        assert cfg.optimizer == "adam"

    def test_zero_threshold_allowed(self):
        assert md.TrainConfig(stop_threshold=0.0).stop_threshold == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(stop_threshold=1.0),
        dict(stop_threshold=-0.1),
        dict(max_epochs=-1),
        dict(eval_period=0),
        dict(max_epochs=155),
        dict(optimizer="rmsprop"),
        dict(batch_size=0),
        dict(neutral_ratio=0.0),
        dict(neutral_ratio=float("inf")),
        dict(neutral_ratio=float("nan")),
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            md.TrainConfig(**kwargs)


class TestOptimizers:
    def test_sgd_step(self):
        p = tg.Parameter(np.array([3.0, -2.0]), "p")
        p.grad[...] = [6.0, -4.0]
        md.Sgd(p, 0.1).step()
        assert np.allclose(p.data, [2.4, -1.6], atol=1e-15)

    def test_adam_first_step_is_signed_lr(self):
        p = tg.Parameter(np.array([0.0, 0.0]), "p")
        p.grad[...] = [1e4, -1e-4]
        md.Adam(p, 0.1).step()
        assert np.allclose(p.data, [-0.1, 0.1], atol=1e-3)

    def test_adam_minimizes_quadratic(self):
        p = tg.Parameter(np.array([5.0]), "p")
        opt = md.Adam(p, 0.2)
        for _ in range(300):
            p.grad[...] = 2.0 * p.data
            opt.step()
            p.zero_grad()
        assert abs(p.data[0]) < 1e-3


class TestAggregate:
    """opinion_labels groups context rows by opinion key."""

    def test_single_context(self):
        out = md.opinion_labels([KEY], np.array([[0.7, 0.1, 0.2]]))
        assert out == {KEY: lx.POSITIVE}

    def test_mean_tie_goes_neutral(self):
        # Each row alone has a unique argmax; their mean ties.
        rows = np.array([[0.6, 0.2, 0.2], [0.2, 0.6, 0.2]])
        assert md.opinion_labels([KEY] * 2, rows) == {KEY: lx.NEUTRAL}

    def test_majority_by_mean(self):
        rows = np.array([[0.1, 0.8, 0.1], [0.1, 0.7, 0.2], [0.5, 0.3, 0.2]])
        assert md.opinion_labels([KEY] * 3, rows) == {KEY: lx.NEGATIVE}
        # The mean decides, not the count of rows each label wins.
        rows = np.array([[0.4, 0.3, 0.3], [0.4, 0.3, 0.3], [0.0, 1.0, 0.0]])
        assert md.opinion_labels([KEY] * 3, rows) == {KEY: lx.NEGATIVE}

    def test_keys_stay_separate(self):
        keys = [("d", "a", "b"), ("d", "b", "a"), ("d", "a", "b")]
        rows = np.array([[0.9, 0.05, 0.05], [0.05, 0.9, 0.05],
                         [0.9, 0.05, 0.05]])
        assert md.opinion_labels(keys, rows) == {
            ("d", "a", "b"): lx.POSITIVE, ("d", "b", "a"): lx.NEGATIVE}

    def test_first_seen_key_order(self):
        keys = [("d2", "a", "b"), ("d1", "a", "b"), ("d2", "a", "b"),
                ("d0", "b", "a"), ("d1", "a", "b")]
        rows = np.full((len(keys), 3), 1 / 3)
        assert list(md.opinion_labels(keys, rows)) == [
            ("d2", "a", "b"), ("d1", "a", "b"), ("d0", "b", "a")]

    def test_no_contexts_no_labels(self):
        assert md.opinion_labels([], np.zeros((0, 3))) == {}

    def test_means_equal_per_key_numpy_means(self):
        # Each key gets the label of the per-key reference: np.mean over
        # that key's rows alone, then argmax with exact ties to neutral.
        # Rows of [0.4, 0.4, 0.2] make exact ties.
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            keys = [("d%d" % rng.integers(0, 3), "a",
                     "g%d" % rng.integers(0, 4)) for _ in range(n)]
            rows = rng.dirichlet(np.ones(3), size=n)
            rows[rng.random(n) < 0.2] = [0.4, 0.4, 0.2]
            got = md.opinion_labels(keys, rows)
            for key in set(keys):
                mean = np.mean([r for k, r in zip(keys, rows) if k == key],
                               axis=0)
                winners = np.flatnonzero(mean == mean.max())
                want = (lx.POLARITIES[winners[0]] if len(winners) == 1
                        else lx.NEUTRAL)
                assert got[key] == want


def brute_force_class_macro(keys, predicted, gold):
    """Independent macro-F1 from an explicit 3x3 confusion matrix."""
    index = {lab: i for i, lab in enumerate(lx.POLARITIES)}
    counts = np.zeros((3, 3), dtype=int)
    for key in keys:
        g = gold.get(key, lx.NEUTRAL)
        p = predicted.get(key, lx.NEUTRAL)
        counts[index[g], index[p]] += 1
    scores = []
    for cls in (lx.POSITIVE, lx.NEGATIVE):
        i = index[cls]
        tp = counts[i, i]
        fp = counts[:, i].sum() - tp
        fn = counts[i, :].sum() - tp
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        scores.append(f1)
    return sum(scores) / 2.0


def random_label_sets(rng, n_docs=4, max_keys=6):
    gold, predicted = {}, {}
    for d in range(n_docs):
        for k in range(int(rng.integers(1, max_keys + 1))):
            key = ("doc%d" % d, "s%d" % k, "t%d" % k)
            gold[key] = lx.POLARITIES[rng.integers(0, 3)]
            if rng.random() < 0.9:
                predicted[key] = lx.POLARITIES[rng.integers(0, 3)]
    return predicted, gold


class TestMacroF1:
    def test_perfect_predictions(self):
        gold = {("d", "a", "b"): lx.POSITIVE, ("d", "a", "c"): lx.NEGATIVE,
                ("d", "b", "c"): lx.NEUTRAL}
        assert md.macro_f1(dict(gold), gold) == 1.0
        assert md.macro_f1(dict(gold), gold, md.SCOPE_COLLECTION) == 1.0

    def test_hand_confusion(self):
        gold = {("d", "a", "b"): lx.POSITIVE, ("d", "a", "c"): lx.POSITIVE,
                ("d", "b", "a"): lx.NEUTRAL, ("d", "c", "a"): lx.NEGATIVE,
                ("d", "b", "c"): lx.NEGATIVE}
        predicted = {("d", "a", "b"): lx.POSITIVE,
                     ("d", "a", "c"): lx.NEUTRAL,
                     ("d", "b", "a"): lx.POSITIVE,
                     ("d", "c", "a"): lx.NEGATIVE,
                     ("d", "b", "c"): lx.NEGATIVE}
        for scope in md.SCOPES:
            assert md.macro_f1(predicted, gold, scope) == pytest.approx(0.75)

    def test_all_neutral_scores_zero(self):
        gold = {("d", "a", "b"): lx.POSITIVE, ("d", "a", "c"): lx.NEGATIVE}
        assert md.macro_f1({}, gold) == 0.0

    def test_missing_prediction_counts_as_neutral(self):
        gold = {("d", "a", "b"): lx.POSITIVE, ("d", "a", "c"): lx.NEGATIVE}
        explicit = {("d", "a", "b"): lx.POSITIVE,
                    ("d", "a", "c"): lx.NEUTRAL}
        implicit = {("d", "a", "b"): lx.POSITIVE}
        assert md.macro_f1(implicit, gold) == md.macro_f1(explicit, gold)

    def test_scopes_differ_on_skewed_documents(self):
        gold = {("d1", "a", "b"): lx.POSITIVE, ("d2", "a", "b"): lx.NEGATIVE}
        predicted = dict(gold)
        assert md.macro_f1(predicted, gold, md.SCOPE_COLLECTION) == 1.0
        assert md.macro_f1(predicted, gold, md.SCOPE_DOCUMENT) \
            == pytest.approx(0.5)

    def test_unknown_scope_rejected(self):
        with pytest.raises(ValueError):
            md.macro_f1({}, {("d", "a", "b"): lx.POSITIVE}, "micro")

    def test_collection_matches_confusion_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            predicted, gold = random_label_sets(rng)
            keys = sorted(set(predicted) | set(gold))
            expected = brute_force_class_macro(keys, predicted, gold)
            got = md.macro_f1(predicted, gold, md.SCOPE_COLLECTION)
            assert abs(got - expected) < 1e-12

    def test_document_scope_matches_per_doc_oracle(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            predicted, gold = random_label_sets(rng)
            keys = sorted(set(predicted) | set(gold))
            docs = sorted({k[0] for k in keys})
            expected = np.mean([
                brute_force_class_macro([k for k in keys if k[0] == d],
                                        predicted, gold)
                for d in docs])
            got = md.macro_f1(predicted, gold, md.SCOPE_DOCUMENT)
            assert abs(got - expected) < 1e-12


class TestPrepareSamples:
    def test_short_samples_untouched(self):
        samples = [sample_of("d", "good", lx.POSITIVE)]
        kept, dropped = md.prepare_samples(samples, 10)
        assert dropped == 0
        assert kept[0] is samples[0]

    def test_long_samples_cropped(self):
        terms = [tz.Term.word("w%d" % i) for i in range(12)]
        terms[3] = tz.Term.entity_subj()
        terms[5] = tz.Term.entity_obj()
        sample = cp.ContextSample("d", 0, tz.TermSequence(terms, 3, 5),
                                  lx.POSITIVE, "a", "b")
        kept, dropped = md.prepare_samples([sample], 7)
        assert dropped == 0
        assert len(kept[0].terms.terms) == 7
        assert kept[0].doc_id == "d" and kept[0].label == lx.POSITIVE
        inner = kept[0].terms
        assert inner.terms[inner.subj_pos].kind == tz.ENTITY_SUBJ

    def test_impossible_spans_dropped(self):
        terms = [tz.Term.entity_subj()] + \
            [tz.Term.word("w%d" % i) for i in range(8)] + \
            [tz.Term.entity_obj()]
        sample = cp.ContextSample("d", 0, tz.TermSequence(terms, 0, 9),
                                  lx.POSITIVE, "a", "b")
        kept, dropped = md.prepare_samples([sample], 5)
        assert kept == []
        assert dropped == 1


class TestDownsample:
    def test_caps_neutrals_preserving_order(self):
        samples = toy_samples(4)  # 16 sentiment, 4 neutral
        rng = np.random.default_rng(0)
        out = md.downsample_neutral(samples, 0.125, rng)
        assert sum(1 for s in out if s.label != lx.NEUTRAL) == 16
        assert sum(1 for s in out if s.label == lx.NEUTRAL) == 2
        it = iter(samples)
        for s in out:
            while next(it) is not s:
                pass

    def test_cap_value(self):
        samples = toy_samples(4)  # 16 sentiment, 4 neutral
        out = md.downsample_neutral(samples, 0.0625, np.random.default_rng(1))
        assert sum(1 for s in out if s.label == lx.NEUTRAL) == 1
        assert sum(1 for s in out if s.label != lx.NEUTRAL) == 16

    def test_under_cap_unchanged(self):
        samples = toy_samples(2)
        out = md.downsample_neutral(samples, 5.0, np.random.default_rng(2))
        assert out == samples

    def test_deterministic(self):
        samples = toy_samples(4)
        a = md.downsample_neutral(samples, 0.03125, np.random.default_rng(3))
        b = md.downsample_neutral(samples, 0.03125, np.random.default_rng(3))
        assert a == b


def snapshot(model):
    return {p.name: p.data.copy() for p in model.parameters()}


class TestTrain:
    def test_empty_samples_rejected(self):
        samples = toy_samples(1)
        model = toy_model(samples)
        with pytest.raises(ValueError):
            md.train(model, [], md.TrainConfig(), np.random.default_rng(0))

    def test_neutral_ratio_that_keeps_nothing_rejected(self):
        # With no sentiment sample the neutral cap is 0, so downsampling
        # leaves no batch to train on.
        samples = [s for s in toy_samples(2) if s.label == lx.NEUTRAL]
        model = toy_model(samples)
        before = snapshot(model)
        with pytest.raises(ValueError, match="neutral_ratio"):
            md.train(model, samples, md.TrainConfig(neutral_ratio=2.0),
                     np.random.default_rng(0))
        after = snapshot(model)
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_separable_toy_stops_early(self):
        samples = toy_samples()
        model = toy_model(samples)
        cfg = md.TrainConfig(max_epochs=100, eval_period=10,
                             stop_threshold=0.85, learning_rate=0.02,
                             batch_size=8, seed=1)
        history = md.train(model, samples, cfg,
                           np.random.default_rng(cfg.seed))
        epochs = history.epochs()
        assert epochs == list(range(10, epochs[-1] + 1, 10))
        assert epochs[-1] < 100
        assert history.final_f1() > 0.85

    def test_zero_threshold_stops_at_first_measurement(self):
        samples = toy_samples()
        model = toy_model(samples, seed=2)
        cfg = md.TrainConfig(max_epochs=100, eval_period=10,
                             stop_threshold=0.0, learning_rate=0.02,
                             batch_size=8, seed=2)
        history = md.train(model, samples, cfg,
                           np.random.default_rng(cfg.seed))
        assert history.epochs() == [10]

    def test_zero_epochs_touches_nothing(self):
        samples = toy_samples(1)
        model = toy_model(samples, seed=3)
        before = snapshot(model)
        history = md.train(model, samples, md.TrainConfig(max_epochs=0),
                           np.random.default_rng(0))
        assert history.rows == []
        after = snapshot(model)
        assert all(np.array_equal(before[k], after[k]) for k in before)

    def test_histories_bitwise_deterministic(self):
        samples = toy_samples(2)
        cfg = md.TrainConfig(max_epochs=20, eval_period=10,
                             stop_threshold=0.99, learning_rate=0.01,
                             batch_size=4, seed=5)
        runs = []
        for _ in range(2):
            model = toy_model(samples, seed=4)
            history = md.train(model, samples, cfg,
                               np.random.default_rng(cfg.seed))
            runs.append((history.rows, snapshot(model)))
        assert runs[0][0] == runs[1][0]
        assert all(np.array_equal(runs[0][1][k], runs[1][1][k])
                   for k in runs[0][1])

    def test_non_finite_loss_raises(self):
        samples = toy_samples(1)
        model = toy_model(samples, seed=6)
        model.head.w_r.data[...] = np.nan
        cfg = md.TrainConfig(max_epochs=10, eval_period=10)
        with pytest.raises(NumericError, match="epoch 1"):
            md.train(model, samples, cfg, np.random.default_rng(cfg.seed))

    def test_non_finite_parameter_named_at_its_step(self):
        # An infinite step leaves the loss of its own batch finite, so the
        # step itself must be caught, naming the parameter and the epoch.
        samples = toy_samples(1)
        model = toy_model(samples, seed=6)
        cfg = md.TrainConfig(max_epochs=10, eval_period=10, optimizer="sgd",
                             learning_rate=np.inf)
        with pytest.raises(NumericError,
                           match="parameter 'emb.word' .*epoch 1$"), \
                np.errstate(invalid="ignore"):
            md.train(model, samples, cfg, np.random.default_rng(cfg.seed))

    def test_sgd_also_learns(self):
        samples = toy_samples(2)
        model = toy_model(samples, seed=7)
        cfg = md.TrainConfig(max_epochs=40, eval_period=10,
                             stop_threshold=0.85, optimizer="sgd",
                             learning_rate=0.5, batch_size=4, seed=7)
        history = md.train(model, samples, cfg,
                           np.random.default_rng(cfg.seed))
        assert history.rows
        assert history.rows[-1][2] < history.rows[0][2] or \
            history.final_f1() > 0.85

    def test_history_csv_format(self, tmp_path):
        history = md.RunHistory(10)
        history.add(10, 0.5, 1.25)
        history.add(20, 0.875, 0.5)
        path = tmp_path / "history.csv"
        history.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,train_f1,loss"
        assert lines[1] == "10,0.5,1.25"
        assert lines[2] == "20,0.875,0.5"

    def test_history_rejects_off_schedule_epoch(self):
        history = md.RunHistory(10)
        with pytest.raises(ValueError):
            history.add(15, 0.5, 1.0)


def tiny_corpus(n_docs=3):
    docs = []
    opinions = {}
    for d in range(n_docs):
        doc_id = "doc%d" % d
        sentences = [cp.Sentence(["e1", "любит", "e2"]),
                     cp.Sentence(["e1", "ненавидит", "e3"])]
        mentions = [cp.EntityMention(0, (0, 1), "g1"),
                    cp.EntityMention(0, (2, 3), "g2"),
                    cp.EntityMention(1, (0, 1), "g1"),
                    cp.EntityMention(1, (2, 3), "g3")]
        groups = [cp.SynonymGroup("g1", ["e1"]),
                  cp.SynonymGroup("g2", ["e2"]),
                  cp.SynonymGroup("g3", ["e3"])]
        docs.append(cp.Document(doc_id, sentences, mentions, groups))
        opinions[doc_id] = [cp.Opinion("g1", "g2", lx.POSITIVE),
                            cp.Opinion("g1", "g3", lx.NEGATIVE)]
    return cp.Corpus(docs, opinions)


CHEAP_ENCODER = enc.EncoderConfig("cnn", n=8, h=4, filters=4, window=1, k=3)
CHEAP_EMBED = {"m": 4, "polarity_dim": 1, "use_position": True,
               "position_dim": 2}


def cheap_train_cfg(seed=9):
    return md.TrainConfig(max_epochs=20, eval_period=10, stop_threshold=0.99,
                          learning_rate=0.02, batch_size=4, seed=seed)


class TestRunners:
    def test_run_cv_shape_and_range(self):
        corpus = tiny_corpus()
        result = md.run_cv(corpus, CHEAP_ENCODER, cheap_train_cfg(),
                           embed_options=CHEAP_EMBED, k=3)
        assert len(result.per_fold) == 3
        assert all(0.0 <= f1 <= 1.0 for f1 in result.per_fold)
        assert result.mean == pytest.approx(np.mean(result.per_fold))
        assert len(result.histories) == 3
        assert all(h.rows for h in result.histories)

    def test_run_cv_bitwise_deterministic(self, tmp_path):
        corpus = tiny_corpus()
        csvs = []
        for run in range(2):
            result = md.run_cv(corpus, CHEAP_ENCODER, cheap_train_cfg(),
                               embed_options=CHEAP_EMBED, k=3)
            path = tmp_path / ("run%d.csv" % run)
            result.to_csv(path)
            csvs.append(path.read_bytes())
        assert csvs[0] == csvs[1]

    def test_run_cv_extracts_each_document_once(self, monkeypatch):
        corpus = tiny_corpus(5)
        calls = []
        extract = cp.extract_contexts

        def counted(doc, *args):
            calls.append(doc.doc_id)
            return extract(doc, *args)

        monkeypatch.setattr(cp, "extract_contexts", counted)
        md.run_cv(corpus, CHEAP_ENCODER, cheap_train_cfg(),
                  embed_options=CHEAP_EMBED, k=3)
        assert sorted(calls) == sorted(d.doc_id for d in corpus.documents)

    @staticmethod
    def recorded_splits(monkeypatch):
        """Record what md._split_sides gives; returns the list that gets,
        per split, its (train samples, test samples, gold). The sides are
        built in the calling process, before any split is trained."""
        seen = []
        split_sides = md._split_sides

        def recorded(*args):
            sides = split_sides(*args)
            seen.extend(sides)
            return sides

        monkeypatch.setattr(md, "_split_sides", recorded)
        return seen

    @staticmethod
    def assert_sides_extracted_apart(corpus, sides, split):
        """split's (train, test, gold, dropped) equal what each side of
        the documents gives on its own."""
        def fields(samples):
            return [(s.doc_id, s.sentence_idx, s.label, s.source_group,
                     s.target_group, s.terms.terms, s.terms.subj_pos,
                     s.terms.obj_pos)
                    for s in samples]

        train, test, gold, dropped = split
        want_train, train_dropped = md.samples_for_docs(
            sides[0], corpus, None, CHEAP_ENCODER.n, tz.lemmatize)
        want_test, test_dropped = md.samples_for_docs(
            sides[1], corpus, None, CHEAP_ENCODER.n, tz.lemmatize)
        want_gold = md.opinion_gold(sides[1], corpus)
        assert test and fields(train) == fields(want_train)
        assert fields(test) == fields(want_test)
        assert list(gold.items()) == list(want_gold.items())
        assert dropped == train_dropped + test_dropped

    def test_run_cv_folds_match_per_fold_extraction(self, monkeypatch):
        corpus = tiny_corpus(5)
        seen = self.recorded_splits(monkeypatch)
        result = md.run_cv(corpus, CHEAP_ENCODER, cheap_train_cfg(), k=3)
        assert len(seen) == 3
        for fold, (train, test, gold) in enumerate(seen):
            assert result.splits[fold].test_samples is test
            sides = [[d for d in corpus.documents
                      if (result.folds.fold_of_doc[d.doc_id] == fold) == held]
                     for held in (False, True)]
            self.assert_sides_extracted_apart(
                corpus, sides,
                (train, test, gold, result.splits[fold].dropped))

    def test_run_train_test_sides_match_per_side_extraction(
            self, monkeypatch):
        corpus = tiny_corpus(5)
        manifest = {"doc0": "train", "doc1": "test", "doc2": "train",
                    "doc3": "test", "doc4": "train"}
        seen = self.recorded_splits(monkeypatch)
        result = md.run_train_test(corpus, manifest, CHEAP_ENCODER,
                                   cheap_train_cfg())
        assert len(seen) == 1
        train, test, gold = seen[0]
        assert result.test_samples is test
        sides = [[d for d in corpus.documents if manifest[d.doc_id] == side]
                 for side in ("train", "test")]
        self.assert_sides_extracted_apart(
            corpus, sides, (train, test, gold, result.dropped))

    def test_cv_csv_format(self, tmp_path):
        result = md.CvResult([md.SplitResult(f1, None, None, None, 0)
                              for f1 in (0.5, 0.75, 1.0)], None)
        path = tmp_path / "folds.csv"
        result.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines == ["fold,f1", "0,0.5", "1,0.75", "2,1.0"]

    def test_run_train_test(self):
        corpus = tiny_corpus()
        manifest = {"doc0": "train", "doc1": "train", "doc2": "test"}
        result = md.run_train_test(corpus, manifest, CHEAP_ENCODER,
                                   cheap_train_cfg(),
                                   embed_options=CHEAP_EMBED)
        assert 0.0 <= result.f1 <= 1.0
        assert result.history.rows
        assert result.test_samples

    def test_split_with_nothing_to_train_on_is_data_error(self,
                                                          monkeypatch):
        # Only doc0 yields contexts, so the fold holding it out has none
        # to train on: refused before any split trains or forks.
        lone = tiny_corpus(1)
        empty = [cp.Document("doc%d" % d, [cp.Sentence(["e1", "любит"])],
                             [], []) for d in (1, 2)]
        corpus = cp.Corpus(lone.documents + empty, lone.opinions_by_doc)
        usable_cpus(monkeypatch, 3)
        forks = counted_forks(monkeypatch)
        trained = []
        monkeypatch.setattr(md, "train", lambda *args: trained.append(args))
        with pytest.raises(DataError, match=r"^split \d has no training "
                                            r"context$"):
            md.run_cv(corpus, CHEAP_ENCODER, cheap_train_cfg(), k=3)
        assert forks == [] and trained == []

    def test_gold_includes_augmented_neutrals(self):
        corpus = tiny_corpus(1)
        gold = md.opinion_gold(corpus.documents, corpus)
        assert gold[("doc0", "g1", "g2")] == lx.POSITIVE
        assert gold[("doc0", "g1", "g3")] == lx.NEGATIVE
        assert gold[("doc0", "g2", "g1")] == lx.NEUTRAL
        assert gold[("doc0", "g3", "g1")] == lx.NEUTRAL


def usable_cpus(monkeypatch, count):
    """Make os.sched_getaffinity report `count` usable CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(count)))


def counted_forks(monkeypatch):
    """Count os.fork calls made by this process; returns the count list."""
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def assert_no_child_left():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitProcesses:
    """Splits run in min(k, 2c - 1) processes on c usable CPUs with the
    outcomes of one process."""

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_process_count_rule(self, monkeypatch, cpus):
        usable_cpus(monkeypatch, cpus)
        for k in range(1, 8):
            pids = md._in_processes(lambda split: os.getpid(), k)
            count = min(k, 2 * cpus - 1)
            assert len(set(pids)) == count
            assert pids[0] == os.getpid()
            assert pids == [pids[split % count] for split in range(k)]
        assert_no_child_left()

    @pytest.mark.parametrize("kind", ["att-blstm", "pcnn"])
    def test_same_results_at_any_process_count(self, monkeypatch, kind):
        corpus = tiny_corpus(5)
        encoder = enc.EncoderConfig(kind, n=8, h=4, filters=4, window=1, k=3)
        forks = counted_forks(monkeypatch)
        extract = md.samples_for_docs
        runs = []
        for cpus, forked in ((1, 0), (2, 2), (3, 2)):
            usable_cpus(monkeypatch, cpus)
            extracted = []
            monkeypatch.setattr(md, "samples_for_docs", lambda *args: (
                extracted.append(extract(*args)) or extracted[-1]))
            result = md.run_cv(corpus, encoder, cheap_train_cfg(),
                               embed_options=CHEAP_EMBED, k=3)
            kept = {id(s) for s in extracted[0][0]}
            for split in result.splits:
                assert split.test_samples
                assert all(id(s) in kept for s in split.test_samples)
            runs.append(result)
            assert len(forks) == forked
            forks.clear()
        for run in runs[1:]:
            fold_of_doc = run.folds.fold_of_doc
            for split, (one, other) in enumerate(zip(runs[0].splits,
                                                     run.splits)):
                assert one.model.flat.data.tobytes() == \
                    other.model.flat.data.tobytes()
                assert one.history.rows == other.history.rows
                assert repr(one.f1) == repr(other.f1)
                # Each model, trained in this process or pickled back by a
                # forked one, has its parameters as views into its own
                # buffer, and scores its held-out contexts as the
                # one-process run's did.
                assert all(np.shares_memory(p.data, other.model.flat.data)
                           for p in other.model.parameters())
                assert md.infer(one.model, one.test_samples)[0].tobytes() \
                    == md.infer(other.model, other.test_samples)[0].tobytes()
                gold = md.opinion_gold(
                    [d for d in corpus.documents
                     if fold_of_doc[d.doc_id] == split], corpus)
                assert md.evaluate_on_samples(other.model, other.test_samples,
                                              gold) == other.f1
        assert_no_child_left()

    @pytest.mark.parametrize("failing", [(1, 2), (2,)])
    def test_failed_fork_runs_its_splits_here(self, monkeypatch, failing):
        """When os.fork raises on its `failing` calls, the splits of those
        processes train in this one, with the one-process run's outcomes,
        and no pipe or process is left behind."""
        corpus = tiny_corpus(5)
        fork, runs = os.fork, []
        for cpus in (1, 3):
            usable_cpus(monkeypatch, cpus)
            calls = []

            def flaky():
                calls.append(1)
                if len(calls) in failing:
                    raise BlockingIOError(errno.EAGAIN, "no process to spare")
                return fork()

            monkeypatch.setattr(os, "fork", flaky)
            fds = len(os.listdir("/proc/self/fd"))
            runs.append(md.run_cv(corpus, CHEAP_ENCODER, cheap_train_cfg(),
                                  embed_options=CHEAP_EMBED, k=3))
            assert len(os.listdir("/proc/self/fd")) == fds
            assert len(calls) == (0 if cpus == 1 else 2)
        for one, other in zip(runs[0].splits, runs[1].splits):
            assert one.model.flat.data.tobytes() == \
                other.model.flat.data.tobytes()
            assert one.history.rows == other.history.rows
            assert repr(one.f1) == repr(other.f1)
        assert_no_child_left()

    def test_run_train_test_never_forks(self, monkeypatch):
        usable_cpus(monkeypatch, 3)
        forks = counted_forks(monkeypatch)
        manifest = {"doc0": "train", "doc1": "train", "doc2": "test"}
        result = md.run_train_test(tiny_corpus(), manifest, CHEAP_ENCODER,
                                   cheap_train_cfg(),
                                   embed_options=CHEAP_EMBED)
        assert result.history.rows
        assert forks == []

    def test_numeric_failure_is_the_one_process_error(self, monkeypatch):
        corpus = tiny_corpus(5)
        cfg = md.TrainConfig(max_epochs=20, eval_period=10,
                             learning_rate=float("inf"), optimizer="sgd",
                             batch_size=4, seed=9)
        messages = []
        for cpus in (1, 3):
            usable_cpus(monkeypatch, cpus)
            with pytest.raises(NumericError) as failure:
                md.run_cv(corpus, CHEAP_ENCODER, cfg,
                          embed_options=CHEAP_EMBED, k=3)
            messages.append(str(failure.value))
        assert messages[0] == messages[1]
        assert "not finite" in messages[0]
        assert_no_child_left()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_first_failed_split_raises(self, monkeypatch, cpus):
        """Splits 1 and 2 fail. On 1 CPU both run in this process; on 2
        and 3 CPUs, three processes run one split each, so both fail in
        forked processes. Each run raises split 1's error, as one process
        does."""
        fit = md.fit

        def failing(train_samples, encoder_cfg, train_cfg, embed_options,
                    split):
            if split:
                raise NumericError("split %d failed" % split)
            return fit(train_samples, encoder_cfg, train_cfg,
                       embed_options, split)

        monkeypatch.setattr(md, "fit", failing)
        usable_cpus(monkeypatch, cpus)
        with pytest.raises(NumericError, match="^split 1 failed$"):
            md.run_cv(tiny_corpus(5), CHEAP_ENCODER, cheap_train_cfg(),
                      embed_options=CHEAP_EMBED, k=3)
        assert_no_child_left()

    @pytest.mark.parametrize("lost", [None, 1, 2])
    def test_first_failure_beside_a_failed_fork(self, monkeypatch, lost):
        """At 2 CPUs and k = 4, P = 3: this process runs splits 0 and 3,
        and if process `lost` cannot be forked, its split too, in split
        order. Splits 1 to 3 fail, some here, some in forked processes,
        and this process stops at its first failed split. Each run raises
        split 1's error and leaves no child."""
        usable_cpus(monkeypatch, 2)
        fork, caller, calls = os.fork, os.getpid(), []

        def flaky():
            calls.append(1)
            if len(calls) == lost:
                raise BlockingIOError(errno.EAGAIN, "no process to spare")
            return fork()

        monkeypatch.setattr(os, "fork", flaky)
        here = [split for split in range(4) if split % 3 in (0, lost)]
        pids = md._in_processes(lambda split: os.getpid(), 4)
        assert [s for s in range(4) if pids[s] == caller] == here
        assert len(set(pids)) == (3 if lost is None else 2)
        ran = []

        def run(split):
            ran.append(split)  # holds only the splits run in this process
            if split:
                raise ValueError("split %d failed" % split)
            return split

        calls.clear()
        with pytest.raises(ValueError, match="^split 1 failed$"):
            md._in_processes(run, 4)
        assert ran == here[:2]
        assert_no_child_left()

    @staticmethod
    def failing_in_process(monkeypatch, split, failure):
        """Patch fit so that `split`, run in a forked process, calls
        failure(); every other split trains."""
        caller, fit = os.getpid(), md.fit

        def failing(train_samples, encoder_cfg, train_cfg, embed_options,
                    at):
            if at == split and os.getpid() != caller:
                failure()
            return fit(train_samples, encoder_cfg, train_cfg,
                       embed_options, at)

        monkeypatch.setattr(md, "fit", failing)

    def test_killed_process_names_its_split(self, monkeypatch):
        self.failing_in_process(
            monkeypatch, 1, lambda: os.kill(os.getpid(), signal.SIGKILL))
        usable_cpus(monkeypatch, 3)
        with pytest.raises(RuntimeError, match="^the process of split 1 "
                           "exited with code -9$"):
            md.run_cv(tiny_corpus(5), CHEAP_ENCODER, cheap_train_cfg(),
                      embed_options=CHEAP_EMBED, k=3)
        assert_no_child_left()

    def test_unpicklable_error_names_its_split(self, monkeypatch):
        class Local(Exception):  # pickle cannot find a local class
            pass

        def failure():
            raise Local("split 2")

        self.failing_in_process(monkeypatch, 2, failure)
        usable_cpus(monkeypatch, 3)
        with pytest.raises(RuntimeError, match="^the process of split 2 "
                           "exited with code 1$"):
            md.run_cv(tiny_corpus(5), CHEAP_ENCODER, cheap_train_cfg(),
                      embed_options=CHEAP_EMBED, k=3)
        assert_no_child_left()

    def test_interrupted_caller_ends_every_process(self, monkeypatch):
        """The caller's own split is interrupted while another process
        still trains: that process is ended and reaped at once."""
        caller = os.getpid()

        def slow(*args):
            if os.getpid() == caller:
                raise KeyboardInterrupt
            time.sleep(20)

        monkeypatch.setattr(md, "fit", slow)
        usable_cpus(monkeypatch, 2)
        start = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            md.run_cv(tiny_corpus(5), CHEAP_ENCODER, cheap_train_cfg(),
                      embed_options=CHEAP_EMBED, k=3)
        assert time.perf_counter() - start < 10
        assert_no_child_left()

    def test_buffered_output_is_written_once(self):
        """What the caller has buffered for its stdout before the fork is
        written by the caller alone."""
        code = ("import os; os.sched_getaffinity = lambda pid: {0, 1, 2}; "
                "from attex import model as md; print('before'); "
                "print(md._in_processes(lambda split: split, 3))")
        env = dict(os.environ, PYTHONPATH=os.path.dirname(
            os.path.dirname(os.path.abspath(md.__file__))))
        env.pop("PYTHONUNBUFFERED", None)  # stdout, a pipe, is buffered
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (done.returncode, done.stdout) == (0, "before\n[0, 1, 2]\n")

    def test_daemonic_caller_runs_in_processes(self, monkeypatch):
        """A daemonic multiprocessing process, which multiprocessing lets
        start no process of its own, still runs the splits in processes."""
        usable_cpus(monkeypatch, 3)
        receive, send = multiprocessing.Pipe(duplex=False)

        def caller():
            try:
                send.send((md._in_processes(lambda split: (split, os.getpid()),
                                            3), os.getpid()))
            except Exception as exc:
                send.send(repr(exc))

        process = multiprocessing.get_context("fork").Process(
            target=caller, daemon=True)
        process.start()
        send.close()
        sent = receive.recv()
        assert not isinstance(sent, str), sent
        results, pid = sent
        assert [split for split, _ in results] == [0, 1, 2]
        assert [ran == pid for _, ran in results] == [True, False, False]
        process.join()
        receive.close()
        assert_no_child_left()


class TestGradientSuite:
    def test_all_kinds_within_tolerance(self):
        worst = md.gradient_suite(trials=2, seed=0)
        assert set(worst) == set(enc.ENCODER_KINDS)
        for kind, err in worst.items():
            assert err < 1e-4, "%s gradient error %g" % (kind, err)
