"""End-to-end acceptance checks of the package's headline guarantees.

Each test prints exactly one summary line (PASS or FAIL with the
measured numbers); run pytest with -s to see the lines for passing
tests. The slow tests in this file train real models on the synthetic
benchmark corpus from synth.py and take several minutes combined.
"""

import functools
import itertools
import os
import time

import numpy as np
import pytest

import synth
from attex import analysis as an
from attex import corpus as cp
from attex import encoders as en
from attex import lexicons as lx
from attex import model as md
from attex import tensorgrad as tg
from attex import termizer as tz
from test_encoders import manual_ctx

ATTENTIVE_KINDS = ("att-blstm", "att-blstm-zyang", "att-cnn", "ian")


def report(name, ok, detail):
    print("ACCEPTANCE %-22s %s  %s" % (name, "PASS" if ok else "FAIL", detail))
    assert ok, "%s: %s" % (name, detail)


@functools.lru_cache(maxsize=None)
def _benchmark_corpus():
    return synth.build_corpus(seed=0)


def _corpus_vocab_size(corpus):
    lemmas = {tz.lemmatize(token)
              for doc in corpus.documents
              for sentence in doc.sentences
              for token in sentence.tokens}
    return len(lemmas)


def test_gradient_suite_all_encoders():
    t0 = time.time()
    worst = md.gradient_suite(trials=20, seed=0, n_max=10, h_max=8,
                              filters_max=6)
    elapsed = time.time() - t0
    peak = max(worst.values())
    ok = (sorted(worst) == sorted(en.ENCODER_KINDS)
          and peak < 1e-4 and elapsed < 120.0)
    report("gradient-suite", ok,
           "kinds=%d max_rel_err=%.3g time=%.1fs (budget 120s)"
           % (len(worst), peak, elapsed))


def _pooling_mismatches(trials=1000):
    """Exact-match check of the participant-delimited pooling: both sides
    see the same convolution values; the brute-force side recomputes the
    segmentation and per-segment max from scratch."""
    rng = np.random.default_rng(21)
    bad = 0
    for _ in range(trials):
        n_real = int(rng.integers(2, 11))
        n = n_real + int(rng.integers(0, 3))
        width = int(rng.integers(1, 5))
        filters = int(rng.integers(1, 5))
        cfg = en.EncoderConfig("pcnn", n=n, h=2, filters=filters,
                               window=int(rng.integers(1, 4)), k=3,
                               feature_mode="att-ends")
        encoder = en.PcnnEncoder(cfg, width, rng)
        rows = rng.normal(0.0, 1.0, (n_real, width))
        subj, obj = (int(v) for v in rng.choice(n_real, 2, replace=False))
        tape = tg.Tape()
        ctx = manual_ctx(tape, rows, subj, obj, n=n)
        got = encoder.encode(tape, ctx).s.data
        conv = tg.conv1d(ctx.x, encoder.w, encoder.b).data
        p1, p2 = sorted((subj, obj))
        blocks = []
        for start, end in ((0, p1 + 1), (p1 + 1, p2 + 1), (p2 + 1, n_real)):
            if end > start:
                blocks.append(conv[start:end].max(axis=0))
            else:
                blocks.append(np.zeros(filters))
        if not np.array_equal(got, np.concatenate(blocks)):
            bad += 1
    return bad


def _f1_from_counts(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _oracle_class_macro(keys, predicted, gold):
    scores = []
    for cls in (lx.POSITIVE, lx.NEGATIVE):
        tp = fp = fn = 0
        for key in keys:
            p = predicted.get(key, lx.NEUTRAL)
            g = gold.get(key, lx.NEUTRAL)
            if p == cls and g == cls:
                tp += 1
            elif p == cls:
                fp += 1
            elif g == cls:
                fn += 1
        scores.append(_f1_from_counts(tp, fp, fn))
    return sum(scores) / len(scores)


def _oracle_macro_f1(predicted, gold, scope):
    keys = sorted(set(predicted) | set(gold))
    if not keys:
        return 0.0
    if scope == md.SCOPE_COLLECTION:
        return _oracle_class_macro(keys, predicted, gold)
    per_doc = {}
    for key in keys:
        per_doc.setdefault(key[0], []).append(key)
    values = [_oracle_class_macro(doc_keys, predicted, gold)
              for _, doc_keys in sorted(per_doc.items())]
    return sum(values) / len(values)


def _macro_f1_worst_delta(trials=200):
    labels = (lx.POSITIVE, lx.NEGATIVE, lx.NEUTRAL)
    rng = np.random.default_rng(22)
    worst = 0.0
    for trial in range(trials):
        keys = set()
        for doc in range(int(rng.integers(1, 6))):
            for _ in range(int(rng.integers(1, 8))):
                keys.add(("doc%d" % doc,
                          "g%d" % int(rng.integers(0, 4)),
                          "g%d" % int(rng.integers(0, 4))))
        keys = sorted(keys)
        gold = {k: labels[int(rng.integers(0, 3))]
                for k in keys if rng.random() < 0.9}
        predicted = {k: labels[int(rng.integers(0, 3))]
                     for k in keys if rng.random() < 0.8}
        scope = md.SCOPE_DOCUMENT if trial % 2 == 0 else md.SCOPE_COLLECTION
        got = md.macro_f1(predicted, gold, scope)
        want = _oracle_macro_f1(predicted, gold, scope)
        worst = max(worst, abs(got - want))
    return worst


_MATCH_ENTRIES = (
    lx.FrameEntry(("a",), lx.POSITIVE),
    lx.FrameEntry(("a", "b"), lx.NEGATIVE),
    lx.FrameEntry(("b", "c"), lx.POSITIVE),
    lx.FrameEntry(("b", "c", "a"), lx.NEGATIVE),
    lx.FrameEntry(("c", "c"), lx.NEUTRAL),
)


def _oracle_matches(lemmas, entries):
    """Enumerate every entry occurrence, then keep the leftmost-longest
    non-overlapping subset."""
    found = []
    for start in range(len(lemmas)):
        for entry in entries:
            width = len(entry.lemmas)
            if tuple(lemmas[start:start + width]) == entry.lemmas:
                found.append((start, start + width, entry.polarity))
    found.sort(key=lambda m: (m[0], m[0] - m[1]))
    chosen = []
    cursor = 0
    for start, end, polarity in found:
        if start >= cursor:
            chosen.append(((start, end), polarity))
            cursor = end
    return chosen


def _matching_mismatches(max_len=8):
    lexicon = lx.FrameLexicon(_MATCH_ENTRIES)
    alphabet = ("a", "b", "c", "d")
    bad = 0
    total = 0
    for length in range(0, max_len + 1):
        for seq in itertools.product(alphabet, repeat=length):
            total += 1
            if lx.match_frames(list(seq), lexicon) != \
                    _oracle_matches(seq, _MATCH_ENTRIES):
                bad += 1
    return bad, total


def test_oracle_equivalence():
    pool_bad = _pooling_mismatches(1000)
    f1_delta = _macro_f1_worst_delta(200)
    match_bad, match_total = _matching_mismatches(8)
    ok = pool_bad == 0 and f1_delta < 1e-12 and match_bad == 0
    report("oracle-equivalence", ok,
           "pooling_mismatch=%d/1000 f1_max_delta=%.2e "
           "matching_mismatch=%d/%d"
           % (pool_bad, f1_delta, match_bad, match_total))


def _random_attentive_pass(rng, kind):
    n_real = int(rng.integers(2, 9))
    n = min(10, n_real + int(rng.integers(0, 3)))
    words = ["good", "bad", "in", "on", "w0", "w1", "w2"]
    terms = []
    for i in range(n_real):
        draw = rng.random()
        if draw < 0.25:
            terms.append(tz.Term.frame("f%d" % i,
                                       str(rng.choice(lx.POLARITIES))))
        elif draw < 0.35:
            terms.append(tz.Term.token(tz.PUNCTUATION))
        else:
            terms.append(tz.Term.word(words[int(rng.integers(len(words)))]))
    subj, obj = (int(v) for v in rng.choice(n_real, 2, replace=False))
    terms[subj] = tz.Term.entity_subj()
    terms[obj] = tz.Term.entity_obj()
    seq = tz.TermSequence(terms, subj, obj)
    cfg = en.EncoderConfig(kind, n=n, h=int(rng.integers(1, 4)),
                           filters=int(rng.integers(2, 4)),
                           window=int(rng.integers(1, 4)), k=3,
                           feature_mode=str(rng.choice(en.FEATURE_MODES)))
    sample = cp.ContextSample("d", 0, seq, lx.NEUTRAL, "a", "b")
    model = md.build_model(en.build_vocab([sample]), cfg,
                           {"m": 2, "polarity_dim": 2,
                            "use_position": en.default_use_position(kind),
                            "position_dim": 1},
                           rng=rng)
    probs, out = model.forward(tg.Tape(), seq)
    return probs.data, np.asarray(out.alpha, dtype=float), seq, n, n_real


def test_attention_normalization_invariants():
    sent = lx.SentimentLexicon(["good", "bad"])
    preps = lx.PrepositionList(["in", "on"])
    rng = np.random.default_rng(23)
    passes = 1000
    alpha_worst = 0.0
    rho_worst = 0.0
    violations = 0
    for i in range(passes):
        kind = ATTENTIVE_KINDS[i % len(ATTENTIVE_KINDS)]
        probs, alpha, seq, n, n_real = _random_attentive_pass(rng, kind)
        rho_worst = max(rho_worst, abs(float(probs.sum()) - 1.0))
        alpha_worst = max(alpha_worst, abs(float(alpha[:n_real].sum()) - 1.0))
        groups = [an.context_group_weight(alpha[:n_real], seq.terms, group,
                                          sent, preps)
                  for group in tz.ANALYSIS_GROUPS]
        if (len(alpha) != n or (alpha[:n_real] < 0.0).any()
                or (alpha[n_real:] != 0.0).any()
                or abs(sum(groups) - float(alpha[:n_real].sum())) > 1e-12):
            violations += 1
    ok = violations == 0 and alpha_worst < 1e-9 and rho_worst <= 1e-12
    report("attention-invariants", ok,
           "passes=%d violations=%d max|sum(alpha)-1|=%.2e "
           "max|sum(rho)-1|=%.2e" % (passes, violations, alpha_worst,
                                     rho_worst))


@pytest.mark.slow
def test_synthetic_attitude_benchmark():
    corpus = _benchmark_corpus()
    vocab_size = _corpus_vocab_size(corpus)
    flex = synth.frame_lexicon()
    t0 = time.time()
    att = md.run_cv(corpus, synth.encoder_config("att-blstm"),
                    synth.train_config(0), frame_lexicon=flex,
                    embed_options=synth.embed_options(), k=3)
    plain = md.run_cv(corpus, synth.encoder_config("bilstm"),
                      synth.train_config(0), frame_lexicon=flex,
                      embed_options=synth.embed_options(), k=3)
    elapsed = time.time() - t0
    within_cap = all(h.epochs()[-1] <= 150
                     for h in att.histories + plain.histories)
    ok = (len(corpus.documents) == 60 and 150 <= vocab_size <= 260
          and att.mean >= 0.90 and plain.mean >= 0.75
          and att.mean >= plain.mean and within_cap and elapsed < 600.0)
    report("synthetic-benchmark", ok,
           "docs=%d vocab=%d att_blstm=%.4f bilstm=%.4f time=%.0fs "
           "(budget 600s)" % (len(corpus.documents), vocab_size, att.mean,
                              plain.mean, elapsed))


@pytest.mark.slow
def test_attention_group_discrepancy():
    corpus = _benchmark_corpus()
    manifest = {doc.doc_id: ("train" if i % 3 else "test")
                for i, doc in enumerate(corpus.documents)}
    res = md.run_train_test(corpus, manifest,
                            synth.encoder_config("att-blstm"),
                            synth.train_config(0),
                            frame_lexicon=synth.frame_lexicon(),
                            embed_options=synth.embed_options())
    summaries = an.summarize_distributions(
        res.model, res.test_samples,
        sentiment_lexicon=synth.sentiment_lexicon(),
        preposition_list=synth.preposition_list())
    frames = next(s for s in summaries if s.group == tz.GROUP_FRAMES)
    gap = frames.mean_s - frames.mean_n
    ok = gap >= 0.10
    report("attention-discrepancy", ok,
           "FRAMES mean_S=%.3f (%d ctx) mean_N=%.3f (%d ctx) gap=%.3f "
           "(need >= 0.10) test_f1=%.3f"
           % (frames.mean_s, frames.s_count, frames.mean_n, frames.n_count,
              gap, res.f1))


def _head_to_head_samples():
    """Identical term sequences with disagreeing labels: train F1 cannot
    exceed 1/3, so the epoch cap is always reached."""
    samples = []
    for d in range(4):
        for label, target in ((lx.POSITIVE, "b"), (lx.NEGATIVE, "c")):
            seq = tz.TermSequence([tz.Term.entity_subj(), tz.Term.word("w"),
                                   tz.Term.entity_obj()], 0, 2)
            samples.append(cp.ContextSample("doc%d" % d, 0, seq, label,
                                            "a", target))
    return samples


def _separable_samples():
    """Label equals the planted frame polarity, which is an input
    feature, so training crosses the stop threshold early."""
    samples = []
    for d in range(4):
        for label, target in ((lx.POSITIVE, "b"), (lx.NEGATIVE, "c")):
            seq = tz.TermSequence([tz.Term.entity_subj(),
                                   tz.Term.frame("f_%s" % label, label),
                                   tz.Term.entity_obj(),
                                   tz.Term.word("w%d" % d)], 0, 2)
            samples.append(cp.ContextSample("doc%d" % d, 0, seq, label,
                                            "a", target))
    return samples


def _train_toy(samples, cfg):
    model = md.build_model(en.build_vocab(samples),
                           en.EncoderConfig("att-blstm", n=6, h=2, filters=2,
                                            window=1, k=3,
                                            feature_mode="att-ends"),
                           {"m": 2, "polarity_dim": 2, "use_position": False,
                            "position_dim": 1},
                           rng=np.random.default_rng(0))
    return md.train(model, samples, cfg)


def _history_follows_protocol(history, cfg):
    epochs = history.epochs()
    expected = [cfg.eval_period * (i + 1) for i in range(len(epochs))]
    if not epochs or epochs != expected or epochs[-1] > cfg.max_epochs:
        return False
    if any(f1 > cfg.stop_threshold for _, f1, _ in history.rows[:-1]):
        return False
    last_epoch, last_f1, _ = history.rows[-1]
    return last_f1 > cfg.stop_threshold or last_epoch == cfg.max_epochs


def test_stop_rule_and_history_protocol():
    cfg = md.TrainConfig(max_epochs=150, eval_period=10, stop_threshold=0.85,
                         learning_rate=0.01, optimizer="adam", batch_size=32,
                         seed=0)
    truth_table = (
        (10, 0.86, True),
        (10, 0.85, False),
        (10, 0.84, False),
        (80, 0.85, False),
        (140, 0.9999, True),
        (150, 0.20, True),
        (150, 0.85, True),
        (151, 0.0, True),
    )
    table_ok = all(md.should_stop(epoch, f1, cfg) == want
                   for epoch, f1, want in truth_table)
    early = _train_toy(_separable_samples(), cfg)
    capped = _train_toy(_head_to_head_samples(), cfg)
    early_ok = (_history_follows_protocol(early, cfg)
                and early.epochs()[-1] < cfg.max_epochs)
    capped_ok = (_history_follows_protocol(capped, cfg)
                 and capped.epochs() == list(range(10, 151, 10)))
    ok = table_ok and early_ok and capped_ok
    report("stop-protocol", ok,
           "truth_table=%s early_stop_epoch=%d capped_epochs=%d rows"
           % (table_ok, early.epochs()[-1], len(capped.epochs())))


def _cv_outputs(outdir):
    corpus = synth.build_corpus(seed=5, n_docs=9)
    ecfg = en.EncoderConfig("att-blstm", n=16, h=2, filters=4, window=1, k=3,
                            feature_mode="att-ends")
    tcfg = md.TrainConfig(max_epochs=20, eval_period=10, stop_threshold=0.85,
                          learning_rate=0.01, optimizer="adam", batch_size=16,
                          seed=3, neutral_ratio=2.0)
    result = md.run_cv(corpus, ecfg, tcfg, frame_lexicon=synth.frame_lexicon(),
                       embed_options=synth.embed_options(), k=3)
    os.makedirs(outdir, exist_ok=True)
    paths = [os.path.join(outdir, "folds.csv")]
    result.to_csv(paths[0])
    for fold, history in enumerate(result.histories):
        paths.append(os.path.join(outdir, "history_fold%d.csv" % fold))
        history.to_csv(paths[-1])
    return paths


def test_same_seed_runs_are_identical(tmp_path):
    first = _cv_outputs(str(tmp_path / "run1"))
    second = _cv_outputs(str(tmp_path / "run2"))
    identical = 0
    for a, b in zip(first, second):
        with open(a, "rb") as fa, open(b, "rb") as fb:
            if fa.read() == fb.read():
                identical += 1
    with open(first[0], encoding="utf-8") as fh:
        nontrivial = len(fh.read().splitlines()) == 4
    ok = identical == len(first) == 4 and nontrivial
    report("determinism", ok,
           "identical_files=%d/%d" % (identical, len(first)))
