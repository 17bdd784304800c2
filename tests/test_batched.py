"""The batched forward and backward against the per-context oracle, and
the tape's size against the batch size.

For every encoder kind and both feature modes, a mini-batch of contexts
of mixed lengths goes through the model once; tests/per_context.py runs
the same contexts one at a time through the old chain of ops. Both read
the same parameters, so probabilities, attention weights and every
parameter gradient must agree. They sum in different orders, hence the
tolerance.
"""

import numpy as np
import pytest

import per_context as pc
from attex import corpus as cp
from attex import encoders as enc
from attex import model as md
from attex import tensorgrad as tg
from attex import termizer as tz

TOL = 1e-10


def random_model(rng, kind, mode, seqs, n):
    cfg = enc.EncoderConfig(kind, n=n, h=int(rng.integers(1, 4)),
                            filters=int(rng.integers(1, 4)),
                            window=int(rng.integers(1, 4)),
                            k=int(rng.integers(2, 5)), feature_mode=mode)
    options = {"m": 3, "polarity_dim": 2, "position_dim": 2,
               "use_position": bool(rng.integers(0, 2))}
    model = md.build_model(pc.vocab_for(seqs), cfg, options, rng=rng)
    # O(1) weights, so no gradient is structurally tiny.
    for p in model.parameters():
        p.data[...] = rng.normal(0.0, 0.7, p.data.shape)
    return model


def samples_of(seqs):
    return [cp.ContextSample("d", 0, seq, "neutral", "a", "b") for seq in seqs]


def gradients(model, loss_of):
    params = model.parameters()
    for p in params:
        p.zero_grad()
    tape = tg.Tape()
    tape.backward(loss_of(tape))
    return [p.grad.copy() for p in params]


@pytest.mark.parametrize("mode", enc.FEATURE_MODES)
@pytest.mark.parametrize("kind", enc.ENCODER_KINDS)
def test_batched_forward_matches_per_context_oracle(kind, mode):
    rng = np.random.default_rng([enc.ENCODER_KINDS.index(kind),
                                 enc.FEATURE_MODES.index(mode)])
    for trial in range(4):
        n = int(rng.integers(3, 9))
        seqs = pc.random_contexts(rng, n, int(rng.integers(1, 7)))
        model = random_model(rng, kind, mode, seqs, n)
        golds = rng.integers(0, 3, size=len(seqs))
        batch = model.compile(samples_of(seqs))

        logits, alpha = model.forward(tg.Tape(), batch)
        probs = tg._softmax_rows(logits.data)
        for i, seq in enumerate(seqs):
            want_p, want_alpha = pc.forward(tg.Tape(), model, seq)
            assert np.allclose(probs[i], want_p.data, rtol=0, atol=TOL)
            n_real = len(seq.terms)
            if want_alpha is None:
                assert alpha is None
            else:
                assert alpha.shape == (len(seqs), n)
                assert np.allclose(alpha[i, :n_real], want_alpha,
                                   rtol=0, atol=TOL)
                assert np.all(alpha[i, n_real:] == 0.0)

        def batched(tape):
            logits, _ = model.forward(tape, batch)
            return tg.softmax_cross_entropy(logits, golds)

        got = gradients(model, batched)
        want = gradients(model, lambda tape: pc.mean_loss(tape, model, seqs,
                                                          golds))
        for p, g, w in zip(model.parameters(), got, want):
            assert np.allclose(g, w, rtol=0, atol=TOL), p.name


def test_padding_takes_no_gradient():
    rng = np.random.default_rng(5)
    seqs = pc.random_contexts(rng, 6, 4)
    model = random_model(rng, "bilstm", "att-ends", seqs, 8)
    batch = model.compile(samples_of(seqs))
    grads = gradients(model, lambda tape: tg.softmax_cross_entropy(
        model.forward(tape, batch)[0], np.zeros(len(seqs), dtype=int)))
    pad = model.embedder.vocab.id_of(enc.PAD)
    assert np.all(grads[0][pad] == 0.0)


@pytest.mark.parametrize("kind", enc.ENCODER_KINDS)
def test_infer_chunks_match_one_forward(kind, monkeypatch):
    rng = np.random.default_rng(40 + enc.ENCODER_KINDS.index(kind))
    seqs = pc.random_contexts(rng, 7, 9)
    model = random_model(rng, kind, "att-ef", seqs, 7)
    samples = samples_of(seqs)
    logits, want_alpha = model.forward(tg.Tape(), model.compile(samples))
    monkeypatch.setattr(md, "INFERENCE_CHUNK", 2)
    probs, alpha = md.infer(model, samples)
    assert np.allclose(probs, tg._softmax_rows(logits.data),
                       rtol=0, atol=1e-15)
    if want_alpha is None:
        assert alpha is None
    else:
        assert np.allclose(alpha, want_alpha, rtol=0, atol=1e-15)


@pytest.mark.parametrize("kind", enc.ENCODER_KINDS)
def test_infer_of_no_samples(kind):
    rng = np.random.default_rng(50 + enc.ENCODER_KINDS.index(kind))
    model = random_model(rng, kind, "att-ef", pc.random_contexts(rng, 7, 3),
                         7)
    probs, alpha = md.infer(model, [])
    assert probs.shape == (0, 3)
    if model.encoder.attentive:
        assert alpha.shape == (0, 7)
    else:
        assert alpha is None


def training_records(model, batch, golds):
    tape = tg.Tape()
    logits, _ = model.forward(tape, batch)
    tg.softmax_cross_entropy(logits, golds)
    return len(tape._records)


# Tape records of one training batch, loss included: the embedding, the
# encoder's ops, the head and the loss. Pinned, so that a fused chain
# cannot silently grow back.
TAPE_RECORDS = {"cnn": 6, "pcnn": 5, "lstm": 5, "bilstm": 5, "att-blstm": 9,
                "att-blstm-zyang": 10, "att-cnn": 7, "ian": 21}


@pytest.mark.parametrize("mode", enc.FEATURE_MODES)
@pytest.mark.parametrize("kind", enc.ENCODER_KINDS)
def test_tape_records_do_not_grow_with_batch(kind, mode):
    rng = np.random.default_rng(60 + enc.ENCODER_KINDS.index(kind))
    seqs = pc.random_contexts(rng, 8, 16)
    model = random_model(rng, kind, mode, seqs, 8)
    batch = model.compile(samples_of(seqs))
    golds = rng.integers(0, 3, size=16)
    one = training_records(model, batch.take(np.arange(1)), golds[:1])
    sixteen = training_records(model, batch, golds)
    assert one == sixteen == TAPE_RECORDS[kind]


def test_compile_rejects_long_sequence():
    seq = pc.random_contexts(np.random.default_rng(0), 5, 1)[0]
    with pytest.raises(ValueError, match="exceeds"):
        enc.compile_sequences([seq], pc.vocab_for([seq]), len(seq.terms) - 1)


def test_compile_pads_with_zero_ids():
    rng = np.random.default_rng(1)
    seqs = [tz.TermSequence([tz.Term.entity_subj(), tz.Term.entity_obj()], 0, 1)]
    seqs += pc.random_contexts(rng, 5, 2)
    batch = enc.compile_sequences(seqs, pc.vocab_for(seqs), 6)
    assert batch.lengths[0] == 2
    assert np.all(batch.word_ids[0, 2:] == 0)
    assert np.array_equal(batch.mask[0], [True, True] + [False] * 4)


def mixed_contexts(rng, n, count, words):
    """random_contexts with other-mention masks and typed tokens mixed in."""
    extra = [tz.Term.entity_other(), tz.Term.token(tz.PUNCTUATION),
             tz.Term.token(tz.NUMBER), tz.Term.token(tz.URL)]
    seqs = []
    for seq in pc.random_contexts(rng, n, count, words):
        terms = list(seq.terms)
        for j in range(len(terms)):
            if j not in (seq.subj_pos, seq.obj_pos) and rng.random() < 0.2:
                terms[j] = extra[int(rng.integers(len(extra)))]
        seqs.append(tz.TermSequence(terms, seq.subj_pos, seq.obj_pos))
    return seqs


@pytest.mark.parametrize("mode", enc.FEATURE_MODES)
@pytest.mark.parametrize("kind", enc.ENCODER_KINDS)
def test_compile_equals_the_per_term_oracle(kind, mode):
    # The vocabulary comes from other contexts over fewer lemmas, so some
    # terms map to <unk>.
    rng = np.random.default_rng([80, enc.ENCODER_KINDS.index(kind),
                                 enc.FEATURE_MODES.index(mode)])
    model = random_model(rng, kind, mode, mixed_contexts(rng, 8, 8, 6), 8)
    seqs = mixed_contexts(rng, 8, 32, 9)
    got = model.compile(samples_of(seqs))
    cfg = model.encoder.cfg
    want = pc.compile_sequences(seqs, model.embedder.vocab, cfg.n, cfg.k,
                                cfg.feature_mode)
    assert np.any(got.word_ids == model.embedder.vocab.id_of(enc.UNK))
    for name in enc.Batch.__slots__:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_compile_maps_each_distinct_term_once(monkeypatch):
    seqs = mixed_contexts(np.random.default_rng(7), 8, 64, 6)
    vocab = pc.vocab_for(seqs)
    calls = []
    id_of_term = enc.Vocab.id_of_term

    def counted(self, term):
        calls.append(term)
        return id_of_term(self, term)

    monkeypatch.setattr(enc.Vocab, "id_of_term", counted)
    enc.compile_sequences(seqs, vocab, 8)
    assert len(calls) == len(set(calls))
    assert len(calls) < sum(len(seq) for seq in seqs)


@pytest.mark.parametrize("mode", enc.FEATURE_MODES)
@pytest.mark.parametrize("index", [[5, 0, 5, 11], slice(2, 9)])
def test_take_equals_compiling_the_taken_contexts(index, mode):
    # take copies rows of every array, the masks included.
    seqs = mixed_contexts(np.random.default_rng(9), 8, 12, 6)
    vocab = pc.vocab_for(seqs)
    got = enc.compile_sequences(seqs, vocab, 8, 4, mode).take(
        np.array(index) if isinstance(index, list) else index)
    taken = ([seqs[i] for i in index] if isinstance(index, list)
             else seqs[index])
    want = enc.compile_sequences(taken, vocab, 8, 4, mode)
    for name in enc.Batch.__slots__:
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
