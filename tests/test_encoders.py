"""Encoder forward passes against independent numpy re-implementations,
plus embedding, feature selection, and gradient behavior."""

import numpy as np
import pytest

import per_context as pc
from attex import encoders as enc
from attex import tensorgrad as tg
from attex import termizer as tz


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def softmax(v):
    e = np.exp(v - np.max(v))
    return e / e.sum()


def ref_conv1d(x, w, b):
    n, m = x.shape
    win, _, f = w.shape
    left = win // 2
    padded = np.zeros((n + win - 1, m))
    padded[left:left + n] = x
    out = np.zeros((n, f))
    for i in range(n):
        out[i] = np.einsum("wm,wmf->f", padded[i:i + win], w) + b
    return out


def ref_lstm_states(rows, w, u, b):
    """States of one cell: w (m, 4, h) or (m, 4h), u (h, 4h), b (4, h) or
    (4h,)."""
    h = u.shape[0]
    h_t = np.zeros(h)
    c_t = np.zeros(h)
    states = []
    for x in rows:
        pre = x @ w.reshape(len(w), 4 * h) + h_t @ u + b.reshape(4 * h)
        gi = sigmoid(pre[:h])
        gf = sigmoid(pre[h:2 * h])
        go = sigmoid(pre[2 * h:3 * h])
        cand = np.tanh(pre[3 * h:])
        c_t = gf * c_t + gi * cand
        h_t = go * np.tanh(c_t)
        states.append(h_t.copy())
    return states


def cell(lstm, d):
    """Direction d's (w, u, b) as views of an enc.Lstm's arrays."""
    return pc.cell_views(lstm.w.data, lstm.u.data, lstm.b.data, d)


def ref_bilstm_states(rows, bilstm):
    fwd = ref_lstm_states(rows, *cell(bilstm, 0))
    bwd = ref_lstm_states(rows[::-1], *cell(bilstm, 1))[::-1]
    return [np.concatenate([f, b]) for f, b in zip(fwd, bwd)]


def ref_pcnn(x, n_real, subj, obj, w, b):
    conv = ref_conv1d(x, w, b)
    p1, p2 = sorted((subj, obj))
    filters = w.shape[2]
    blocks = []
    for start, end in ((0, p1 + 1), (p1 + 1, p2 + 1), (p2 + 1, n_real)):
        if end > start:
            blocks.append(conv[start:end].max(axis=0))
        else:
            blocks.append(np.zeros(filters))
    return np.concatenate(blocks)


def make_seq(length, subj=0, obj=None, frame_positions=()):
    obj = length - 1 if obj is None else obj
    terms = [tz.Term.word("w%d" % i) for i in range(length)]
    for pos in frame_positions:
        terms[pos] = tz.Term.frame("f%d" % pos, "positive")
    terms[subj] = tz.Term.entity_subj()
    terms[obj] = tz.Term.entity_obj()
    return tz.TermSequence(terms, subj, obj)


def make_embedder(n, m=3, polarity_dim=2, use_position=False, seed=0, extra=()):
    words = ["w%d" % i for i in range(12)] + ["f%d" % i for i in range(n)]
    vocab = enc.Vocab(words + list(extra))
    return enc.Embedder(vocab, n=n, m=m, polarity_dim=polarity_dim,
                        use_position=use_position,
                        rng=np.random.default_rng(seed))


def pad_rows(rows, n=None):
    rows = np.asarray(rows, dtype=float)
    if n is not None and n > rows.shape[0]:
        rows = np.vstack([rows, np.zeros((n - rows.shape[0], rows.shape[1]))])
    return rows


def manual_batch(tape, rows, subj, obj, n=None, frame_positions=(), k=2,
                 feature_mode="att-ends", features=None):
    """One context of given embedded rows: x (1, n, w) and its Batch.

    The word and polarity ids are never read by encoders, so they are 0.
    """
    n_real = len(rows)
    rows = pad_rows(rows, n)
    if features is None:
        features = [subj, obj]
        if feature_mode == "att-ef":
            features += list(frame_positions)
        features = features[:k]
    feats = np.zeros((1, max(k, len(features))), dtype=np.intp)
    feats[0, :len(features)] = features
    ids = np.zeros((1, rows.shape[0]), dtype=np.intp)
    batch = enc.Batch(ids, ids, np.array([n_real]), feats,
                      np.array([len(features)]))
    return tg.Tensor(rows[None], tape), batch


def encode_one(encoder, rows, subj, obj, n=None, frame_positions=(),
               features=None):
    """(s (z,), alpha (n,) or None) of one context through the encoder."""
    tape = tg.Tape()
    x, batch = manual_batch(tape, rows, subj, obj, n, frame_positions,
                            encoder.cfg.k, encoder.cfg.feature_mode, features)
    s, alpha = encoder.encode(x, batch)
    return s.data[0], None if alpha is None else alpha[0]


def embed_one(embedder, seq, k=2, feature_mode="att-ends"):
    """(x (n, row_width), Batch of one) of a TermSequence."""
    batch = enc.compile_sequences([seq], embedder.vocab, embedder.n, k,
                                  feature_mode)
    return embedder.embed(tg.Tape(), batch).data[0], batch


class TestVocab:
    def test_specials_come_first(self):
        vocab = enc.Vocab(["b", "a"])
        assert vocab.id_of(enc.PAD) == 0
        assert vocab.id_of(enc.UNK) == 1
        assert vocab.id_of("a") == len(enc.SPECIALS)
        assert vocab.id_of("b") == len(enc.SPECIALS) + 1

    def test_unknown_maps_to_unk(self):
        vocab = enc.Vocab(["a"])
        assert vocab.id_of("zzz") == vocab.id_of(enc.UNK)

    def test_term_ids(self):
        vocab = enc.Vocab(["мир"])
        assert vocab.id_of_term(tz.Term.entity_subj()) == vocab.id_of(enc.SUBJ)
        assert vocab.id_of_term(tz.Term.entity_obj()) == vocab.id_of(enc.OBJ)
        assert vocab.id_of_term(tz.Term.entity_other()) == vocab.id_of(enc.OTHER)
        assert vocab.id_of_term(tz.Term.token(tz.NUMBER)) == vocab.id_of(enc.NUM)
        assert vocab.id_of_term(tz.Term.word("мир")) == vocab.id_of("мир")
        assert vocab.id_of_term(tz.Term.frame("мир", "positive")) == vocab.id_of("мир")


class TestEmbedder:
    def test_shapes_and_padding(self):
        embedder = make_embedder(n=6)
        seq = make_seq(3, subj=0, obj=2)
        x, batch = embed_one(embedder, seq)
        assert x.shape == (6, embedder.row_width)
        assert batch.lengths.tolist() == [3]
        assert np.array_equal(x[3:], np.zeros((3, embedder.row_width)))

    def test_polarity_slice(self):
        embedder = make_embedder(n=4)
        seq = make_seq(3, subj=0, obj=2, frame_positions=(1,))
        x, _ = embed_one(embedder, seq)
        m = embedder.m
        pd = embedder.polarity_dim
        pos_idx = list(enc.lx.POLARITIES).index("positive")
        neu_idx = list(enc.lx.POLARITIES).index("neutral")
        assert np.array_equal(x[1, m:m + pd],
                              embedder.polarity_table.data[pos_idx])
        assert np.array_equal(x[0, m:m + pd],
                              embedder.polarity_table.data[neu_idx])

    def test_position_ids(self):
        embedder = make_embedder(n=5, use_position=True)
        seq = make_seq(4, subj=1, obj=3)
        x, _ = embed_one(embedder, seq)
        m, pd, qd = embedder.m, embedder.polarity_dim, embedder.position_dim
        zero_row = embedder.position_table.data[embedder.max_distance]
        assert np.array_equal(x[1, m + pd:m + pd + qd], zero_row)
        minus_one = embedder.position_table.data[embedder.max_distance - 1]
        assert np.array_equal(x[0, m + pd:m + pd + qd], minus_one)

    def test_unknown_lemma_gets_unk_row(self):
        embedder = make_embedder(n=4)
        terms = [tz.Term.entity_subj(), tz.Term.word("zzzz"), tz.Term.entity_obj()]
        seq = tz.TermSequence(terms, 0, 2)
        x, _ = embed_one(embedder, seq)
        unk_row = embedder.word_table.data[embedder.vocab.id_of(enc.UNK)]
        assert np.array_equal(x[1, :embedder.m], unk_row)

    def test_too_long_rejected(self):
        embedder = make_embedder(n=3)
        with pytest.raises(ValueError, match="exceeds"):
            embed_one(embedder, make_seq(4))

    def test_frame_positions_recorded(self):
        embedder = make_embedder(n=6)
        seq = make_seq(5, subj=0, obj=4, frame_positions=(1, 3))
        _, batch = embed_one(embedder, seq, k=5, feature_mode="att-ef")
        assert batch.features.tolist() == [[0, 4, 1, 3, 0]]
        assert batch.feature_lengths.tolist() == [4]

    def test_pretrained_rows_used(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("w1 1.0 2.0 3.0\nabsent 9 9 9\n", encoding="utf-8")
        vectors = enc.load_word_vectors(path, 3)
        vocab = enc.Vocab(["w1", "w2"])
        embedder = enc.Embedder(vocab, n=4, m=3, polarity_dim=2,
                                rng=np.random.default_rng(0),
                                pretrained=vectors)
        assert np.array_equal(embedder.word_table.data[vocab.id_of("w1")],
                              [1.0, 2.0, 3.0])

    def test_pretrained_width_checked(self, tmp_path):
        path = tmp_path / "vectors.txt"
        path.write_text("w1 1.0 2.0\n", encoding="utf-8")
        with pytest.raises(enc.DataError):
            enc.load_word_vectors(path, 3)


class TestSelectFeatures:
    """Feature positions as compile_sequences records them."""

    def _features(self, mode, k, frame_positions=()):
        seq = make_seq(6, subj=1, obj=4, frame_positions=frame_positions)
        batch = enc.compile_sequences([seq], make_embedder(n=6).vocab, 6, k,
                                      mode)
        return batch.features[0, :batch.feature_lengths[0]].tolist()

    def test_att_ends(self):
        assert self._features("att-ends", 5, frame_positions=(2, 3)) == [1, 4]

    def test_att_ef_cropped(self):
        assert self._features("att-ef", 4, frame_positions=(0, 2, 3, 5)) \
            == [1, 4, 0, 2]

    def test_att_ef_without_frames(self):
        assert self._features("att-ef", 4) == [1, 4]


def build(kind, n=6, h=3, filters=2, window=3, row_width=5, seed=1, **kw):
    cfg = enc.EncoderConfig(kind, n=n, h=h, filters=filters, window=window, **kw)
    return enc.build_encoder(cfg, row_width, np.random.default_rng(seed))


class TestCnn:
    def test_single_row(self):
        encoder = build("cnn", n=4, window=1)
        rows = np.random.default_rng(0).uniform(-1, 1, (1, 5))
        s, _ = encode_one(encoder, rows, subj=0, obj=0, n=4)
        want = np.tanh(ref_conv1d(pad_rows(rows, 4), encoder.w.data,
                                  encoder.b.data))[0]
        assert np.allclose(s, want)

    def test_matches_reference(self):
        rng = np.random.default_rng(3)
        encoder = build("cnn", n=5, filters=2)
        rows = rng.uniform(-1, 1, (3, 5))
        s, alpha = encode_one(encoder, rows, subj=0, obj=2, n=5)
        conv = np.tanh(ref_conv1d(pad_rows(rows, 5), encoder.w.data,
                                  encoder.b.data))
        assert np.allclose(s, conv[:3].max(axis=0))
        assert encoder.z == 2 and alpha is None

    def test_zero_input_zero_bias(self):
        encoder = build("cnn")
        s, _ = encode_one(encoder, np.zeros((4, 5)), subj=0, obj=3, n=6)
        assert np.array_equal(s, np.zeros(2))


class TestPcnn:
    def _identity_encoder(self, width):
        # window-1 convolution with identity weights copies rows through
        encoder = build("pcnn", n=8, window=1, filters=width, row_width=width)
        encoder.w.data[...] = np.eye(width)[None, :, :]
        encoder.b.data[...] = 0.0
        return encoder

    def test_documented_segments(self):
        column = [1.0, 5.0, 3.0, 2.0, 0.0, 4.0, 1.0]
        encoder = self._identity_encoder(1)
        s, _ = encode_one(encoder, np.array(column)[:, None], subj=1, obj=4,
                          n=8)
        assert np.array_equal(s, [5.0, 3.0, 4.0])

    def test_adjacent_participants_zero_right_block(self):
        encoder = self._identity_encoder(2)
        s, _ = encode_one(encoder, [[1.0, 2.0], [3.0, 4.0]], subj=0, obj=1, n=8)
        assert np.array_equal(s, [1, 2, 3, 4, 0, 0])

    def test_concat_length(self):
        encoder = build("pcnn", filters=1)
        s, _ = encode_one(encoder, np.ones((6, 5)), subj=2, obj=4)
        assert s.shape == (3,)

    @pytest.mark.parametrize("trial", range(50))
    def test_matches_piecewise_oracle(self, trial):
        rng = np.random.default_rng(4000 + trial)
        n_real = int(rng.integers(2, 8))
        subj, obj = rng.choice(n_real, size=2, replace=False)
        encoder = build("pcnn", n=8, window=int(rng.integers(1, 4)),
                        filters=int(rng.integers(1, 4)), seed=trial)
        rows = rng.uniform(-2, 2, (n_real, 5))
        s, _ = encode_one(encoder, rows, subj=int(subj), obj=int(obj), n=8)
        want = ref_pcnn(rows, n_real, int(subj), int(obj),
                        encoder.w.data, encoder.b.data)
        assert np.allclose(s, want)


class TestLstm:
    def test_hand_unrolled_two_steps(self):
        encoder = build("lstm", h=2, row_width=2)
        lstm = encoder.lstm
        lstm.w.data[...] = np.arange(16).reshape(2, 8) * 0.05
        lstm.u.data[0] = np.arange(16).reshape(2, 8)[::-1] * 0.03
        lstm.b.data[...] = np.linspace(-0.2, 0.4, 8)
        rows = np.array([[0.5, -1.0], [0.25, 0.75]])
        s, _ = encode_one(encoder, rows, subj=0, obj=1, n=4)
        want = ref_lstm_states(rows, *cell(lstm, 0))[-1]
        assert np.allclose(s, want)

    def test_pads_never_consumed(self):
        encoder = build("lstm", h=2)
        rows = np.random.default_rng(5).uniform(-1, 1, (3, 5))
        a, _ = encode_one(encoder, rows, subj=0, obj=2, n=3)
        b, _ = encode_one(encoder, rows, subj=0, obj=2, n=9)
        assert np.array_equal(a, b)

    def test_forget_bias_initialized(self):
        for kind in ("lstm", "bilstm"):
            lstm = build(kind, h=3).lstm
            for d in range(lstm.u.shape[0]):
                _, _, b = cell(lstm, d)
                assert np.array_equal(b, [[0] * 3, [1] * 3, [0] * 3, [0] * 3])


class TestBiLstm:
    def test_single_step_both_directions(self):
        encoder = build("bilstm", h=2)
        rows = np.random.default_rng(6).uniform(-1, 1, (1, 5))
        s, _ = encode_one(encoder, rows, subj=0, obj=0, n=4)
        fwd = ref_lstm_states(rows, *cell(encoder.lstm, 0))
        bwd = ref_lstm_states(rows, *cell(encoder.lstm, 1))
        assert np.allclose(s, np.concatenate([fwd[0], bwd[0]]))

    def test_matches_reference(self):
        encoder = build("bilstm", h=3)
        rng = np.random.default_rng(7)
        rows = rng.uniform(-1, 1, (4, 5))
        s, _ = encode_one(encoder, rows, subj=0, obj=3, n=6)
        want = ref_bilstm_states(rows, encoder.lstm)[-1]
        assert np.allclose(s, want)
        assert encoder.z == 6

    def test_reverse_half_has_read_only_the_last_term(self):
        # Pins what bilstm's vector is, not what it should be: both halves
        # come from step lengths-1, where the reverse direction has read
        # only the last real term. Its summary of the whole context is the
        # state at step 0, which the vector leaves out.
        h, n = 3, 7
        encoder = build("bilstm", h=h, n=n)
        rng = np.random.default_rng(11)
        lengths = np.array([7, 3, 1, 5])
        real = np.arange(n) < lengths[:, None]
        x = rng.uniform(-1, 1, (len(lengths), n, 5)) * real[..., None]
        ids = np.zeros((len(lengths), n), dtype=np.intp)
        first = np.zeros(len(lengths), dtype=np.intp)
        batch = enc.Batch(ids, ids, lengths,
                          np.stack([first, lengths - 1], axis=1),
                          np.full(len(lengths), 2))
        s = encoder.encode(tg.Tensor(x, tg.Tape()), batch)[0].data
        for i, length in enumerate(lengths):
            rows = x[i, :length]
            alone = encoder.lstm.states(tg.Tensor(rows[None, -1:], tg.Tape()),
                                        np.array([1])).data[0, 0]
            assert np.allclose(s[i, h:], alone[h:], rtol=0, atol=1e-12)
            forward = ref_lstm_states(rows, *cell(encoder.lstm, 0))[-1]
            assert np.allclose(s[i, :h], forward, rtol=0, atol=1e-12)
            whole = ref_lstm_states(rows[::-1], *cell(encoder.lstm, 1))[-1]
            assert np.allclose(encoder.lstm.states(
                tg.Tensor(x[i:i + 1], tg.Tape()), lengths[i:i + 1]
            ).data[0, 0, h:], whole, rtol=0, atol=1e-12)
            if length > 1:
                assert not np.allclose(s[i, h:], whole)


class TestAttBLstm:
    def test_singleton_alpha(self):
        encoder = build("att-blstm", h=2, n=5)
        rows = np.random.default_rng(8).uniform(-1, 1, (1, 5))
        s, alpha = encode_one(encoder, rows, subj=0, obj=0, n=5)
        assert np.allclose(alpha, [1, 0, 0, 0, 0])
        h1 = ref_bilstm_states(rows, encoder.bilstm)[0]
        assert np.allclose(s, np.tanh(h1))

    def test_zero_scores_uniform(self):
        encoder = build("att-blstm", h=2, n=4)
        encoder.w.data[...] = 0.0
        rows = np.random.default_rng(9).uniform(-1, 1, (2, 5))
        _, alpha = encode_one(encoder, rows, subj=0, obj=1, n=4)
        assert np.allclose(alpha[:2], [0.5, 0.5])

    def test_matches_reference(self):
        encoder = build("att-blstm", h=3, n=6)
        rng = np.random.default_rng(10)
        rows = rng.uniform(-1, 1, (4, 5))
        s, got_alpha = encode_one(encoder, rows, subj=1, obj=2, n=6)
        h_mat = np.stack(ref_bilstm_states(rows, encoder.bilstm))
        scores = np.tanh(h_mat) @ encoder.w.data
        alpha = softmax(scores)
        want = np.tanh(alpha @ h_mat)
        assert np.allclose(s, want)
        assert np.allclose(got_alpha[:4], alpha)
        assert np.allclose(got_alpha[4:], 0.0)


class TestAttBLstmZYang:
    def test_reduces_to_plain_self_attention(self):
        plain = build("att-blstm", h=2, n=5, seed=11)
        zyang = build("att-blstm-zyang", h=2, n=5, seed=12)
        for mine, theirs in zip(zyang.bilstm.parameters(),
                                plain.bilstm.parameters()):
            mine.data[...] = theirs.data
        zyang.w_a.data[...] = np.eye(4)
        zyang.b_a.data[...] = 0.0
        zyang.u_w.data[...] = plain.w.data
        rows = np.random.default_rng(13).uniform(-1, 1, (3, 5))
        _, alpha_plain = encode_one(plain, rows, 0, 2, n=5)
        _, alpha_zyang = encode_one(zyang, rows, 0, 2, n=5)
        assert np.allclose(alpha_plain, alpha_zyang)

    def test_singleton(self):
        encoder = build("att-blstm-zyang", h=2, n=4)
        rows = np.random.default_rng(14).uniform(-1, 1, (1, 5))
        _, alpha = encode_one(encoder, rows, 0, 0, n=4)
        assert np.allclose(alpha, [1, 0, 0, 0])

    def test_matches_reference(self):
        encoder = build("att-blstm-zyang", h=2, n=6)
        rng = np.random.default_rng(15)
        rows = rng.uniform(-1, 1, (4, 5))
        s, got_alpha = encode_one(encoder, rows, 1, 3, n=6)
        h_mat = np.stack(ref_bilstm_states(rows, encoder.bilstm))
        projected = np.tanh(h_mat @ encoder.w_a.data + encoder.b_a.data)
        alpha = softmax(projected @ encoder.u_w.data)
        want = alpha @ h_mat
        assert np.allclose(s, want)
        assert np.allclose(got_alpha[:4], alpha)


def ref_attcnn(encoder, rows, n_real, subj, obj, mode, k, frame_positions=()):
    pooled = ref_pcnn(rows, n_real, subj, obj,
                      encoder.pcnn.w.data, encoder.pcnn.b.data)
    feats = [rows[subj], rows[obj]]
    if mode == "att-ef":
        for pos in frame_positions:
            if len(feats) >= k:
                break
            feats.append(rows[pos])
    alphas = []
    summaries = []
    for f in feats:
        scores = np.array([
            np.tanh(np.concatenate([x_i, f]) @ encoder.w1.data + encoder.b1.data)
            @ encoder.w2.data for x_i in rows[:n_real]])
        a = softmax(scores)
        alphas.append(a)
        summaries.append(a @ rows[:n_real])
    s = np.concatenate([pooled, np.mean(summaries, axis=0)])
    mean_alpha = np.mean(alphas, axis=0)
    return s, mean_alpha / mean_alpha.sum()


class TestAttCnn:
    def test_uniform_scores_give_mean_row(self):
        encoder = build("att-cnn", n=6, filters=2)
        encoder.w2.data[...] = 0.0
        rng = np.random.default_rng(16)
        rows = rng.uniform(-1, 1, (4, 5))
        s, _ = encode_one(encoder, rows, 0, 3, n=6)
        assert np.allclose(s[6:], rows.mean(axis=0))

    def test_alpha_sums_to_one(self):
        encoder = build("att-cnn", n=6)
        rng = np.random.default_rng(17)
        rows = rng.uniform(-1, 1, (5, 5))
        _, alpha = encode_one(encoder, rows, 1, 3, n=6)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_reference(self):
        encoder = build("att-cnn", n=7, filters=2, feature_mode="att-ef", k=3)
        rng = np.random.default_rng(18)
        rows = rng.uniform(-1, 1, (5, 5))
        s, alpha = encode_one(encoder, rows, 0, 4, n=7, frame_positions=(2,))
        want_s, want_alpha = ref_attcnn(encoder, rows, 5, 0, 4,
                                        "att-ef", 3, frame_positions=(2,))
        assert np.allclose(s, want_s)
        assert np.allclose(alpha[:5], want_alpha)
        assert encoder.z == 3 * 2 + 5


def ref_ian(encoder, rows, n_real, subj, obj, mode, k, frame_positions=()):
    context = [rows[i] for i in range(n_real)]
    feats = [rows[subj], rows[obj]]
    if mode == "att-ef":
        for pos in frame_positions:
            if len(feats) >= k:
                break
            feats.append(rows[pos])
    c_states = np.stack(ref_bilstm_states(np.stack(context), encoder.context_lstm))
    t_states = np.stack(ref_bilstm_states(np.stack(feats), encoder.feature_lstm))
    c_mean = c_states.mean(axis=0)
    t_mean = t_states.mean(axis=0)
    gamma = softmax(np.tanh(c_states @ encoder.w_c.data @ t_mean
                            + encoder.b_c.data[0]))
    delta = softmax(np.tanh(t_states @ encoder.w_t.data @ c_mean
                            + encoder.b_t.data[0]))
    return np.concatenate([gamma @ c_states, delta @ t_states]), gamma, delta


class TestIan:
    def test_gamma_sums_to_one(self):
        encoder = build("ian", h=2, n=6)
        rng = np.random.default_rng(19)
        rows = rng.uniform(-1, 1, (4, 5))
        _, alpha = encode_one(encoder, rows, 0, 3, n=6)
        assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(alpha[4:] == 0.0)

    def test_single_feature_delta(self):
        encoder = build("ian", h=2, n=5)
        rng = np.random.default_rng(20)
        rows = rng.uniform(-1, 1, (3, 5))
        s, _ = encode_one(encoder, rows, 0, 2, n=5, features=[1])
        t_state = ref_bilstm_states(rows[1:2], encoder.feature_lstm)[0]
        assert np.allclose(s[4:], t_state)

    def test_matches_reference(self):
        encoder = build("ian", h=2, n=7, feature_mode="att-ef", k=4)
        rng = np.random.default_rng(21)
        rows = rng.uniform(-1, 1, (5, 5))
        s, alpha = encode_one(encoder, rows, 0, 4, n=7, frame_positions=(2, 3))
        want_s, gamma, _ = ref_ian(encoder, rows, 5, 0, 4, "att-ef", 4,
                                   frame_positions=(2, 3))
        assert np.allclose(s, want_s)
        assert np.allclose(alpha[:5], gamma)
        assert encoder.z == 8


EXPECTED_Z = {
    "cnn": lambda cfg, rw: cfg.filters,
    "pcnn": lambda cfg, rw: 3 * cfg.filters,
    "lstm": lambda cfg, rw: cfg.h,
    "bilstm": lambda cfg, rw: 2 * cfg.h,
    "att-blstm": lambda cfg, rw: 2 * cfg.h,
    "att-blstm-zyang": lambda cfg, rw: 2 * cfg.h,
    "att-cnn": lambda cfg, rw: 3 * cfg.filters + rw,
    "ian": lambda cfg, rw: 4 * cfg.h,
}

ATTENTIVE = ("att-blstm", "att-blstm-zyang", "att-cnn", "ian")


class TestAllEncoders:
    @pytest.mark.parametrize("kind", enc.ENCODER_KINDS)
    def test_output_size_table(self, kind):
        rng = np.random.default_rng(enc.ENCODER_KINDS.index(kind))
        for trial in range(3):
            cfg = enc.EncoderConfig(kind,
                                    n=int(rng.integers(4, 9)),
                                    h=int(rng.integers(1, 5)),
                                    filters=int(rng.integers(1, 5)),
                                    window=int(rng.integers(1, 4)),
                                    k=3, feature_mode="att-ef")
            rw = int(rng.integers(3, 7))
            encoder = enc.build_encoder(cfg, rw, rng)
            n_real = int(rng.integers(2, cfg.n + 1))
            subj, obj = [int(v) for v in rng.choice(n_real, 2, replace=False)]
            s, _ = encode_one(encoder, rng.uniform(-1, 1, (n_real, rw)),
                              subj, obj, n=cfg.n)
            want = EXPECTED_Z[kind](cfg, rw)
            assert s.shape == (want,)
            assert encoder.z == want
            assert encoder.attentive == (kind in ATTENTIVE)

    @pytest.mark.parametrize("kind", ATTENTIVE)
    def test_alpha_invariants(self, kind):
        rng = np.random.default_rng(50 + enc.ENCODER_KINDS.index(kind))
        for trial in range(20):
            cfg = enc.EncoderConfig(kind, n=7, h=2, filters=2, window=2, k=3)
            encoder = enc.build_encoder(cfg, 4, rng)
            n_real = int(rng.integers(2, 8))
            subj, obj = [int(v) for v in rng.choice(n_real, 2, replace=False)]
            _, alpha = encode_one(encoder, rng.uniform(-3, 3, (n_real, 4)),
                                  subj, obj, n=7)
            assert alpha.shape == (7,)
            assert np.all(alpha >= 0.0)
            assert abs(alpha.sum() - 1.0) < 1e-9
            assert np.all(alpha[n_real:] == 0.0)

    @pytest.mark.parametrize("kind", enc.ENCODER_KINDS)
    def test_pad_rows_identical_and_inert(self, kind):
        embedder = make_embedder(n=8, seed=22)
        seq = make_seq(5, subj=1, obj=3, frame_positions=(2,))
        cfg = enc.EncoderConfig(kind, n=8, h=2, filters=2, window=2, k=3)
        encoder = enc.build_encoder(cfg, embedder.row_width,
                                    np.random.default_rng(23))

        x, _ = embed_one(embedder, seq, cfg.k, cfg.feature_mode)
        assert np.array_equal(x[5:], np.zeros_like(x[5:]))
        # More padding changes nothing.
        frames = (2,)
        s8, alpha8 = encode_one(encoder, x[:5], 1, 3, n=8, frame_positions=frames)
        s12, alpha12 = encode_one(encoder, x[:5], 1, 3, n=12,
                                  frame_positions=frames)
        assert np.allclose(s8, s12, rtol=0, atol=1e-12)
        if alpha8 is not None:
            assert np.allclose(alpha8, alpha12[:8], rtol=0, atol=1e-12)
            assert np.all(alpha12[5:] == 0.0)

    @pytest.mark.parametrize("kind", enc.ENCODER_KINDS)
    def test_gradient_check(self, kind):
        idx = enc.ENCODER_KINDS.index(kind)
        rng = np.random.default_rng(3000 + idx)
        embedder = make_embedder(n=6, m=2, polarity_dim=2,
                                 use_position=enc.default_use_position(kind),
                                 seed=300 + idx)
        seqs = [make_seq(5, subj=1, obj=3, frame_positions=(2,)),
                make_seq(3, subj=2, obj=1)]
        cfg = enc.EncoderConfig(kind, n=6, h=2, filters=2, window=2, k=3,
                                feature_mode="att-ef")
        encoder = enc.build_encoder(cfg, embedder.row_width, rng)
        readout = rng.uniform(-1, 1, EXPECTED_Z[kind](cfg, embedder.row_width))
        batch = enc.compile_sequences(seqs, embedder.vocab, 6, cfg.k,
                                      cfg.feature_mode)

        def f(tape):
            s, _ = encoder.encode(embedder.embed(tape, batch), batch)
            return tg.matmul(tg.matmul(s, tg.Tensor(readout, tape)),
                             tg.Tensor([1.0, 0.5], tape))

        params = embedder.parameters() + encoder.parameters()
        assert tg.gradient_check(f, params) < 1e-4

    def test_build_encoder_rejects_unknown(self):
        with pytest.raises(ValueError):
            enc.EncoderConfig("transformer")
