"""Encoder forward passes against independent numpy re-implementations,
plus embedding, feature selection, and gradient behavior."""

import numpy as np
import pytest

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
    h = u.shape[0]
    h_t = np.zeros(h)
    c_t = np.zeros(h)
    states = []
    for x in rows:
        pre = x @ w + h_t @ u + b
        gi = sigmoid(pre[:h])
        gf = sigmoid(pre[h:2 * h])
        go = sigmoid(pre[2 * h:3 * h])
        cand = np.tanh(pre[3 * h:])
        c_t = gf * c_t + gi * cand
        h_t = go * np.tanh(c_t)
        states.append(h_t.copy())
    return states


def ref_bilstm_states(rows, bilstm):
    fwd = ref_lstm_states(rows, bilstm.fwd.w.data, bilstm.fwd.u.data,
                          bilstm.fwd.b.data)
    bwd = ref_lstm_states(rows[::-1], bilstm.bwd.w.data, bilstm.bwd.u.data,
                          bilstm.bwd.b.data)[::-1]
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


def manual_ctx(tape, rows, subj, obj, n=None, frame_positions=()):
    rows = np.asarray(rows, dtype=float)
    n_real = rows.shape[0]
    if n is not None and n > n_real:
        rows = np.vstack([rows, np.zeros((n - n_real, rows.shape[1]))])
    x = tape.constant(rows)
    return enc.EmbeddedContext(x, n_real, subj, obj, frame_positions)


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
        ctx = embedder.embed(tg.Tape(), seq)
        assert ctx.x.data.shape == (6, embedder.row_width)
        assert ctx.n_real == 3
        assert np.array_equal(ctx.x.data[3:], np.zeros((3, embedder.row_width)))

    def test_polarity_slice(self):
        embedder = make_embedder(n=4)
        seq = make_seq(3, subj=0, obj=2, frame_positions=(1,))
        ctx = embedder.embed(tg.Tape(), seq)
        m = embedder.m
        pd = embedder.polarity_dim
        pos_idx = list(enc.lx.POLARITIES).index("positive")
        neu_idx = list(enc.lx.POLARITIES).index("neutral")
        assert np.array_equal(ctx.x.data[1, m:m + pd],
                              embedder.polarity_table.data[pos_idx])
        assert np.array_equal(ctx.x.data[0, m:m + pd],
                              embedder.polarity_table.data[neu_idx])

    def test_position_ids(self):
        embedder = make_embedder(n=5, use_position=True)
        seq = make_seq(4, subj=1, obj=3)
        ctx = embedder.embed(tg.Tape(), seq)
        m, pd, qd = embedder.m, embedder.polarity_dim, embedder.position_dim
        zero_row = embedder.position_table.data[embedder.max_distance]
        assert np.array_equal(ctx.x.data[1, m + pd:m + pd + qd], zero_row)
        minus_one = embedder.position_table.data[embedder.max_distance - 1]
        assert np.array_equal(ctx.x.data[0, m + pd:m + pd + qd], minus_one)

    def test_unknown_lemma_gets_unk_row(self):
        embedder = make_embedder(n=4)
        terms = [tz.Term.entity_subj(), tz.Term.word("zzzz"), tz.Term.entity_obj()]
        seq = tz.TermSequence(terms, 0, 2)
        ctx = embedder.embed(tg.Tape(), seq)
        unk_row = embedder.word_table.data[embedder.vocab.id_of(enc.UNK)]
        assert np.array_equal(ctx.x.data[1, :embedder.m], unk_row)

    def test_too_long_rejected(self):
        embedder = make_embedder(n=3)
        with pytest.raises(ValueError, match="exceeds"):
            embedder.embed(tg.Tape(), make_seq(4))

    def test_frame_positions_recorded(self):
        embedder = make_embedder(n=6)
        seq = make_seq(5, subj=0, obj=4, frame_positions=(1, 3))
        ctx = embedder.embed(tg.Tape(), seq)
        assert ctx.frame_positions == (1, 3)

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
    def _ctx(self, frame_positions=()):
        tape = tg.Tape()
        rows = np.arange(24, dtype=float).reshape(6, 4)
        return tape, manual_ctx(tape, rows, subj=1, obj=4,
                                frame_positions=frame_positions)

    def test_att_ends(self):
        tape, ctx = self._ctx(frame_positions=(2, 3))
        feats = enc.select_features(ctx, "att-ends", 5)
        assert len(feats) == 2
        assert np.array_equal(feats[0].data, ctx.x.data[1])
        assert np.array_equal(feats[1].data, ctx.x.data[4])

    def test_att_ef_cropped(self):
        tape, ctx = self._ctx(frame_positions=(0, 2, 3, 5))
        feats = enc.select_features(ctx, "att-ef", 4)
        assert len(feats) == 4
        assert np.array_equal(feats[2].data, ctx.x.data[0])
        assert np.array_equal(feats[3].data, ctx.x.data[2])

    def test_att_ef_without_frames(self):
        tape, ctx = self._ctx()
        assert len(enc.select_features(ctx, "att-ef", 4)) == 2


def build(kind, n=6, h=3, filters=2, window=3, row_width=5, seed=1, **kw):
    cfg = enc.EncoderConfig(kind, n=n, h=h, filters=filters, window=window, **kw)
    return enc.build_encoder(cfg, row_width, np.random.default_rng(seed))


class TestCnn:
    def test_single_row(self):
        encoder = build("cnn", n=4, window=1)
        tape = tg.Tape()
        ctx = manual_ctx(tape, np.random.default_rng(0).uniform(-1, 1, (1, 5)),
                         subj=0, obj=0, n=4)
        out = encoder.encode(tape, ctx)
        want = np.tanh(ref_conv1d(ctx.x.data, encoder.w.data, encoder.b.data))[0]
        assert np.allclose(out.s.data, want)

    def test_matches_reference(self):
        rng = np.random.default_rng(3)
        encoder = build("cnn", n=5, filters=2)
        tape = tg.Tape()
        ctx = manual_ctx(tape, rng.uniform(-1, 1, (3, 5)), subj=0, obj=2, n=5)
        out = encoder.encode(tape, ctx)
        conv = np.tanh(ref_conv1d(ctx.x.data, encoder.w.data, encoder.b.data))
        assert np.allclose(out.s.data, conv[:3].max(axis=0))
        assert encoder.z == 2 and out.alpha is None

    def test_zero_input_zero_bias(self):
        encoder = build("cnn")
        tape = tg.Tape()
        ctx = manual_ctx(tape, np.zeros((4, 5)), subj=0, obj=3, n=6)
        out = encoder.encode(tape, ctx)
        assert np.array_equal(out.s.data, np.zeros(2))


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
        tape = tg.Tape()
        ctx = manual_ctx(tape, np.array(column)[:, None], subj=1, obj=4, n=8)
        out = encoder.encode(tape, ctx)
        assert np.array_equal(out.s.data, [5.0, 3.0, 4.0])

    def test_adjacent_participants_zero_right_block(self):
        encoder = self._identity_encoder(2)
        tape = tg.Tape()
        ctx = manual_ctx(tape, [[1.0, 2.0], [3.0, 4.0]], subj=0, obj=1, n=8)
        out = encoder.encode(tape, ctx)
        assert np.array_equal(out.s.data, [1, 2, 3, 4, 0, 0])

    def test_concat_length(self):
        encoder = build("pcnn", filters=1)
        tape = tg.Tape()
        ctx = manual_ctx(tape, np.ones((6, 5)), subj=2, obj=4)
        assert encoder.encode(tape, ctx).s.data.shape == (3,)

    @pytest.mark.parametrize("trial", range(50))
    def test_matches_piecewise_oracle(self, trial):
        rng = np.random.default_rng(4000 + trial)
        n_real = int(rng.integers(2, 8))
        subj, obj = rng.choice(n_real, size=2, replace=False)
        encoder = build("pcnn", n=8, window=int(rng.integers(1, 4)),
                        filters=int(rng.integers(1, 4)), seed=trial)
        tape = tg.Tape()
        ctx = manual_ctx(tape, rng.uniform(-2, 2, (n_real, 5)),
                         subj=int(subj), obj=int(obj), n=8)
        out = encoder.encode(tape, ctx)
        want = ref_pcnn(ctx.x.data[:n_real], n_real, int(subj), int(obj),
                        encoder.w.data, encoder.b.data)
        assert np.allclose(out.s.data, want)


class TestLstm:
    def test_hand_unrolled_two_steps(self):
        encoder = build("lstm", h=2, row_width=2)
        cell = encoder.cell
        cell.w.data[...] = np.arange(16).reshape(2, 8) * 0.05
        cell.u.data[...] = np.arange(16).reshape(2, 8)[::-1] * 0.03
        cell.b.data[...] = np.linspace(-0.2, 0.4, 8)
        rows = np.array([[0.5, -1.0], [0.25, 0.75]])
        tape = tg.Tape()
        ctx = manual_ctx(tape, rows, subj=0, obj=1, n=4)
        out = encoder.encode(tape, ctx)
        want = ref_lstm_states(rows, cell.w.data, cell.u.data, cell.b.data)[-1]
        assert np.allclose(out.s.data, want)

    def test_pads_never_consumed(self):
        encoder = build("lstm", h=2)
        rows = np.random.default_rng(5).uniform(-1, 1, (3, 5))
        tape_a = tg.Tape()
        a = encoder.encode(tape_a, manual_ctx(tape_a, rows, subj=0, obj=2, n=3))
        tape_b = tg.Tape()
        b = encoder.encode(tape_b, manual_ctx(tape_b, rows, subj=0, obj=2, n=9))
        assert np.array_equal(a.s.data, b.s.data)

    def test_forget_bias_initialized(self):
        encoder = build("lstm", h=3)
        assert np.array_equal(encoder.cell.b.data[3:6], np.ones(3))


class TestBiLstm:
    def test_single_step_both_directions(self):
        encoder = build("bilstm", h=2)
        tape = tg.Tape()
        rows = np.random.default_rng(6).uniform(-1, 1, (1, 5))
        ctx = manual_ctx(tape, rows, subj=0, obj=0, n=4)
        out = encoder.encode(tape, ctx)
        fwd = ref_lstm_states(rows, encoder.bilstm.fwd.w.data,
                              encoder.bilstm.fwd.u.data, encoder.bilstm.fwd.b.data)
        bwd = ref_lstm_states(rows, encoder.bilstm.bwd.w.data,
                              encoder.bilstm.bwd.u.data, encoder.bilstm.bwd.b.data)
        assert np.allclose(out.s.data, np.concatenate([fwd[0], bwd[0]]))

    def test_matches_reference(self):
        encoder = build("bilstm", h=3)
        rng = np.random.default_rng(7)
        rows = rng.uniform(-1, 1, (4, 5))
        tape = tg.Tape()
        ctx = manual_ctx(tape, rows, subj=0, obj=3, n=6)
        out = encoder.encode(tape, ctx)
        want = ref_bilstm_states(rows, encoder.bilstm)[-1]
        assert np.allclose(out.s.data, want)
        assert encoder.z == 6


class TestAttBLstm:
    def test_singleton_alpha(self):
        encoder = build("att-blstm", h=2, n=5)
        tape = tg.Tape()
        rows = np.random.default_rng(8).uniform(-1, 1, (1, 5))
        ctx = manual_ctx(tape, rows, subj=0, obj=0, n=5)
        out = encoder.encode(tape, ctx)
        assert np.allclose(out.alpha, [1, 0, 0, 0, 0])
        h1 = ref_bilstm_states(rows, encoder.bilstm)[0]
        assert np.allclose(out.s.data, np.tanh(h1))

    def test_zero_scores_uniform(self):
        encoder = build("att-blstm", h=2, n=4)
        encoder.w.data[...] = 0.0
        tape = tg.Tape()
        rows = np.random.default_rng(9).uniform(-1, 1, (2, 5))
        ctx = manual_ctx(tape, rows, subj=0, obj=1, n=4)
        out = encoder.encode(tape, ctx)
        assert np.allclose(out.alpha[:2], [0.5, 0.5])

    def test_matches_reference(self):
        encoder = build("att-blstm", h=3, n=6)
        rng = np.random.default_rng(10)
        rows = rng.uniform(-1, 1, (4, 5))
        tape = tg.Tape()
        ctx = manual_ctx(tape, rows, subj=1, obj=2, n=6)
        out = encoder.encode(tape, ctx)
        h_mat = np.stack(ref_bilstm_states(rows, encoder.bilstm))
        scores = np.tanh(h_mat) @ encoder.w.data
        alpha = softmax(scores)
        want = np.tanh(alpha @ h_mat)
        assert np.allclose(out.s.data, want)
        assert np.allclose(out.alpha[:4], alpha)
        assert np.allclose(out.alpha[4:], 0.0)


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
        tape_a = tg.Tape()
        out_plain = plain.encode(tape_a, manual_ctx(tape_a, rows, 0, 2, n=5))
        tape_b = tg.Tape()
        out_zyang = zyang.encode(tape_b, manual_ctx(tape_b, rows, 0, 2, n=5))
        assert np.allclose(out_plain.alpha, out_zyang.alpha)

    def test_singleton(self):
        encoder = build("att-blstm-zyang", h=2, n=4)
        rows = np.random.default_rng(14).uniform(-1, 1, (1, 5))
        tape = tg.Tape()
        out = encoder.encode(tape, manual_ctx(tape, rows, 0, 0, n=4))
        assert np.allclose(out.alpha, [1, 0, 0, 0])

    def test_matches_reference(self):
        encoder = build("att-blstm-zyang", h=2, n=6)
        rng = np.random.default_rng(15)
        rows = rng.uniform(-1, 1, (4, 5))
        tape = tg.Tape()
        out = encoder.encode(tape, manual_ctx(tape, rows, 1, 3, n=6))
        h_mat = np.stack(ref_bilstm_states(rows, encoder.bilstm))
        projected = np.tanh(h_mat @ encoder.w_a.data + encoder.b_a.data)
        alpha = softmax(projected @ encoder.u_w.data)
        want = alpha @ h_mat
        assert np.allclose(out.s.data, want)
        assert np.allclose(out.alpha[:4], alpha)


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
        tape = tg.Tape()
        out = encoder.encode(tape, manual_ctx(tape, rows, 0, 3, n=6))
        assert np.allclose(out.s.data[6:], rows.mean(axis=0))

    def test_alpha_sums_to_one(self):
        encoder = build("att-cnn", n=6)
        rng = np.random.default_rng(17)
        rows = rng.uniform(-1, 1, (5, 5))
        tape = tg.Tape()
        out = encoder.encode(tape, manual_ctx(tape, rows, 1, 3, n=6))
        assert out.alpha.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_reference(self):
        encoder = build("att-cnn", n=7, filters=2, feature_mode="att-ef", k=3)
        rng = np.random.default_rng(18)
        rows = rng.uniform(-1, 1, (5, 5))
        tape = tg.Tape()
        ctx = manual_ctx(tape, rows, 0, 4, n=7, frame_positions=(2,))
        out = encoder.encode(tape, ctx)
        want_s, want_alpha = ref_attcnn(encoder, rows, 5, 0, 4,
                                        "att-ef", 3, frame_positions=(2,))
        assert np.allclose(out.s.data, want_s)
        assert np.allclose(out.alpha[:5], want_alpha)
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
        tape = tg.Tape()
        out = encoder.encode(tape, manual_ctx(tape, rows, 0, 3, n=6))
        assert out.alpha.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(out.alpha[4:] == 0.0)

    def test_single_feature_delta(self):
        encoder = build("ian", h=2, n=5)
        rng = np.random.default_rng(20)
        rows = rng.uniform(-1, 1, (3, 5))
        tape = tg.Tape()
        ctx = manual_ctx(tape, rows, 0, 2, n=5)
        single = [tg.take_row(ctx.x, 1)]
        out = encoder.encode(tape, ctx, features=single)
        t_state = ref_bilstm_states(rows[1:2], encoder.feature_lstm)[0]
        assert np.allclose(out.s.data[4:], t_state)

    def test_matches_reference(self):
        encoder = build("ian", h=2, n=7, feature_mode="att-ef", k=4)
        rng = np.random.default_rng(21)
        rows = rng.uniform(-1, 1, (5, 5))
        tape = tg.Tape()
        ctx = manual_ctx(tape, rows, 0, 4, n=7, frame_positions=(2, 3))
        out = encoder.encode(tape, ctx)
        want_s, gamma, _ = ref_ian(encoder, rows, 5, 0, 4, "att-ef", 4,
                                   frame_positions=(2, 3))
        assert np.allclose(out.s.data, want_s)
        assert np.allclose(out.alpha[:5], gamma)
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
            tape = tg.Tape()
            n_real = int(rng.integers(2, cfg.n + 1))
            subj, obj = [int(v) for v in rng.choice(n_real, 2, replace=False)]
            ctx = manual_ctx(tape, rng.uniform(-1, 1, (n_real, rw)),
                             subj, obj, n=cfg.n)
            out = encoder.encode(tape, ctx)
            want = EXPECTED_Z[kind](cfg, rw)
            assert out.s.data.shape == (want,)
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
            tape = tg.Tape()
            ctx = manual_ctx(tape, rng.uniform(-3, 3, (n_real, 4)),
                             subj, obj, n=7)
            alpha = encoder.encode(tape, ctx).alpha
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

        def run(permute):
            tape = tg.Tape()
            ctx = embedder.embed(tape, seq)
            pads = ctx.x.data[ctx.n_real:]
            assert np.array_equal(pads, np.zeros_like(pads))
            if permute:
                ctx.x.data[ctx.n_real:] = pads[::-1]
            return encoder.encode(tape, ctx).s.data

        assert np.array_equal(run(False), run(True))

    @pytest.mark.parametrize("kind", enc.ENCODER_KINDS)
    def test_gradient_check(self, kind):
        idx = enc.ENCODER_KINDS.index(kind)
        rng = np.random.default_rng(3000 + idx)
        embedder = make_embedder(n=6, m=2, polarity_dim=2,
                                 use_position=enc.default_use_position(kind),
                                 seed=300 + idx)
        seq = make_seq(5, subj=1, obj=3, frame_positions=(2,))
        cfg = enc.EncoderConfig(kind, n=6, h=2, filters=2, window=2, k=3,
                                feature_mode="att-ef")
        encoder = enc.build_encoder(cfg, embedder.row_width, rng)
        readout = rng.uniform(-1, 1, EXPECTED_Z[kind](cfg, embedder.row_width))

        def f(tape):
            ctx = embedder.embed(tape, seq)
            out = encoder.encode(tape, ctx)
            return tg.matmul(out.s, tape.constant(readout))

        params = embedder.parameters() + encoder.parameters()
        assert tg.gradient_check(f, params) < 1e-4

    def test_build_encoder_rejects_unknown(self):
        with pytest.raises(ValueError):
            enc.EncoderConfig("transformer")
