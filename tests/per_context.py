"""Per-context oracle: the model's forward pass one context at a time.

This is the path the batched encoders replaced, kept as a test oracle.
Each context is its own chain of tape ops over its own (n, row_width)
matrix: an LSTM is a per-step chain of generic ops (about 13 per row),
attention is a 1-d softmax over the context's real rows, and pcnn pools
each segment separately. The oracle reads the parameters of a real
model, so batched and per-context values and gradients can be compared.

Ops that the package does not provide (the elementwise product, row and
slice selection, stacking, the 1-d softmax, the clamped cross-entropy,
the 2-d convolution and max pool) are defined here on top of
`tg.Tensor` and the tape's record list.

The extraction and compilation that feed the model are kept here the
same way: `extract_contexts` builds every context's terms from the
tokens (`build_term_sequence`), and `compile_sequences` maps every term
of every context to its ids one by one. So is the analysis: a context's
weight for one term group (`context_group_weight`).

The batched chains that fused ops replaced are kept too, over whole
batches: one `embedding_lookup` per table and a concat (`embed_batch`),
the head as tanh, matmul and add (`head`), att-cnn's attention as a
gather, `pair_attention_scores`, a masked softmax and two einsums
(`feature_attention`), and the max pool that takes its argmax in
forward (`max_pool_over_time`). tests/test_fused_ops.py checks that each
fused op gives the same values and gradients, bit for bit.
"""

from collections import defaultdict

import numpy as np

from attex import corpus as cp
from attex import encoders as enc
from attex import lexicons as lx
from attex import tensorgrad as tg
from attex import termizer as tz


def _op(tape, value, backward):
    return tape._record(value, backward)


def _into(a, g):
    """Accumulate g into a tape tensor or a parameter."""
    if isinstance(a, tg.Parameter):
        a.grad += g
    elif a.tape is not None:
        a.grad = g if a.grad is None else a.grad + g


def mul(a, b):
    """Elementwise product of same-shape tensors."""
    def backward(g):
        _into(a, g * b.data)
        _into(b, g * a.data)
    return _op(a.tape, a.data * b.data, backward)


def take_row(a, i):
    def backward(g):
        z = np.zeros_like(a.data)
        z[i] = g
        _into(a, z)
    return _op(a.tape, a.data[i], backward)


def narrow(a, axis, start, length):
    index = [slice(None)] * a.data.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)

    def backward(g):
        z = np.zeros_like(a.data)
        z[index] = g
        _into(a, z)
    return _op(a.tape, a.data[index], backward)


def stack(parts):
    def backward(g):
        for i, p in enumerate(parts):
            _into(p, g[i])
    return _op(parts[0].tape, np.stack([p.data for p in parts]), backward)


def softmax(v):
    e = np.exp(v.data - v.data.max())
    ov = e / e.sum()

    def backward(g):
        _into(v, ov * (g - float(g @ ov)))
    return _op(v.tape, ov, backward)


def cross_entropy(probs, gold):
    """-log max(p[gold], 1e-12): the loss the fused op replaced."""
    p = float(probs.data[gold])

    def backward(g):
        z = np.zeros_like(probs.data)
        if p >= 1e-12:
            z[gold] = -float(g) / p
        _into(probs, z)
    return _op(probs.tape, np.asarray(-np.log(max(p, 1e-12))), backward)


def conv1d(x, w, b):
    """Same-length convolution of one context's rows x (n, m)."""
    xv, wv = x.data, w.data
    n, m = xv.shape
    win = wv.shape[0]
    left = win // 2
    padded = np.zeros((n + win - 1, m))
    padded[left:left + n] = xv
    ov = np.tile(b.data, (n, 1))
    for d in range(win):
        ov += padded[d:d + n] @ wv[d]

    def backward(g):
        gx = np.zeros_like(padded)
        gw = np.empty_like(wv)
        for d in range(win):
            gw[d] = padded[d:d + n].T @ g
            gx[d:d + n] += g @ wv[d].T
        _into(x, gx[left:left + n])
        _into(w, gw)
        _into(b, g.sum(axis=0))
    return _op(x.tape, ov, backward)


def max_pool(a):
    """Columnwise max of (T, f); the gradient goes to the first argmax."""
    rows = np.argmax(a.data, axis=0)
    cols = np.arange(a.data.shape[1])

    def backward(g):
        z = np.zeros_like(a.data)
        z[rows, cols] = g
        _into(a, z)
    return _op(a.tape, a.data[rows, cols], backward)


def _sigmoid(tape, v):
    # sigmoid(v) = 0.5 * (1 + tanh(v / 2))
    one = tg.Tensor(np.ones(v.shape[0]), tape)
    return tg.scale(tg.add(tg.tanh(tg.scale(v, 0.5)), one), 0.5)


def lstm_step(tape, x_t, h_prev, c_prev, w, u, b):
    h = u.shape[0]
    pre = tg.add(tg.add(tg.matmul(x_t, w), tg.matmul(h_prev, u)), b)
    gate_i = _sigmoid(tape, narrow(pre, 0, 0, h))
    gate_f = _sigmoid(tape, narrow(pre, 0, h, h))
    gate_o = _sigmoid(tape, narrow(pre, 0, 2 * h, h))
    cand = tg.tanh(narrow(pre, 0, 3 * h, h))
    c_t = tg.add(mul(gate_f, c_prev), mul(gate_i, cand))
    h_t = mul(gate_o, tg.tanh(c_t))
    return h_t, c_t


def lstm_run(tape, rows, w, u, b):
    """States after each row of the list `rows`, in order."""
    h = u.shape[0]
    h_t, c_t = tg.Tensor(np.zeros(h), tape), tg.Tensor(np.zeros(h), tape)
    states = []
    for x_t in rows:
        h_t, c_t = lstm_step(tape, x_t, h_t, c_t, w, u, b)
        states.append(h_t)
    return states


def cell_views(w, u, b, d):
    """Direction d's w (m, 4, h), u (h, 4h) and b (4, h): views of the
    gate-major arrays that `tg.lstm_sequence` reads."""
    D, h, _ = u.shape
    return w.reshape(-1, 4, D, h)[:, :, d], u[d], b.reshape(4, D, h)[:, d]


def lstm_direction(tape, w, u, b, d):
    """Direction d's cell w (m, 4h), u (h, 4h), b (4h,) as tape tensors
    read from `cell_views`; their gradients land in the same views of
    the parameters' grads."""
    h = u.shape[1]
    shapes = ((w.shape[0], 4 * h), (h, 4 * h), (4 * h,))
    cell = []
    for data, grad, shape in zip(cell_views(w.data, u.data, b.data, d),
                                 cell_views(w.grad, u.grad, b.grad, d),
                                 shapes):
        def backward(g, grad=grad):
            grad += g.reshape(grad.shape)
        cell.append(_op(tape, data.reshape(shape), backward))
    return cell


def lstm_states(tape, lstm, rows):
    """An enc.Lstm's states after each row: direction 0 forward, then
    direction 1 backward, joined per row."""
    cells = [lstm_direction(tape, lstm.w, lstm.u, lstm.b, d)
             for d in range(lstm.u.shape[0])]
    runs = [lstm_run(tape, rows, *cells[0])]
    if len(cells) == 2:
        runs.append(lstm_run(tape, rows[::-1], *cells[1])[::-1])
    return [tg.concat(list(parts), axis=0) for parts in zip(*runs)]


class Context:
    """One embedded context: x (n, row_width) plus its positions."""

    def __init__(self, x, n_real, subj_pos, obj_pos, frame_positions=()):
        self.x = x
        self.n_real = n_real
        self.subj_pos = subj_pos
        self.obj_pos = obj_pos
        self.frame_positions = tuple(frame_positions)


def embedding_lookup(tape, table, ids, mask=None):
    """Rows of one table for an id array of any shape; where the boolean
    mask is False the row is 0 and takes no gradient."""
    idx = np.asarray(ids, dtype=np.intp)
    live = idx if mask is None else idx[mask]
    ov = table.data[idx]
    if mask is not None:
        ov[~mask] = 0.0

    def backward(g):
        np.add.at(table.grad, live, g if mask is None else g[mask])
    return _op(tape, ov, backward)


def embed(tape, embedder, seq):
    """A TermSequence as a Context, looked up term by term."""
    n_real = len(seq.terms)
    vocab = embedder.vocab
    neutral = lx.POLARITIES.index(lx.NEUTRAL)
    word_ids = [vocab.id_of_term(t) for t in seq.terms]
    polarity_ids = [lx.POLARITIES.index(t.polarity) if t.kind == tz.FRAME
                    else neutral for t in seq.terms]
    parts = [embedding_lookup(tape, embedder.word_table, word_ids),
             embedding_lookup(tape, embedder.polarity_table, polarity_ids)]
    if embedder.use_position:
        md = embedder.max_distance
        for anchor in (seq.subj_pos, seq.obj_pos):
            ids = [max(-md, min(md, i - anchor)) + md for i in range(n_real)]
            parts.append(embedding_lookup(tape, embedder.position_table, ids))
    x = tg.concat(parts, axis=1)
    if n_real < embedder.n:
        pad = tg.Tensor(np.zeros((embedder.n - n_real, embedder.row_width)), tape)
        x = tg.concat([x, pad], axis=0)
    frames = [i for i, t in enumerate(seq.terms) if t.kind == tz.FRAME]
    return Context(x, n_real, seq.subj_pos, seq.obj_pos, frames)


def features(ctx, mode, k):
    """Participant rows, plus frame rows in order for att-ef, <= k total."""
    rows = [take_row(ctx.x, ctx.subj_pos), take_row(ctx.x, ctx.obj_pos)]
    if mode == "att-ef":
        for pos in ctx.frame_positions[:k - 2]:
            rows.append(take_row(ctx.x, pos))
    return rows


def _pcnn(encoder, ctx):
    conv = conv1d(ctx.x, encoder.w, encoder.b)
    p1, p2 = sorted((ctx.subj_pos, ctx.obj_pos))
    blocks = []
    for start, end in ((0, p1 + 1), (p1 + 1, p2 + 1), (p2 + 1, ctx.n_real)):
        if end > start:
            blocks.append(max_pool(narrow(conv, 0, start, end - start)))
        else:
            blocks.append(tg.Tensor(np.zeros(encoder.cfg.filters), ctx.x.tape))
    return tg.concat(blocks, axis=0)


def _mean(tape, states):
    weights = tg.Tensor(np.full(len(states), 1.0 / len(states)), tape)
    return tg.matmul(weights, stack(states))


def _ian_attend(states, pooled, w, b):
    mat = stack(states)
    scores = [tg.matmul(tg.matmul(s_i, w), pooled) for s_i in states]
    weights = softmax(tg.tanh(tg.add(stack(scores), b)))
    return tg.matmul(weights, mat), weights


def encode(tape, encoder, ctx):
    """(s, alpha over the real rows or None) of one context."""
    kind = encoder.kind
    rows = [take_row(ctx.x, i) for i in range(ctx.n_real)]
    if kind == "cnn":
        conv = tg.tanh(conv1d(ctx.x, encoder.w, encoder.b))
        return max_pool(narrow(conv, 0, 0, ctx.n_real)), None
    if kind == "pcnn":
        return _pcnn(encoder, ctx), None
    if kind in ("lstm", "bilstm"):
        return lstm_states(tape, encoder.lstm, rows)[-1], None
    if kind in ("att-blstm", "att-blstm-zyang"):
        h_mat = stack(lstm_states(tape, encoder.bilstm, rows))
        if kind == "att-blstm":
            alpha = softmax(tg.matmul(tg.tanh(h_mat), encoder.w))
            return tg.tanh(tg.matmul(alpha, h_mat)), alpha.data
        projected = tg.tanh(tg.add(tg.matmul(h_mat, encoder.w_a), encoder.b_a))
        alpha = softmax(tg.matmul(projected, encoder.u_w))
        return tg.matmul(alpha, h_mat), alpha.data
    feats = features(ctx, encoder.cfg.feature_mode, encoder.cfg.k)
    if kind == "ian":
        c_states = lstm_states(tape, encoder.context_lstm, rows)
        t_states = lstm_states(tape, encoder.feature_lstm, feats)
        attended_c, gamma = _ian_attend(c_states, _mean(tape, t_states),
                                        encoder.w_c, encoder.b_c)
        attended_t, _ = _ian_attend(t_states, _mean(tape, c_states),
                                    encoder.w_t, encoder.b_t)
        return tg.concat([attended_c, attended_t], axis=0), gamma.data
    assert kind == "att-cnn"
    pooled = _pcnn(encoder.pcnn, ctx)
    x_real = narrow(ctx.x, 0, 0, ctx.n_real)
    summaries, weights = [], []
    for feat in feats:
        scores = []
        for x_i in rows:
            hidden = tg.tanh(tg.add(tg.matmul(
                tg.concat([x_i, feat], axis=0), encoder.w1), encoder.b1))
            scores.append(tg.matmul(hidden, encoder.w2))
        alpha_j = softmax(stack(scores))
        weights.append(alpha_j.data)
        summaries.append(tg.matmul(alpha_j, x_real))
    attended = summaries[0]
    for extra in summaries[1:]:
        attended = tg.add(attended, extra)
    attended = tg.scale(attended, 1.0 / len(summaries))
    mean_alpha = np.mean(weights, axis=0)
    return (tg.concat([pooled, attended], axis=0),
            mean_alpha / mean_alpha.sum())


def forward(tape, model, seq):
    """(probabilities (3,), alpha over the real rows or None) of one context."""
    ctx = embed(tape, model.embedder, seq)
    s, alpha = encode(tape, model.encoder, ctx)
    logits = head(s, model.head.w_r, model.head.b_r)
    return softmax(logits), alpha


def mean_loss(tape, model, seqs, golds):
    """Mean clamped cross-entropy over the contexts, summed then scaled."""
    total = None
    for seq, gold in zip(seqs, golds):
        probs, _ = forward(tape, model, seq)
        loss = cross_entropy(probs, int(gold))
        total = loss if total is None else tg.add(total, loss)
    return tg.scale(total, 1.0 / len(seqs))


def lstm_sequence(tape, x, w, u, b, reverse=False):
    """States (T, h) of the rows of one context's x (T, m)."""
    rows = [take_row(x, i) for i in range(x.shape[0])]
    if reverse:
        return stack(lstm_run(tape, rows[::-1], w, u, b)[::-1])
    return stack(lstm_run(tape, rows, w, u, b))


def embed_batch(tape, embedder, batch):
    """Embedder.embed as one lookup per table, then a concat."""
    mask = batch.mask
    parts = [embedding_lookup(tape, embedder.word_table, batch.word_ids, mask),
             embedding_lookup(tape, embedder.polarity_table,
                              batch.polarity_ids, mask)]
    if embedder.use_position:
        steps = np.arange(batch.word_ids.shape[1])
        for anchor in (batch.subj_pos, batch.obj_pos):
            distance = np.clip(steps - anchor[:, None], -embedder.max_distance,
                               embedder.max_distance)
            parts.append(embedding_lookup(
                tape, embedder.position_table,
                distance + embedder.max_distance, mask))
    return tg.concat(parts, axis=2)


def head(s, w, b):
    """ClassifierHead.forward as tanh, matmul and add."""
    return tg.add(tg.matmul(tg.tanh(s), w), b)


def max_pool_over_time(a, starts, ends):
    """tg.max_pool_over_time with its argmax taken in forward over
    (B, S, T, f) and its gradient scattered by np.add.at."""
    av = a.data
    starts, ends = np.asarray(starts), np.asarray(ends)
    B, T, f = av.shape
    steps = np.arange(T)
    inside = (steps >= starts[:, :, None]) & (steps < ends[:, :, None])
    filled = inside.any(axis=2)[:, :, None]
    values = np.where(inside[:, :, :, None], av[:, None], -np.inf)
    rows = values.argmax(axis=2)  # (B, S, f), first maximum
    picked = np.take_along_axis(values, rows[:, :, None], axis=2)[:, :, 0]
    index = (np.arange(B)[:, None, None], rows, np.arange(f))

    def backward(g):
        z = np.zeros_like(av)
        np.add.at(z, index, g.reshape(rows.shape) * filled)
        _into(a, z)
    return _op(a.tape, np.where(filled, picked, 0.0).reshape(B, -1), backward)


def pair_attention_scores(x, feats, w1, b1, w2):
    """Scores tanh([x_t ; f_j]·W1 + b1)·w2 (B, k, T) of every step of
    x (B, T, m) against every feature row of feats (B, k, m)."""
    xv, fv, w1v, b1v, w2v = x.data, feats.data, w1.data, b1.data, w2.data
    m = xv.shape[-1]
    wx, wf = w1v[:m], w1v[m:]
    hidden = np.tanh((xv @ wx)[:, None] + (fv @ wf)[:, :, None] + b1v)

    def backward(g):
        dpre = g[..., None] * w2v * (1.0 - hidden * hidden)  # (B, k, T, h)
        dx_w, df_w = dpre.sum(axis=1), dpre.sum(axis=2)
        _into(x, dx_w @ wx.T)
        _into(feats, df_w @ wf.T)
        _into(w1, np.concatenate(
            (xv.reshape(-1, m).T @ dx_w.reshape(-1, wx.shape[1]),
             fv.reshape(-1, m).T @ df_w.reshape(-1, wf.shape[1]))))
        _into(b1, dpre.sum(axis=(0, 1, 2)))
        _into(w2, np.einsum("bkt,bkth->h", g, hidden))
    return _op(x.tape, hidden @ w2v, backward)


def feature_attention(tape, x, features, feature_mask, mask, w1, b1, w2):
    """tg.feature_attention as gather, pair scores, softmax masked by the
    real steps and two einsums: (attended (B, m), alpha (B, T))."""
    feats = tg.gather(x, features)
    scores = pair_attention_scores(x, feats, w1, b1, w2)
    alpha = tg.softmax(scores, mask[:, None, :])  # (B, k, T)
    weights = feature_mask / feature_mask.sum(axis=1, keepdims=True)
    summaries = tg.einsum("bkt,btm->bkm", alpha, x)
    attended = tg.einsum("bk,bkm->bm", tg.Tensor(weights, tape), summaries)
    mean_alpha = np.einsum("bk,bkt->bt", weights, alpha.data)
    mean_alpha /= mean_alpha.sum(axis=1, keepdims=True)
    return attended, mean_alpha


def context_group_weight(alpha, terms, group, sentiment_lexicon=None,
                         preposition_list=None):
    """Sum of one context's weights, in position order, over the
    positions whose term belongs to the group."""
    if len(alpha) != len(terms):
        raise ValueError("weight count %d does not match %d terms"
                         % (len(alpha), len(terms)))
    total = 0
    for a, term in zip(alpha, terms):
        if tz.group_of(term, sentiment_lexicon, preposition_list) == group:
            total += a
    return float(total)


def random_contexts(rng, n, count, words=6):
    """Random TermSequences of 2..n terms with frames of every polarity."""
    seqs = []
    for _ in range(count):
        n_real = int(rng.integers(2, n + 1))
        subj, obj = (int(v) for v in rng.choice(n_real, 2, replace=False))
        terms = []
        for pos in range(n_real):
            if rng.random() < 0.4:
                terms.append(tz.Term.frame("f%d" % int(rng.integers(0, words)),
                                           str(rng.choice(lx.POLARITIES))))
            else:
                terms.append(tz.Term.word("w%d" % int(rng.integers(0, words))))
        terms[subj] = tz.Term.entity_subj()
        terms[obj] = tz.Term.entity_obj()
        seqs.append(tz.TermSequence(terms, subj, obj))
    return seqs


def vocab_for(seqs):
    lemmas = [t.lemma for seq in seqs for t in seq.terms
              if t.kind in (tz.WORD, tz.FRAME)]
    return enc.Vocab(lemmas)


def build_term_sequence(tokens, mentions, subj_span, obj_span, frames=(),
                        lemmatizer=tz.lemmatize):
    """Mask mentions, collapse frame matches, classify leftover tokens.

    tokens: sentence surface tokens.
    mentions: (start, end, group_id) half-open token spans, disjoint.
    subj_span, obj_span: the chosen participant mention spans; must be
        members of `mentions`.
    frames: ((start, end), polarity) matches over the lemmatized tokens;
        matches overlapping any mention are discarded.
    """
    subj_span = tuple(subj_span)
    obj_span = tuple(obj_span)
    if subj_span == obj_span:
        raise ValueError("subject and object use the same mention")
    mention_spans = {(m[0], m[1]) for m in mentions}
    if subj_span not in mention_spans:
        raise ValueError("subject mention absent from sentence")
    if obj_span not in mention_spans:
        raise ValueError("object mention absent from sentence")

    lemmas = [lemmatizer(tok) for tok in tokens]
    in_mention = [False] * len(tokens)
    for start, end in mention_spans:
        for i in range(start, end):
            in_mention[i] = True

    mention_at = {m[0]: (m[0], m[1]) for m in mentions}
    frame_at = {}
    for (start, end), polarity in frames:
        if any(in_mention[start:end]):
            continue
        frame_at[start] = (end, polarity)

    terms = []
    subj_pos = obj_pos = None
    i = 0
    while i < len(tokens):
        if i in mention_at:
            start, end = mention_at[i]
            if (start, end) == subj_span:
                subj_pos = len(terms)
                terms.append(tz.Term.entity_subj())
            elif (start, end) == obj_span:
                obj_pos = len(terms)
                terms.append(tz.Term.entity_obj())
            else:
                terms.append(tz.Term.entity_other())
            i = end
        elif i in frame_at:
            end, polarity = frame_at[i]
            preceding = lemmas[i - 1] if i > 0 else ""
            adjusted = lx.apply_negation(polarity, preceding)
            terms.append(tz.Term.frame(" ".join(lemmas[i:end]), adjusted))
            i = end
        else:
            kind = tz.classify_token(tokens[i])
            if kind is None:
                terms.append(tz.Term.word(lemmas[i]))
            else:
                terms.append(tz.Term.token(kind))
            i += 1

    return tz.TermSequence(terms, subj_pos, obj_pos)


def extract_contexts(doc, opinions, frame_lexicon=None, lemmatizer=tz.lemmatize):
    """cp.extract_contexts with every context built from the tokens."""
    sent_lemmas = [[lemmatizer(t) for t in s.tokens] for s in doc.sentences]
    if frame_lexicon is None:
        sent_frames = [[] for _ in doc.sentences]
    else:
        sent_frames = [lx.match_frames(lemmas, frame_lexicon)
                       for lemmas in sent_lemmas]
    mentions_by_sentence = defaultdict(list)
    for m in doc.entity_mentions:
        mentions_by_sentence[m.sentence_idx].append(m)

    samples = []
    for opinion in opinions:
        for s_idx, sentence in enumerate(doc.sentences):
            mentions = mentions_by_sentence[s_idx]
            sources = [m for m in mentions if m.group_id == opinion.source_group]
            targets = [m for m in mentions if m.group_id == opinion.target_group]
            if not sources or not targets:
                continue
            subj, obj = min(
                ((s, t) for s in sources for t in targets),
                key=lambda pair: (abs(pair[0].token_span[0] - pair[1].token_span[0]),
                                  pair[0].token_span[0], pair[1].token_span[0]))
            seq = build_term_sequence(
                sentence.tokens,
                [(m.token_span[0], m.token_span[1], m.group_id) for m in mentions],
                subj.token_span, obj.token_span,
                frames=sent_frames[s_idx], lemmatizer=lemmatizer)
            samples.append(cp.ContextSample(doc.doc_id, s_idx, seq, opinion.label,
                                            opinion.source_group, opinion.target_group))
    return samples


def compile_sequences(seqs, vocab, n, k=2, feature_mode="att-ends"):
    """enc.compile_sequences with every term of every context mapped by
    vocab.id_of_term, one by one."""
    count = len(seqs)
    word_ids = np.zeros((count, n), dtype=np.intp)
    polarity_ids = np.zeros((count, n), dtype=np.intp)
    lengths = np.empty(count, dtype=np.intp)
    features = np.zeros((count, k), dtype=np.intp)
    feature_lengths = np.empty(count, dtype=np.intp)
    neutral = lx.POLARITIES.index(lx.NEUTRAL)
    for i, seq in enumerate(seqs):
        terms = seq.terms
        lengths[i] = len(terms)
        word_ids[i, :len(terms)] = [vocab.id_of_term(t) for t in terms]
        polarity_ids[i, :len(terms)] = [
            lx.POLARITIES.index(t.polarity) if t.kind == tz.FRAME else neutral
            for t in terms]
        feats = [seq.subj_pos, seq.obj_pos]
        if feature_mode == "att-ef":
            feats += [j for j, t in enumerate(terms) if t.kind == tz.FRAME]
        feats = feats[:k]
        features[i, :len(feats)] = feats
        feature_lengths[i] = len(feats)
    subj_pos = np.array([seq.subj_pos for seq in seqs], dtype=np.intp)
    obj_pos = np.array([seq.obj_pos for seq in seqs], dtype=np.intp)
    return enc.Batch(word_ids, polarity_ids, lengths, subj_pos, obj_pos,
                     features, feature_lengths)
