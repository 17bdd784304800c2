"""The fused ops against the chains they replaced, bit for bit.

tests/per_context.py keeps each replaced chain: one lookup per table and
a concat for `embedding_lookup`, tanh, matmul and add for `tanh_affine`,
gather, `pair_attention_scores`, a masked softmax and two einsums for
`feature_attention`, and the max pool that took its argmax in forward.
On random batches each fused op must give the same output, the same
attention weights and the same gradients, compared with np.array_equal,
and pass the gradient check. The trims of conv1d, Adam and the loss keep
their values too.
"""

import numpy as np
import pytest

import per_context as pc
from attex import encoders as enc
from attex import model as md
from attex import tensorgrad as tg


def backprop(tape, out, g):
    """The reverse sweep of tape from a seed gradient g of out."""
    out.grad = g
    for o, fn in reversed(tape._records):
        if o.grad is not None:
            fn(o.grad)


def run(build, params, g_of):
    """(output values, gradients of params and of the tape leaves) of one
    forward built by build(tape) and one backward from g_of(output)."""
    for p in params:
        p.zero_grad()
    tape = tg.Tape()
    out, leaves, extra = build(tape)
    backprop(tape, out, g_of(out.data.shape))
    return (out.data, extra, [p.grad.copy() for p in params]
            + [leaf.grad for leaf in leaves])


def assert_same(got, want):
    (out, extra, grads), (want_out, want_extra, want_grads) = got, want
    assert np.array_equal(out, want_out)
    assert (extra is None) == (want_extra is None)
    if extra is not None:
        assert np.array_equal(extra, want_extra)
    assert len(grads) == len(want_grads)
    for g, w in zip(grads, want_grads):
        assert np.array_equal(g, w)


def random_lengths(rng, B, T):
    """Lengths in [1, T], with 1 and T always among them."""
    lengths = rng.integers(1, T + 1, B)
    lengths[0], lengths[-1] = 1, T
    return lengths


def seeded(rng):
    return lambda shape: rng.normal(size=shape)


# embedding_lookup ----------------------------------------------------------

@pytest.mark.parametrize("use_position", [False, True])
@pytest.mark.parametrize("trial", range(5))
def test_embedding_equals_one_lookup_per_table(use_position, trial):
    rng = np.random.default_rng([1, trial, use_position])
    n = int(rng.integers(2, 9))
    seqs = pc.random_contexts(rng, n, int(rng.integers(1, 9)))
    embedder = enc.Embedder(pc.vocab_for(seqs), n, m=3, polarity_dim=2,
                            use_position=use_position, position_dim=2,
                            max_distance=int(rng.integers(1, n)), rng=rng)
    for p in embedder.parameters():
        p.data[...] = rng.normal(size=p.data.shape)
    batch = enc.compile_sequences(seqs, embedder.vocab, n)
    params = embedder.parameters()
    g_of = seeded(np.random.default_rng(trial))
    got = run(lambda tape: (embedder.embed(tape, batch), [], None), params,
              g_of)
    g_of = seeded(np.random.default_rng(trial))
    want = run(lambda tape: (pc.embed_batch(tape, embedder, batch), [], None),
               params, g_of)
    assert_same(got, want)
    if use_position:
        # Both participants' distances read the one position table.
        assert np.any(got[2][2] != 0.0)


@pytest.mark.parametrize("trial", range(10))
def test_embedding_tables_side_by_side(trial):
    # Raw ids over several tables, one listed twice, masks with empty
    # rows and rows of one real step, and repeated ids.
    rng = np.random.default_rng([2, trial])
    B, n = int(rng.integers(1, 6)), int(rng.integers(1, 7))
    tables = [tg.Parameter(rng.normal(size=(int(rng.integers(1, 5)),
                                            int(rng.integers(1, 4)))), name)
              for name in ("a", "b")]
    listed = [tables[0], tables[1], tables[1]]
    ids = [rng.integers(0, t.data.shape[0], (B, n)) for t in listed]
    mask = np.arange(n) < rng.integers(0, n + 1, B)[:, None]
    got = run(lambda tape: (tg.embedding_lookup(tape, listed, ids, mask), [],
                            None), tables, seeded(np.random.default_rng(0)))

    def chain(tape):
        return tg.concat([pc.embedding_lookup(tape, t, i, mask)
                          for t, i in zip(listed, ids)], axis=2), [], None

    want = run(chain, tables, seeded(np.random.default_rng(0)))
    assert_same(got, want)


def test_embedding_rejects_bad_ids():
    table = tg.Parameter(np.zeros((3, 2)), "t")
    one = np.ones(1, dtype=bool)
    with pytest.raises(IndexError):
        tg.embedding_lookup(tg.Tape(), [table, table], [[0], [-1]], one)
    with pytest.raises(ValueError):
        tg.embedding_lookup(tg.Tape(), [table, table], [[0]], one)
    with pytest.raises(ValueError):
        tg.embedding_lookup(tg.Tape(), [table, table], [[0], [0, 1]], one)
    # A masked id is never read, so it may be out of range.
    out = tg.embedding_lookup(tg.Tape(), [table], [[1, 7]], [True, False])
    assert out.data.shape == (2, 2)


# tanh_affine -----------------------------------------------------------------

@pytest.mark.parametrize("trial", range(10))
def test_tanh_affine_equals_tanh_matmul_add(trial):
    rng = np.random.default_rng([3, trial])
    B, z, c = (int(v) for v in rng.integers(1, 7, 3))
    w = tg.Parameter(rng.normal(size=(z, c)), "w")
    b = tg.Parameter(rng.normal(size=c), "b")
    s = rng.normal(scale=2.0, size=(B, z))

    def fused(tape):
        leaf = tg.Tensor(s, tape)
        return tg.tanh_affine(leaf, w, b), [leaf], None

    def chain(tape):
        leaf = tg.Tensor(s, tape)
        return pc.head(leaf, w, b), [leaf], None

    assert_same(run(fused, [w, b], seeded(np.random.default_rng(trial))),
                run(chain, [w, b], seeded(np.random.default_rng(trial))))


# max_pool_over_time ----------------------------------------------------------

def pool_case(rng, ties):
    B, T, f = int(rng.integers(1, 6)), int(rng.integers(1, 8)), \
        int(rng.integers(1, 5))
    a = rng.integers(-2, 3, (B, T, f)).astype(float) if ties \
        else rng.normal(size=(B, T, f))
    lengths = random_lengths(rng, B, T)
    # Three consecutive segments ending at each row's length; any of
    # them may be empty, as pcnn's are when a participant comes first.
    cuts = np.sort(rng.integers(0, lengths[:, None] + 1, (B, 2)), axis=1)
    starts = np.concatenate([np.zeros((B, 1), dtype=int), cuts], axis=1)
    ends = np.concatenate([cuts, lengths[:, None]], axis=1)
    return a, starts, ends


@pytest.mark.parametrize("ties", [False, True])
@pytest.mark.parametrize("trial", range(20))
def test_max_pool_equals_forward_argmax_pool(ties, trial):
    rng = np.random.default_rng([5, trial, ties])
    a, starts, ends = pool_case(rng, ties)

    def build(pool):
        def f(tape):
            leaf = tg.Tensor(a, tape)
            return pool(leaf, starts, ends), [leaf], None
        return f

    g = seeded(np.random.default_rng(trial))
    got = run(build(tg.max_pool_over_time), [], g)
    g = seeded(np.random.default_rng(trial))
    want = run(build(pc.max_pool_over_time), [], g)
    assert_same(got, want)
    if ties:
        # Each filled segment sends its gradient to one step per column.
        hits = (got[2][0] != 0.0).sum(axis=1)
        assert np.all(hits <= (ends > starts).sum(axis=1)[:, None])


# feature_attention -----------------------------------------------------------

def attention_case(rng, zero_padding):
    B, T, m = int(rng.integers(1, 6)), int(rng.integers(1, 8)), \
        int(rng.integers(1, 4))
    k, h = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    lengths = random_lengths(rng, B, T)
    mask = np.arange(T) < lengths[:, None]
    x = rng.normal(size=(B, T, m)) * mask[:, :, None]
    # Real features repeat positions; padded ones sit at 0 as in a Batch,
    # or anywhere.
    features = rng.integers(0, lengths[:, None], (B, k))
    feature_mask = np.arange(k) < rng.integers(1, k + 1, B)[:, None]
    if zero_padding:
        features[~feature_mask] = 0
    params = [tg.Parameter(rng.normal(size=shape), name) for name, shape in
              (("w1", (2 * m, h)), ("b1", (h,)), ("w2", (h,)))]
    return x, features, feature_mask, mask, params


@pytest.mark.parametrize("zero_padding", [False, True])
@pytest.mark.parametrize("trial", range(20))
def test_feature_attention_equals_the_chain(zero_padding, trial):
    rng = np.random.default_rng([6, trial, zero_padding])
    x, features, feature_mask, mask, params = attention_case(rng,
                                                             zero_padding)

    def fused(tape):
        leaf = tg.Tensor(x, tape)
        out, alpha = tg.feature_attention(leaf, features, feature_mask, mask,
                                          *params)
        return out, [leaf], alpha

    def chain(tape):
        leaf = tg.Tensor(x, tape)
        out, alpha = pc.feature_attention(tape, leaf, features, feature_mask,
                                          mask, *params)
        return out, [leaf], alpha

    got = run(fused, params, seeded(np.random.default_rng(trial)))
    want = run(chain, params, seeded(np.random.default_rng(trial)))
    assert_same(got, want)
    alpha = got[1]
    assert np.all(alpha[~mask] == 0.0)
    assert np.allclose(alpha.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_feature_attention_rejects_bad_input():
    rng = np.random.default_rng(7)
    x, features, feature_mask, mask, params = attention_case(rng, True)
    leaf = tg.Tensor(x, tg.Tape())
    with pytest.raises(IndexError):
        tg.feature_attention(leaf, features + x.shape[1], feature_mask, mask,
                             *params)
    with pytest.raises(ValueError, match="no real"):
        tg.feature_attention(leaf, features, feature_mask, mask & False,
                             *params)
    with pytest.raises(ValueError, match="no real"):
        tg.feature_attention(leaf, features, feature_mask & False, mask,
                             *params)
    with pytest.raises(ValueError, match="expects"):
        tg.feature_attention(leaf, features, feature_mask, mask, params[0],
                             params[1], params[0])


# the gradient check of each fused op -------------------------------------------

def lifted(tape, param):
    return tg.add(tg.Tensor(np.zeros(param.data.shape), tape), param)


def scalar(out, weights):
    """A fixed linear functional of out, as a scalar for gradient_check."""
    spec = "abcd"[:out.data.ndim]
    return tg.einsum(f"{spec},{spec}->", out, tg.Tensor(weights, out.tape))


@pytest.mark.parametrize("trial", range(5))
def test_fused_ops_pass_gradient_check(trial):
    rng = np.random.default_rng([8, trial])
    word = tg.Parameter(rng.normal(size=(5, 2)), "word")
    position = tg.Parameter(rng.normal(size=(4, 1)), "position")
    ids = [rng.integers(0, 5, (3, 4)), rng.integers(0, 4, (3, 4)),
           rng.integers(0, 4, (3, 4))]
    mask = np.arange(4) < np.array([[1], [4], [2]])

    def embedding(tape):
        out = tg.embedding_lookup(tape, [word, position, position], ids, mask)
        return scalar(out, rng_weights((3, 4, 4)))

    s = tg.Parameter(rng.normal(size=(3, 4)), "s")
    w = tg.Parameter(rng.normal(size=(4, 3)), "w")
    b = tg.Parameter(rng.normal(size=3), "b")

    def head(tape):
        return tg.softmax_cross_entropy(tg.tanh_affine(lifted(tape, s), w, b),
                                        [0, 2, 1])

    a = tg.Parameter(rng.normal(size=(3, 5, 2)), "a")

    def pool(tape):
        out = tg.max_pool_over_time(lifted(tape, a), [[0, 2], [0, 1], [0, 0]],
                                    [[2, 5], [1, 3], [0, 4]])
        return scalar(out, rng_weights((3, 4)))

    x, features, feature_mask, att_mask, params = attention_case(rng, True)
    xp = tg.Parameter(x, "x")

    def attention(tape):
        out, _ = tg.feature_attention(lifted(tape, xp), features,
                                      feature_mask, att_mask, *params)
        return scalar(out, rng_weights(x.shape[::2]))

    weights_rng = np.random.default_rng(trial)
    fixed = {}

    def rng_weights(shape):
        if shape not in fixed:
            fixed[shape] = weights_rng.normal(size=shape)
        return fixed[shape]

    for f, ps in ((embedding, [word, position]), (head, [s, w, b]),
                  (pool, [a]), (attention, [xp] + params)):
        assert tg.gradient_check(f, ps) < 1e-6, f.__name__


# the trims keep their values ---------------------------------------------------

@pytest.mark.parametrize("win", [1, 2, 3])
def test_conv1d_equals_the_padded_sum(win):
    rng = np.random.default_rng(9 + win)
    x = rng.normal(size=(4, 5, 3))
    w = rng.normal(size=(win, 3, 2))
    b = rng.normal(size=2)
    padded = np.zeros((4, 5 + win - 1, 3))
    padded[:, win // 2:win // 2 + 5] = x
    want = np.broadcast_to(b, (4, 5, 2)).copy()
    for d in range(win):
        want += padded[:, d:d + 5] @ w[d]
    tape = tg.Tape()
    got = tg.conv1d(tg.Tensor(x, tape), tg.Tensor(w, tape), tg.Tensor(b, tape))
    assert np.array_equal(got.data, want)


def test_adam_in_place_equals_the_formula():
    rng = np.random.default_rng(13)
    param = tg.Parameter(rng.normal(size=7), "p")
    adam = md.Adam(param, 0.01)
    data, m, v = param.data.copy(), np.zeros(7), np.zeros(7)
    for t in range(1, 21):
        grad = rng.normal(size=7) * (rng.random(7) < 0.7)
        param.grad[...] = grad
        adam.step()
        m = 0.9 * m + (1 - 0.9) * grad
        v = 0.999 * v + (1 - 0.999) * grad ** 2
        m_hat = m / (1 - 0.9 ** t)
        v_hat = v / (1 - 0.999 ** t)
        data -= 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert np.array_equal(param.data, data)


@pytest.mark.parametrize("trial", range(5))
def test_cross_entropy_equals_the_formula(trial):
    rng = np.random.default_rng([14, trial])
    logits = rng.normal(scale=3.0, size=(6, 3))
    gold = rng.integers(0, 3, 6)
    tape = tg.Tape()
    leaf = tg.Tensor(logits, tape)
    loss = tg.softmax_cross_entropy(leaf, gold)
    tape.backward(loss)
    rows = np.arange(6)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1)
    assert loss.data == np.mean(np.log(total) - shifted[rows, gold])
    d = e / total[:, None]
    d[rows, gold] -= 1.0
    assert np.array_equal(leaf.grad, d * (1.0 / 6))
