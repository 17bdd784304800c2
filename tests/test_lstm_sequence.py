"""The fused, batched `lstm_sequence` op and the batched encoders against
the per-timestep tape chain they replaced.

The oracle is tests/per_context.py: one context at a time, one
`lstm_step` chain of about 13 generic ops per row, per-row inputs, and
per-row attention scores. Sigmoid is written with `scale`/`tanh`/`add`.
The fused path sums in a different order, so values and gradients are
compared within 1e-10.
"""

import numpy as np
import pytest

import per_context as pc
from attex import encoders as enc
from attex import tensorgrad as tg

TOL = 1e-10


def _weighted_sum(tape, mat, weights):
    """Scalar sum of mat * weights for a tensor of any rank."""
    prod = pc.mul(mat, tape.constant(weights))
    while prod.data.ndim > 1:
        prod = tg.matmul(prod, tape.constant(np.ones(prod.shape[-1])))
    return tg.matmul(prod, tape.constant(np.ones(prod.shape[0])))


def _lstm_params(rng, m, h):
    return [tg.Parameter(rng.uniform(-1, 1, shape), name)
            for shape, name in (((m, 4 * h), "w"), ((h, 4 * h), "u"),
                                ((4 * h,), "b"))]


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("trial", range(20))
def test_matches_per_step_oracle(trial, reverse):
    rng = np.random.default_rng(7000 + trial)
    B, T, h, m = (int(rng.integers(1, 4)), int(rng.integers(1, 11)),
                  int(rng.integers(1, 5)), int(rng.integers(1, 6)))
    lengths = rng.integers(1, T + 1, size=B)
    params = _lstm_params(rng, m, h)
    x_data = rng.uniform(-2, 2, (B, T, m))
    readout = rng.uniform(-1, 1, (B, T, h))

    for p in params:
        p.zero_grad()
    tape = tg.Tape()
    x = tape.constant(x_data)
    states = tg.lstm_sequence(x, *params, lengths, reverse=reverse)
    tape.backward(_weighted_sum(tape, states, readout))
    got_x, got_params = x.grad, [p.grad.copy() for p in params]
    assert states.data.shape == (B, T, h)

    for p in params:
        p.zero_grad()
    for row, n in enumerate(lengths):
        tape = tg.Tape()
        xr = tape.constant(x_data[row, :n])
        want = pc.lstm_sequence(tape, xr, *params, reverse=reverse)
        tape.backward(_weighted_sum(tape, want, readout[row, :n]))
        assert np.allclose(states.data[row, :n], want.data, rtol=0, atol=TOL)
        assert np.all(states.data[row, n:] == 0.0)
        assert np.allclose(got_x[row, :n], xr.grad, rtol=0, atol=TOL)
        assert np.all(got_x[row, n:] == 0.0)
    for g, p in zip(got_params, params):
        assert np.allclose(g, p.grad, rtol=0, atol=TOL)


def test_single_step_single_unit_closed_form():
    # T=1, h=1: c = i*g and h = o*tanh(c) from the zero state
    rng = np.random.default_rng(2)
    w, u, b = _lstm_params(rng, 2, 1)
    x = rng.uniform(-1, 1, (1, 1, 2))
    pre = x[0, 0] @ w.data + b.data
    sig = 1.0 / (1.0 + np.exp(-pre))
    want = sig[2] * np.tanh(sig[0] * np.tanh(pre[3]))
    for reverse in (False, True):
        out = tg.lstm_sequence(tg.Tape().constant(x), w, u, b, [1],
                               reverse=reverse)
        assert out.data.shape == (1, 1, 1)
        assert out.data[0, 0, 0] == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("T,h", [(1, 1), (1, 3), (4, 1)])
def test_gradient_check_edge_sizes(T, h):
    rng = np.random.default_rng(10 * T + h)
    params = _lstm_params(rng, 2, h)
    x = tg.Parameter(rng.uniform(-1, 1, (2, T, 2)), "x")
    lengths = [T, max(1, T - 2)]
    readout = rng.uniform(-1, 1, (2, T, 2 * h))

    def f(tape):
        xm = tg.add(tape.zeros(2, T, 2), x)
        both = tg.concat([tg.lstm_sequence(xm, *params, lengths),
                          tg.lstm_sequence(xm, *params, lengths, reverse=True)],
                         axis=2)
        return _weighted_sum(tape, both, readout)

    assert tg.gradient_check(f, [x] + params) < 1e-6


@pytest.mark.parametrize("x_shape,w_shape,u_shape,b_shape", [
    ((4, 3), (3, 8), (2, 8), (8,)),          # x not (B, T, m)
    ((), (3, 8), (2, 8), (8,)),              # x a scalar
    ((1, 0, 3), (3, 8), (2, 8), (8,)),       # no steps
    ((1, 4, 3), (2, 8), (2, 8), (8,)),       # w rows != m
    ((1, 4, 3), (3, 6), (2, 8), (8,)),       # w columns != 4h
    ((1, 4, 3), (3, 8), (2, 6), (8,)),       # u not (h, 4h)
    ((1, 4, 3), (3, 8), (2, 8, 1), (8,)),    # u not a matrix
    ((1, 4, 3), (3, 8), (2, 8), (6,)),       # b not (4h,)
    ((1, 4, 3), (3, 8), (2, 8), (1, 8)),     # b not a vector
    ((1, 4, 3), (3, 0), (0, 0), (0,)),       # h = 0
])
def test_bad_shapes_rejected(x_shape, w_shape, u_shape, b_shape):
    tape = tg.Tape()
    with pytest.raises(ValueError):
        tg.lstm_sequence(tape.constant(np.zeros(x_shape)),
                         tg.Parameter(np.zeros(w_shape), "w"),
                         tg.Parameter(np.zeros(u_shape), "u"),
                         tg.Parameter(np.zeros(b_shape), "b"), [1])


@pytest.mark.parametrize("lengths", [[0, 2], [2, 5], [2], [[2, 2]]])
def test_bad_lengths_rejected(lengths):
    rng = np.random.default_rng(3)
    tape = tg.Tape()
    with pytest.raises(ValueError):
        tg.lstm_sequence(tape.constant(np.zeros((2, 4, 3))),
                         *_lstm_params(rng, 3, 2), lengths)


def test_one_tape_record_per_call():
    rng = np.random.default_rng(4)
    tape = tg.Tape()
    x = tape.constant(rng.uniform(-1, 1, (5, 9, 3)))
    before = len(tape._records)
    tg.lstm_sequence(x, *_lstm_params(rng, 3, 2), [9, 1, 4, 9, 2])
    assert len(tape._records) == before + 1


EQUIVALENT_KINDS = ("lstm", "bilstm", "att-blstm", "att-blstm-zyang", "ian",
                    "att-cnn")


@pytest.mark.parametrize("kind", EQUIVALENT_KINDS)
def test_encode_matches_per_row_path(kind):
    rng = np.random.default_rng(8000 + EQUIVALENT_KINDS.index(kind))
    for trial in range(15):
        n = int(rng.integers(3, 11))
        B = int(rng.integers(1, 4))
        mode = ("att-ef", "att-ends")[trial % 2]
        cfg = enc.EncoderConfig(kind, n=n, h=int(rng.integers(1, 5)),
                                filters=2, window=2, k=4, feature_mode=mode)
        rw = int(rng.integers(2, 6))
        encoder = enc.build_encoder(cfg, rw, rng)
        contexts = []
        for _ in range(B):
            n_real = int(rng.integers(2, n + 1))
            rows = np.vstack([rng.uniform(-2, 2, (n_real, rw)),
                              np.zeros((n - n_real, rw))])
            subj, obj = [int(v) for v in rng.choice(n_real, 2, replace=False)]
            frames = sorted(int(v) for v in rng.choice(n_real, n_real // 2,
                                                       replace=False))
            contexts.append((rows, n_real, subj, obj, frames))
        batch = batch_of(contexts, cfg)
        params = encoder.parameters()
        readout = rng.uniform(-1, 1, (B, encoder.z))

        for p in params:
            p.zero_grad()
        tape = tg.Tape()
        x = tape.constant(np.stack([c[0] for c in contexts]))
        out = encoder.encode(tape, x, batch)
        tape.backward(_weighted_sum(tape, out.s, readout))
        got = [p.grad.copy() for p in params]

        for p in params:
            p.zero_grad()
        for row, (rows, n_real, subj, obj, frames) in enumerate(contexts):
            tape = tg.Tape()
            ctx = pc.Context(tape.constant(rows), n_real, subj, obj, frames)
            s, alpha = pc.encode(tape, encoder, ctx)
            tape.backward(tg.matmul(s, tape.constant(readout[row])))
            assert np.allclose(out.s.data[row], s.data, rtol=0, atol=TOL)
            if alpha is None:
                assert out.alpha is None
            else:
                assert np.allclose(out.alpha[row, :n_real], alpha,
                                   rtol=0, atol=TOL)
                assert np.all(out.alpha[row, n_real:] == 0.0)
            assert np.allclose(x.grad[row], ctx.x.grad, rtol=0, atol=TOL)
            assert np.all(x.grad[row, n_real:] == 0.0)
        for g, p in zip(got, params):
            assert np.allclose(g, p.grad, rtol=0, atol=TOL)


def batch_of(contexts, cfg):
    """A Batch for (rows, n_real, subj, obj, frames) contexts; only the
    positions matter, the ids are never read."""
    n = contexts[0][0].shape[0]
    feats = [[subj, obj] + (list(frames) if cfg.feature_mode == "att-ef"
                            else [])
             for _, _, subj, obj, frames in contexts]
    feats = [f[:cfg.k] for f in feats]
    features = np.zeros((len(contexts), cfg.k), dtype=np.intp)
    for row, f in enumerate(feats):
        features[row, :len(f)] = f
    ids = np.zeros((len(contexts), n), dtype=np.intp)
    return enc.Batch(ids, ids, np.array([c[1] for c in contexts]),
                     np.array([c[2] for c in contexts]),
                     np.array([c[3] for c in contexts]), features,
                     np.array([len(f) for f in feats]))
