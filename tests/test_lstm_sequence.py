"""The fused `lstm_sequence` op and the matrix-level encoders against the
per-timestep tape chain they replaced.

The oracle below is the old path, built from generic tape ops only: one
`LstmCell.step`-style chain of about 13 ops per row, per-row `take_row`
inputs, and per-row attention scores. Sigmoid is written with
`scale`/`tanh`/`add`. The fused path sums in a different order, so values
and gradients are compared within 1e-10.
"""

import numpy as np
import pytest

from attex import encoders as enc
from attex import tensorgrad as tg

TOL = 1e-10


def _sigmoid(tape, v):
    # sigmoid(v) = 0.5 * (1 + tanh(v / 2))
    one = tape.constant(np.ones(v.shape[0]))
    return tg.scale(tg.add(tg.tanh(tg.scale(v, 0.5)), one), 0.5)


def oracle_step(tape, x_t, h_prev, c_prev, w, u, b):
    h = u.shape[0]
    pre = tg.add(tg.add(tg.matmul(x_t, w), tg.matmul(h_prev, u)), b)
    gate_i = _sigmoid(tape, tg.narrow(pre, 0, 0, h))
    gate_f = _sigmoid(tape, tg.narrow(pre, 0, h, h))
    gate_o = _sigmoid(tape, tg.narrow(pre, 0, 2 * h, h))
    cand = tg.tanh(tg.narrow(pre, 0, 3 * h, h))
    c_t = tg.add(tg.mul(gate_f, c_prev), tg.mul(gate_i, cand))
    h_t = tg.mul(gate_o, tg.tanh(c_t))
    return h_t, c_t


def oracle_run(tape, rows, w, u, b):
    """States after each row of the list `rows`, in order."""
    h = u.shape[0]
    h_t, c_t = tape.zeros(h), tape.zeros(h)
    states = []
    for x_t in rows:
        h_t, c_t = oracle_step(tape, x_t, h_t, c_t, w, u, b)
        states.append(h_t)
    return states


def oracle_bilstm(tape, bilstm, rows):
    f, r = bilstm.fwd, bilstm.bwd
    forward = oracle_run(tape, rows, f.w, f.u, f.b)
    backward = oracle_run(tape, rows[::-1], r.w, r.u, r.b)[::-1]
    return [tg.concat([a, z], axis=0) for a, z in zip(forward, backward)]


def oracle_lstm_sequence(tape, x, w, u, b, reverse=False):
    rows = [tg.take_row(x, i) for i in range(x.shape[0])]
    if reverse:
        return tg.stack(oracle_run(tape, rows[::-1], w, u, b)[::-1])
    return tg.stack(oracle_run(tape, rows, w, u, b))


def _weighted_sum(tape, mat, weights):
    """Scalar sum of mat * weights for a matrix or a vector."""
    prod = tg.mul(mat, tape.constant(weights))
    if prod.data.ndim == 2:
        prod = tg.matmul(tape.constant(np.ones(prod.shape[0])), prod)
    return tg.matmul(prod, tape.constant(np.ones(prod.shape[0])))


def _lstm_params(rng, m, h):
    return [tg.Parameter(rng.uniform(-1, 1, shape), name)
            for shape, name in (((m, 4 * h), "w"), ((h, 4 * h), "u"),
                                ((4 * h,), "b"))]


def _run_op(op, x_data, params, readout, reverse):
    for p in params:
        p.zero_grad()
    tape = tg.Tape()
    x = tape.constant(x_data)
    states = op(tape, x, *params, reverse=reverse)
    tape.backward(_weighted_sum(tape, states, readout))
    return states.data, x.grad, [p.grad.copy() for p in params]


def _fused(tape, x, w, u, b, reverse):
    return tg.lstm_sequence(x, w, u, b, reverse=reverse)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("trial", range(20))
def test_matches_per_step_oracle(trial, reverse):
    rng = np.random.default_rng(7000 + trial)
    T, h, m = (int(rng.integers(1, 11)), int(rng.integers(1, 5)),
               int(rng.integers(1, 6)))
    params = _lstm_params(rng, m, h)
    x_data = rng.uniform(-2, 2, (T, m))
    readout = rng.uniform(-1, 1, (T, h))
    got = _run_op(_fused, x_data, params, readout, reverse)
    want = _run_op(oracle_lstm_sequence, x_data, params, readout, reverse)
    assert got[0].shape == (T, h)
    assert np.allclose(got[0], want[0], rtol=0, atol=TOL)
    assert np.allclose(got[1], want[1], rtol=0, atol=TOL)
    for g, w in zip(got[2], want[2]):
        assert np.allclose(g, w, rtol=0, atol=TOL)


def test_single_step_single_unit_closed_form():
    # T=1, h=1: c = i*g and h = o*tanh(c) from the zero state
    rng = np.random.default_rng(2)
    w, u, b = _lstm_params(rng, 2, 1)
    x = rng.uniform(-1, 1, (1, 2))
    pre = x[0] @ w.data + b.data
    sig = 1.0 / (1.0 + np.exp(-pre))
    want = sig[2] * np.tanh(sig[0] * np.tanh(pre[3]))
    for reverse in (False, True):
        out = tg.lstm_sequence(tg.Tape().constant(x), w, u, b, reverse=reverse)
        assert out.data.shape == (1, 1)
        assert out.data[0, 0] == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("T,h", [(1, 1), (1, 3), (4, 1)])
def test_gradient_check_edge_sizes(T, h):
    rng = np.random.default_rng(10 * T + h)
    params = _lstm_params(rng, 2, h)
    x = tg.Parameter(rng.uniform(-1, 1, (T, 2)), "x")
    readout = rng.uniform(-1, 1, (T, 2 * h))

    def f(tape):
        xm = tg.add(tape.zeros(T, 2), x)
        both = tg.concat([tg.lstm_sequence(xm, *params),
                          tg.lstm_sequence(xm, *params, reverse=True)], axis=1)
        return _weighted_sum(tape, both, readout)

    assert tg.gradient_check(f, [x] + params) < 1e-6


@pytest.mark.parametrize("x_shape,w_shape,u_shape,b_shape", [
    ((3,), (3, 8), (2, 8), (8,)),          # x not a matrix
    ((), (3, 8), (2, 8), (8,)),            # x a scalar
    ((0, 3), (3, 8), (2, 8), (8,)),        # no rows
    ((4, 3), (2, 8), (2, 8), (8,)),        # w rows != m
    ((4, 3), (3, 6), (2, 8), (8,)),        # w columns != 4h
    ((4, 3), (3, 8), (2, 6), (8,)),        # u not (h, 4h)
    ((4, 3), (3, 8), (2, 8, 1), (8,)),     # u not a matrix
    ((4, 3), (3, 8), (2, 8), (6,)),        # b not (4h,)
    ((4, 3), (3, 8), (2, 8), (1, 8)),      # b not a vector
    ((4, 3), (3, 0), (0, 0), (0,)),        # h = 0
])
def test_bad_shapes_rejected(x_shape, w_shape, u_shape, b_shape):
    tape = tg.Tape()
    with pytest.raises(ValueError):
        tg.lstm_sequence(tape.constant(np.zeros(x_shape)),
                         tg.Parameter(np.zeros(w_shape), "w"),
                         tg.Parameter(np.zeros(u_shape), "u"),
                         tg.Parameter(np.zeros(b_shape), "b"))


def test_one_tape_record_per_call():
    rng = np.random.default_rng(4)
    tape = tg.Tape()
    x = tape.constant(rng.uniform(-1, 1, (9, 3)))
    before = len(tape._records)
    tg.lstm_sequence(x, *_lstm_params(rng, 3, 2))
    assert len(tape._records) == before + 1


# Old per-row encoders, read from the fused encoders' own parameters.

def _old_attention(tape, encoder, states):
    h_mat = tg.stack(states)
    if encoder.kind == "att-blstm":
        alpha = tg.softmax(tg.matmul(tg.tanh(h_mat), encoder.w))
        return tg.tanh(tg.matmul(alpha, h_mat)), alpha
    projected = tg.tanh(tg.add(tg.matmul(h_mat, encoder.w_a), encoder.b_a))
    alpha = tg.softmax(tg.matmul(projected, encoder.u_w))
    return tg.matmul(alpha, h_mat), alpha


def _old_ian_attend(tape, states, pooled, w, b):
    mat = tg.stack(states)
    scores = [tg.matmul(tg.matmul(s_i, w), pooled) for s_i in states]
    weights = tg.softmax(tg.tanh(tg.add(tg.stack(scores), b)))
    return tg.matmul(weights, mat), weights


def _old_mean(tape, states):
    weights = tape.constant(np.full(len(states), 1.0 / len(states)))
    return tg.matmul(weights, tg.stack(states))


def old_encode(tape, encoder, ctx):
    """(s, alpha over real rows or None) by the per-row path."""
    rows = [tg.take_row(ctx.x, i) for i in range(ctx.n_real)]
    kind = encoder.kind
    if kind == "lstm":
        cell = encoder.cell
        return oracle_run(tape, rows, cell.w, cell.u, cell.b)[-1], None
    if kind == "bilstm":
        return oracle_bilstm(tape, encoder.bilstm, rows)[-1], None
    if kind in ("att-blstm", "att-blstm-zyang"):
        s, alpha = _old_attention(tape, encoder,
                                  oracle_bilstm(tape, encoder.bilstm, rows))
        return s, alpha.data
    features = enc.select_features(ctx, encoder.cfg.feature_mode,
                                   encoder.cfg.k)
    if kind == "ian":
        c_states = oracle_bilstm(tape, encoder.context_lstm, rows)
        t_states = oracle_bilstm(tape, encoder.feature_lstm, features)
        attended_c, gamma = _old_ian_attend(
            tape, c_states, _old_mean(tape, t_states), encoder.w_c, encoder.b_c)
        attended_t, _ = _old_ian_attend(
            tape, t_states, _old_mean(tape, c_states), encoder.w_t, encoder.b_t)
        return tg.concat([attended_c, attended_t], axis=0), gamma.data
    assert kind == "att-cnn"
    pooled = encoder.pcnn.encode(tape, ctx)
    x_real = tg.narrow(ctx.x, 0, 0, ctx.n_real)
    summaries, weights = [], []
    for feat in features:
        scores = []
        for x_i in rows:
            hidden = tg.tanh(tg.add(tg.matmul(
                tg.concat([x_i, feat], axis=0), encoder.w1), encoder.b1))
            scores.append(tg.matmul(hidden, encoder.w2))
        alpha_j = tg.softmax(tg.stack(scores))
        weights.append(alpha_j.data)
        summaries.append(tg.matmul(alpha_j, x_real))
    attended = summaries[0]
    for extra in summaries[1:]:
        attended = tg.add(attended, extra)
    attended = tg.scale(attended, 1.0 / len(summaries))
    mean_alpha = np.mean(weights, axis=0)
    return (tg.concat([pooled.s, attended], axis=0),
            mean_alpha / mean_alpha.sum())


EQUIVALENT_KINDS = ("lstm", "bilstm", "att-blstm", "att-blstm-zyang", "ian",
                    "att-cnn")


@pytest.mark.parametrize("kind", EQUIVALENT_KINDS)
def test_encode_matches_per_row_path(kind):
    rng = np.random.default_rng(8000 + EQUIVALENT_KINDS.index(kind))
    for trial in range(15):
        n = int(rng.integers(3, 11))
        n_real = int(rng.integers(2, n + 1))
        cfg = enc.EncoderConfig(kind, n=n, h=int(rng.integers(1, 5)),
                                filters=2, window=2, k=4,
                                feature_mode=("att-ef", "att-ends")[trial % 2])
        rw = int(rng.integers(2, 6))
        encoder = enc.build_encoder(cfg, rw, rng)
        rows = np.vstack([rng.uniform(-2, 2, (n_real, rw)),
                          np.zeros((n - n_real, rw))])
        subj, obj = [int(v) for v in rng.choice(n_real, 2, replace=False)]
        frames = sorted(int(v) for v in rng.choice(n_real, n_real // 2,
                                                   replace=False))
        params = encoder.parameters()
        readout = rng.uniform(-1, 1, encoder.z)

        def run(encode):
            for p in params:
                p.zero_grad()
            tape = tg.Tape()
            ctx = enc.EmbeddedContext(tape.constant(rows), n_real, subj, obj,
                                      frames)
            s, alpha = encode(tape, ctx)
            tape.backward(tg.matmul(s, tape.constant(readout)))
            return s.data, alpha, ctx.x.grad, [p.grad.copy() for p in params]

        def fused(tape, ctx):
            out = encoder.encode(tape, ctx)
            return out.s, out.alpha

        got = run(fused)
        want = run(lambda tape, ctx: old_encode(tape, encoder, ctx))
        assert np.allclose(got[0], want[0], rtol=0, atol=TOL)
        if want[1] is None:
            assert got[1] is None
        else:
            assert np.allclose(got[1][:n_real], want[1], rtol=0, atol=TOL)
            assert np.all(got[1][n_real:] == 0.0)
        assert np.allclose(got[2], want[2], rtol=0, atol=TOL)
        assert np.all(got[2][n_real:] == 0.0)
        for g, w in zip(got[3], want[3]):
            assert np.allclose(g, w, rtol=0, atol=TOL)
