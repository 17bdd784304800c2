"""The fused, batched `lstm_sequence` op and the batched encoders against
the per-timestep tape chain they replaced.

The oracle is tests/per_context.py: one context at a time, one
`lstm_step` chain of about 13 generic ops per row, per-row inputs, and
per-row attention scores. Sigmoid is written with `scale`/`tanh`/`add`.
The fused path sums in a different order, so values and gradients are
compared within 1e-10.
"""

import hashlib

import numpy as np
import pytest

import per_context as pc
from attex import cli
from attex import encoders as enc
from attex import model as md
from attex import tensorgrad as tg

TOL = 1e-10


def _weighted_sum(tape, mat, weights):
    """Scalar sum of mat * weights for a tensor of any rank."""
    prod = pc.mul(mat, tg.Tensor(weights, tape))
    while prod.data.ndim > 1:
        prod = tg.matmul(prod, tg.Tensor(np.ones(prod.shape[-1]), tape))
    return tg.matmul(prod, tg.Tensor(np.ones(prod.shape[0]), tape))


def _lstm_params(rng, m, h, directions=1):
    """Random w (m, 4Dh), u (D, h, 4h) and b (4Dh,) of D directions."""
    D = directions
    return [tg.Parameter(rng.uniform(-1, 1, shape), name)
            for shape, name in (((m, 4 * D * h), "w"), ((D, h, 4 * h), "u"),
                                ((4 * D * h,), "b"))]


@pytest.mark.parametrize("two_directions", [False, True])
@pytest.mark.parametrize("trial", range(20))
def test_matches_per_step_oracle(trial, two_directions):
    # Direction 0 reads forward; a second reads backward, in columns h:2h.
    rng = np.random.default_rng(7000 + trial)
    B, T, h, m = (int(rng.integers(1, 4)), int(rng.integers(1, 11)),
                  int(rng.integers(1, 5)), int(rng.integers(1, 6)))
    # Trials 0 and 1 run one row; every later trial has a row of one step.
    if trial < 2:
        B = 1
    lengths = rng.integers(1, T + 1, size=B)
    if trial >= 2:
        lengths[trial % B] = 1
    directions = 2 if two_directions else 1
    params = _lstm_params(rng, m, h, directions)
    x_data = rng.uniform(-2, 2, (B, T, m))
    readout = rng.uniform(-1, 1, (B, T, directions * h))

    for p in params:
        p.zero_grad()
    tape = tg.Tape()
    x = tg.Tensor(x_data, tape)
    states = tg.lstm_sequence(x, *params, lengths)
    tape.backward(_weighted_sum(tape, states, readout))
    got_x, got_params = x.grad, [p.grad.copy() for p in params]
    assert states.data.shape == (B, T, directions * h)

    for p in params:
        p.zero_grad()
    for row, n in enumerate(lengths):
        tape = tg.Tape()
        xr = tg.Tensor(x_data[row, :n], tape)
        want = tg.concat([pc.lstm_sequence(
            tape, xr, *pc.lstm_direction(tape, *params, d), reverse=d == 1)
            for d in range(directions)], axis=1)
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
    for D in (1, 2):
        # Every direction gets this cell: at h = 1, w and b repeat each
        # gate's column D times and u its one block.
        params = [tg.Parameter(a, "p") for a in (
            np.repeat(w.data, D, axis=1), np.repeat(u.data, D, axis=0),
            np.repeat(b.data, D))]
        out = tg.lstm_sequence(tg.Tensor(x, tg.Tape()), *params, [1])
        assert out.data.shape == (1, 1, D)
        assert np.allclose(out.data[0, 0], want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("T,h", [(1, 1), (1, 3), (4, 1)])
def test_gradient_check_edge_sizes(T, h):
    rng = np.random.default_rng(10 * T + h)
    params = _lstm_params(rng, 2, h, 2)
    x = tg.Parameter(rng.uniform(-1, 1, (2, T, 2)), "x")
    lengths = [T, max(1, T - 2)]
    readout = rng.uniform(-1, 1, (2, T, 2 * h))

    def f(tape):
        xm = tg.add(tg.Tensor(np.zeros((2, T, 2)), tape), x)
        both = tg.lstm_sequence(xm, *params, lengths)
        return _weighted_sum(tape, both, readout)

    assert tg.gradient_check(f, [x] + params) < 1e-6


def _zeros(*shapes):
    return [tg.Parameter(np.zeros(shape), "p") for shape in shapes]


@pytest.mark.parametrize("x_shape,w_shape,u_shape,b_shape", [
    ((4, 3), (3, 8), (1, 2, 8), (8,)),       # x not (B, T, m)
    ((), (3, 8), (1, 2, 8), (8,)),           # x a scalar
    ((1, 0, 3), (3, 8), (1, 2, 8), (8,)),    # no steps
    ((1, 4, 3), (2, 8), (1, 2, 8), (8,)),    # w rows != m
    ((1, 4, 3), (3, 6), (1, 2, 8), (8,)),    # w columns != 4h
    ((1, 4, 3), (3, 8), (1, 2, 6), (8,)),    # u not (D, h, 4h)
    ((1, 4, 3), (3, 8), (2, 8), (8,)),       # u one cell's (h, 4h)
    ((1, 4, 3), (3, 8), (1, 2, 8), (6,)),    # b not (4h,)
    ((1, 4, 3), (3, 8), (1, 2, 8), (1, 8)),  # b not a vector
    ((1, 4, 3), (3, 0), (1, 0, 0), (0,)),    # h = 0
])
def test_bad_shapes_rejected(x_shape, w_shape, u_shape, b_shape):
    tape = tg.Tape()
    with pytest.raises(ValueError):
        tg.lstm_sequence(tg.Tensor(np.zeros(x_shape), tape),
                         *_zeros(w_shape, u_shape, b_shape), [1])


@pytest.mark.parametrize("cells", [
    (2, 1, 2),  # w and b hold two directions, u one
    (1, 2, 1),  # u holds two directions, w and b one
    (0, 0, 0),  # no direction
    (3, 3, 3),  # three directions
])
def test_bad_cells_rejected(cells):
    # The directions each of w, u and b is sized for, at m = 3 and h = 2.
    dw, du, db = cells
    tape = tg.Tape()
    with pytest.raises(ValueError):
        tg.lstm_sequence(tg.Tensor(np.zeros((2, 4, 3)), tape),
                         *_zeros((3, 8 * dw), (du, 2, 8), (8 * db,)), [4, 2])


@pytest.mark.parametrize("lengths", [[0, 2], [2, 5], [2], [[2, 2]]])
def test_bad_lengths_rejected(lengths):
    rng = np.random.default_rng(3)
    tape = tg.Tape()
    with pytest.raises(ValueError):
        tg.lstm_sequence(tg.Tensor(np.zeros((2, 4, 3)), tape),
                         *_lstm_params(rng, 3, 2), lengths)


def test_one_tape_record_per_call():
    rng = np.random.default_rng(4)
    tape = tg.Tape()
    x = tg.Tensor(rng.uniform(-1, 1, (5, 9, 3)), tape)
    for directions in (1, 2):
        before = len(tape._records)
        tg.lstm_sequence(x, *_lstm_params(rng, 3, 2, directions),
                         [9, 1, 4, 9, 2])
        assert len(tape._records) == before + 1


def test_bilstm_adds_one_tape_record():
    rng = np.random.default_rng(6)
    tape = tg.Tape()
    x = tg.Tensor(rng.uniform(-1, 1, (4, 7, 3)), tape)
    before = len(tape._records)
    states = enc.Lstm(3, 2, 2, rng, "bi").states(x, [7, 2, 1, 5])
    assert states.shape == (4, 7, 4)
    assert len(tape._records) == before + 1


def _lstm(name, D):
    """Names and shapes of a D-direction Lstm at row width 5 and h = 3."""
    return [(name + ".w", (5, 12 * D)), (name + ".u", (D, 3, 12)),
            (name + ".b", (12 * D,))]


@pytest.mark.parametrize("kind,want", [
    ("lstm", _lstm("lstm", 1)),
    ("bilstm", _lstm("bilstm", 2)),
    ("att-blstm", _lstm("attblstm", 2) + [("attblstm.att.w", (6,))]),
    ("att-blstm-zyang", _lstm("zyang", 2)
     + [("zyang.att.w_a", (6, 6)), ("zyang.att.b_a", (6,)),
        ("zyang.att.u_w", (6,))]),
    ("ian", _lstm("ian.ctx", 2) + _lstm("ian.feat", 2)
     + [("ian.att.w_c", (6, 6)), ("ian.att.b_c", (1,)),
        ("ian.att.w_t", (6, 6)), ("ian.att.b_t", (1,))]),
    ("cnn", [("cnn.w", (3, 5, 32)), ("cnn.b", (32,))]),
    ("pcnn", [("pcnn.w", (3, 5, 32)), ("pcnn.b", (32,))]),
    ("att-cnn", [("attcnn.pcnn.w", (3, 5, 32)), ("attcnn.pcnn.b", (32,)),
                 ("attcnn.att.w1", (10, 3)), ("attcnn.att.b1", (3,)),
                 ("attcnn.att.w2", (3,))]),
])
def test_parameter_names_and_shapes_pinned(kind, want):
    # Checkpoints store parameters by name and shape, in this order.
    encoder = enc.build_encoder(enc.EncoderConfig(kind, n=8, h=3), 5,
                                np.random.default_rng(0))
    assert [(p.name, p.shape) for p in encoder.parameters()] == want


def fresh_model(kind, use_position):
    cfg = enc.EncoderConfig(kind, n=8, h=3, filters=3, window=2, k=4)
    options = {"m": 4, "polarity_dim": 2, "use_position": use_position,
               "position_dim": 2}
    return md.build_model(enc.Vocab(["b", "a", "c"]), cfg, options,
                          rng=np.random.default_rng([0, 0]))


def test_whole_model_names_and_shapes_pinned():
    model = fresh_model("att-cnn", use_position=True)
    assert [(p.name, p.shape) for p in model.parameters()] == [
        ("emb.word", (11, 4)), ("emb.polarity", (3, 2)),
        ("emb.position", (15, 2)), ("attcnn.pcnn.w", (2, 10, 3)),
        ("attcnn.pcnn.b", (3,)), ("attcnn.att.w1", (20, 3)),
        ("attcnn.att.b1", (3,)), ("attcnn.att.w2", (3,)),
        ("head.w_r", (19, 3)), ("head.b_r", (3,))]


def _cell_arrays(module):
    """A model part's parameter arrays in checkpoint order, each enc.Lstm's
    read as its directions' (w, u, b) views, direction 0 first."""
    if isinstance(module, enc.Lstm):
        values = [p.data for p in module.parameters()]
        return [a for d in range(module.u.shape[0])
                for a in pc.cell_views(*values, d)]
    arrays = []
    for value in vars(module).values():
        if isinstance(value, tg.Parameter):
            arrays.append(value.data)
        elif isinstance(value, enc.Module):
            arrays.extend(_cell_arrays(value))
    return arrays


# sha256 of a fresh model's parameter bytes in order, each LSTM direction
# read as its own (w, u, b) cell: initial values and the draw order of the
# generator stay as they were when every direction was stored that way.
INITIAL_SHA256 = {  # kind: (use_position off, use_position on)
    "cnn": (
        "27adbee4c4bf48b19d0e6043e06b32faecbcf142d0c9feabbf2c5429712bf8ad",
        "32361286018f021cea9b383b0e018e23f37c865ec0f5a34689c2a33f2159a25b"),
    "pcnn": (
        "f134d669c388bc17dab471cb722eec64bf26f2211f612081c27a9403f85624e2",
        "6ab99e980bd34fcc4a0ca01d567a8e946f4be634df75ec4acfe4fd88fdacf258"),
    "lstm": (
        "3c7724f8791ce957c86cc9f6121e314a746fa8293ac19095e2094260e3d52e98",
        "296c146bf1158af2a98f18b69fed036b1f5b5ecd1b4f347a456e0f05208608f9"),
    "bilstm": (
        "ea9f08d3f23b8a8df8e1ddcf583752a33784f48ad643d3ecfd2a41ae690b6dd1",
        "d2f63bbbe74c905d59fcc19c8d11b3f199137081c361d3daead1b046d783912f"),
    "att-blstm": (
        "555fbf856e2757e2410ee105854eeca7983e734c5cfd4999798285cac94a6816",
        "8dc8a497a2a1245e59c51039a756e97227847f906ad102a7c87cab3954323352"),
    "att-blstm-zyang": (
        "982ab45e43e40b2a13303648ec13fe47043c0bba6fff3a44fd9b3f1bf465b405",
        "61606ba5241baf12a3ea106b736277a30338d6c88a806a3efe0da9cc26cca5ff"),
    "att-cnn": (
        "e921c10c6a28038e381188d9cca156a93f362893fd7c611895ec4437da5dbd2e",
        "3c9c8cccbc9d6ce355a773800e9dbf20d6affb760e3d62ac33a636423e21c8d3"),
    "ian": (
        "2a0d325f3caa20f8e3052ea067da9331a41f0b7852a473f307fee39a21e8ed5d",
        "a238e9ed244d9a79a6dc4ee859622a3b9a128b5c3294fd55fe09381c7a45fa38"),
}


@pytest.mark.parametrize("use_position", [False, True])
@pytest.mark.parametrize("kind", enc.ENCODER_KINDS)
def test_initial_values_pinned(kind, use_position):
    model = fresh_model(kind, use_position)
    digest = hashlib.sha256()
    for part in (model.embedder, model.encoder, model.head):
        for a in _cell_arrays(part):
            digest.update(a.tobytes())
    assert digest.hexdigest() == INITIAL_SHA256[kind][use_position]


def test_encoder_kinds_pinned():
    # gradient_suite and the tests seed each kind by its index.
    assert enc.ENCODER_KINDS == ("cnn", "pcnn", "lstm", "bilstm", "att-blstm",
                                 "att-blstm-zyang", "att-cnn", "ian")
    parser = cli.build_parser()
    encoder = next(a for a in parser._actions if a.dest == "encoder")
    assert tuple(encoder.choices) == enc.ENCODER_KINDS


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
        x = tg.Tensor(np.stack([c[0] for c in contexts]), tape)
        out = encoder.encode(x, batch)
        tape.backward(_weighted_sum(tape, out.s, readout))
        got = [p.grad.copy() for p in params]

        for p in params:
            p.zero_grad()
        for row, (rows, n_real, subj, obj, frames) in enumerate(contexts):
            tape = tg.Tape()
            ctx = pc.Context(tg.Tensor(rows, tape), n_real, subj, obj, frames)
            s, alpha = pc.encode(tape, encoder, ctx)
            tape.backward(tg.matmul(s, tg.Tensor(readout[row], tape)))
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
