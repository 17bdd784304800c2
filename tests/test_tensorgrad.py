import math

import numpy as np
import pytest

from attex import tensorgrad as tg


def everywhere(shape):
    """An all-True mask: every entry is real."""
    return np.ones(shape, dtype=bool)


def _naive_matmul(a, b):
    # triple-loop oracle, independent of numpy's matmul
    p, q = len(a), len(a[0])
    r = len(b[0])
    out = [[0.0] * r for _ in range(p)]
    for i in range(p):
        for j in range(r):
            for k in range(q):
                out[i][j] += a[i][k] * b[k][j]
    return out


def _naive_conv1d(x, w, b):
    # sliding-window oracle with explicit zero padding, left-biased
    n, m = x.shape
    win, _, f = w.shape
    left = win // 2
    out = np.zeros((n, f))
    for i in range(n):
        for k in range(f):
            acc = b[k]
            for d in range(win):
                src = i - left + d
                if 0 <= src < n:
                    for c in range(m):
                        acc += x[src, c] * w[d, c, k]
            out[i, k] = acc
    return out


class TestMatmul:
    def test_identity(self):
        tape = tg.Tape()
        b = tg.Tensor([[1.0, 2.0], [3.0, 4.0]], tape)
        out = tg.matmul(tg.Tensor(np.eye(2), tape), b)
        assert np.array_equal(out.data, b.data)

    def test_small_instance_matches_naive_oracle(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        b = [[5.0], [6.0]]
        expected = _naive_matmul(a, b)
        assert expected == [[17.0], [39.0]]
        tape = tg.Tape()
        out = tg.matmul(tg.Tensor(a, tape), tg.Tensor(b, tape))
        assert out.data.tolist() == expected

    def test_shape_mismatch(self):
        tape = tg.Tape()
        with pytest.raises(ValueError):
            tg.matmul(tg.Tensor(np.zeros((2, 3)), tape),
                      tg.Tensor(np.zeros((2, 3)), tape))

    def test_random_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.uniform(-1, 1, (3, 4))
            b = rng.uniform(-1, 1, (4, 2))
            tape = tg.Tape()
            out = tg.matmul(tg.Tensor(a, tape), tg.Tensor(b, tape))
            assert np.allclose(out.data, _naive_matmul(a.tolist(), b.tolist()))


class TestElementwise:
    def test_tanh_zero(self):
        tape = tg.Tape()
        assert tg.tanh(tg.Tensor([0.0], tape)).data[0] == 0.0

    def test_concat_axis0(self):
        tape = tg.Tape()
        out = tg.concat([tg.Tensor([1.0], tape), tg.Tensor([2.0], tape)], axis=0)
        assert out.data.tolist() == [1.0, 2.0]

    def test_add_bias_broadcast(self):
        tape = tg.Tape()
        out = tg.add(tg.Tensor(np.zeros((2, 3)), tape), tg.Tensor([1.0, 2.0, 3.0], tape))
        assert np.array_equal(out.data, [[1.0, 2.0, 3.0]] * 2)


class TestSoftmax:
    def test_uniform_by_symmetry(self):
        tape = tg.Tape()
        out = tg.softmax(tg.Tensor([0.0, 0.0, 0.0], tape), everywhere(3)).data
        assert np.allclose(out, [1 / 3] * 3, atol=1e-15)

    def test_direct_evaluation(self):
        # oracle: direct evaluation of exp(r_i)/sum(exp(r_j))
        v = [1.0, 2.0, 3.0]
        denom = sum(math.exp(x) for x in v)
        expected = [math.exp(x) / denom for x in v]
        assert expected == pytest.approx([0.09003057317038046, 0.24472847105479767, 0.6652409557748219])
        tape = tg.Tape()
        out = tg.softmax(tg.Tensor(v, tape), everywhere(3)).data
        assert np.allclose(out, expected, atol=1e-12)

    def test_large_values_stable(self):
        tape = tg.Tape()
        out = tg.softmax(tg.Tensor([1000.0, 0.0, 0.0], tape), everywhere(3)).data
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)
        assert abs(out.sum() - 1.0) < 1e-12

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = rng.uniform(-30, 30, rng.integers(1, 9))
            out = tg.softmax(tg.Tensor(v, tg.Tape()), everywhere(len(v))).data
            assert np.all(out >= 0)
            assert abs(out.sum() - 1.0) < 1e-12

    def test_mask_matches_softmax_of_real_entries(self):
        rng = np.random.default_rng(11)
        v = rng.uniform(-5, 5, (4, 6))
        lengths = np.array([6, 1, 3, 5])
        mask = np.arange(6) < lengths[:, None]
        tape = tg.Tape()
        x = tg.Tensor(v, tape)
        out = tg.softmax(x, mask)
        for row, n in enumerate(lengths):
            want = tg.softmax(tg.Tensor(v[row, :n], tg.Tape()), everywhere(n)).data
            assert np.allclose(out.data[row, :n], want, rtol=0, atol=1e-15)
            assert np.all(out.data[row, n:] == 0.0)
        readout = tg.Tensor(rng.uniform(-1, 1, 6), tape)
        tape.backward(tg.matmul(tg.matmul(out, readout),
                                tg.Tensor(np.ones(4), tape)))
        assert np.all(x.grad[~mask] == 0.0)

    def test_row_without_real_entry_rejected(self):
        tape = tg.Tape()
        with pytest.raises(ValueError):
            tg.softmax(tg.Tensor(np.zeros((2, 3)), tape),
                       np.array([[True, False, False], [False] * 3]))


def pool_whole(tape, m):
    """Max pool of one (T, f) matrix over all of its T steps."""
    m = np.asarray(m, dtype=float)
    x = tg.Tensor(m[None], tape)
    return x, tg.max_pool_over_time(x, [[0]], [[m.shape[0]]])


class TestMaxPool:
    def test_single_row(self):
        _, out = pool_whole(tg.Tape(), [[1.0, 2.0]])
        assert out.data.tolist() == [[1.0, 2.0]]

    def test_brute_force_column_scan(self):
        m = [[1.0, 5.0], [3.0, 2.0]]
        expected = [max(col) for col in zip(*m)]
        assert expected == [3.0, 5.0]
        _, out = pool_whole(tg.Tape(), m)
        assert out.data.tolist() == [expected]

    def test_tie_routes_gradient_to_first_row(self):
        tape = tg.Tape()
        x, pooled = pool_whole(tape, [[2.0], [2.0], [2.0]])
        loss = tg.matmul(tg.matmul(pooled, tg.Tensor([1.0], tape)),
                         tg.Tensor([1.0], tape))
        tape.backward(loss)
        assert x.grad.tolist() == [[[1.0], [0.0], [0.0]]]

    def test_empty_time_axis(self):
        # An empty segment pools to 0 and passes no gradient on.
        tape = tg.Tape()
        x = tg.Tensor([[[1.0, -2.0], [3.0, 4.0]]], tape)
        pooled = tg.max_pool_over_time(x, [[0, 2]], [[2, 2]])
        assert pooled.data.tolist() == [[3.0, 4.0, 0.0, 0.0]]
        tape.backward(tg.matmul(tg.matmul(pooled, tg.Tensor(np.ones(4), tape)),
                                tg.Tensor([1.0], tape)))
        assert x.grad.tolist() == [[[0.0, 0.0], [1.0, 1.0]]]

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            B, T, f = rng.integers(1, 4), rng.integers(1, 7), rng.integers(1, 5)
            a = rng.uniform(-1, 1, (B, T, f))
            cuts = np.sort(rng.integers(0, T + 1, (B, 4)), axis=1)
            starts, ends = cuts[:, :3], cuts[:, 1:]
            out = tg.max_pool_over_time(tg.Tensor(a, tg.Tape()), starts, ends).data
            for b in range(B):
                for s in range(3):
                    seg = a[b, starts[b, s]:ends[b, s]]
                    want = seg.max(axis=0) if len(seg) else np.zeros(f)
                    assert np.array_equal(out[b, s * f:(s + 1) * f], want)


def conv_rows(x, w, b):
    """conv1d of a batch of equal-length rows x (B, n, m)."""
    tape = tg.Tape()
    return tg.conv1d(tg.Tensor(x, tape), tg.Tensor(w, tape), tg.Tensor(b, tape)).data


class TestConv1d:
    def test_window_one_copies_channel(self):
        w = np.zeros((1, 3, 1))
        w[0, 0, 0] = 1.0
        x = np.arange(24.0).reshape(2, 4, 3)
        out = conv_rows(x, w, [0.0])
        assert np.array_equal(out[:, :, 0], x[:, :, 0])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (3, 3, 2))
        w = rng.uniform(-1, 1, (3, 2, 2))
        b = rng.uniform(-1, 1, 2)
        out = conv_rows(x, w, b)
        for row in range(3):
            assert np.allclose(out[row], _naive_conv1d(x[row], w, b))

    def test_short_sequence_zero_padded(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (1, 1, 2))
        w = rng.uniform(-1, 1, (3, 2, 1))
        b = np.zeros(1)
        out = conv_rows(x, w, b)
        assert out.shape == (1, 1, 1)
        assert np.allclose(out[0], _naive_conv1d(x[0], w, b))

    def test_even_window_left_biased(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (2, 4, 2))
        w = rng.uniform(-1, 1, (2, 2, 3))
        b = rng.uniform(-1, 1, 3)
        out = conv_rows(x, w, b)
        for row in range(2):
            assert np.allclose(out[row], _naive_conv1d(x[row], w, b))


class TestEmbeddingLookup:
    def test_first_row(self):
        table = tg.Parameter(np.arange(6.0).reshape(3, 2), "t")
        out = tg.embedding_lookup(tg.Tape(), [table], [[0]], everywhere(1))
        assert out.data.tolist() == [[0.0, 1.0]]

    def test_repeated_id_accumulates_twice(self):
        table = tg.Parameter(np.ones((3, 2)), "t")
        tape = tg.Tape()
        rows = tg.embedding_lookup(tape, [table], [[1, 1]], everywhere(2))
        total = tg.matmul(tg.matmul(tg.Tensor(np.ones(2), tape), rows),
                          tg.Tensor(np.ones(2), tape))
        tape.backward(total)
        assert np.array_equal(table.grad[1], [2.0, 2.0])
        assert np.array_equal(table.grad[0], [0.0, 0.0])

    def test_out_of_range(self):
        table = tg.Parameter(np.zeros((3, 2)), "t")
        with pytest.raises(IndexError):
            tg.embedding_lookup(tg.Tape(), [table], [[3]], everywhere(1))

    def test_masked_rows_are_zero_and_take_no_gradient(self):
        table = tg.Parameter(np.arange(6.0).reshape(3, 2) + 1.0, "t")
        tape = tg.Tape()
        ids = np.array([[1, 0], [2, 2]])
        mask = np.array([[True, False], [True, True]])
        rows = tg.embedding_lookup(tape, [table], [ids], mask)
        assert rows.data.tolist() == [[[3.0, 4.0], [0.0, 0.0]],
                                      [[5.0, 6.0], [5.0, 6.0]]]
        ones = tg.Tensor(np.ones(2), tape)
        tape.backward(tg.matmul(tg.matmul(tg.matmul(rows, ones), ones), ones))
        assert table.grad.tolist() == [[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]


def _softmax_rows(v):
    e = np.exp(v - v.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class TestCrossEntropy:
    def test_perfect_prediction(self):
        tape = tg.Tape()
        out = tg.softmax_cross_entropy(tg.Tensor([[1000.0, 0.0, 0.0]], tape), [0])
        assert float(out.data) == 0.0

    def test_uniform_is_log3(self):
        tape = tg.Tape()
        out = tg.softmax_cross_entropy(tg.Tensor([[0.0, 0.0, 0.0]], tape), [2])
        assert float(out.data) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_gold_out_of_range(self):
        tape = tg.Tape()
        with pytest.raises(IndexError):
            tg.softmax_cross_entropy(tg.Tensor([[0.5, 0.5, 0.0]], tape), [5])

    def test_confident_mistake_keeps_gradient(self):
        # p(gold) is about 4e-18, below the 1e-12 at which the old clamped
        # loss dropped the gradient; the fused op still gives p - onehot.
        tape = tg.Tape()
        v = np.array([[40.0, 40.0, 0.0]])
        logits = tg.Tensor(v, tape)
        tape.backward(tg.softmax_cross_entropy(logits, [2]))
        want = _softmax_rows(v) - np.array([[0.0, 0.0, 1.0]])
        assert np.allclose(logits.grad, want, rtol=0, atol=1e-15)
        assert logits.grad[0, 2] == pytest.approx(-1.0)

    def test_mean_over_rows(self):
        rng = np.random.default_rng(12)
        v = rng.uniform(-3, 3, (4, 3))
        gold = np.array([0, 2, 1, 1])
        tape = tg.Tape()
        logits = tg.Tensor(v, tape)
        loss = tg.softmax_cross_entropy(logits, gold)
        tape.backward(loss)
        p = _softmax_rows(v)
        assert float(loss.data) == pytest.approx(
            -np.mean(np.log(p[np.arange(4), gold])), abs=1e-14)
        want = (p - np.eye(3)[gold]) / 4
        assert np.allclose(logits.grad, want, rtol=0, atol=1e-15)


class TestGradientCheck:
    def test_square_function(self):
        theta = tg.Parameter([3.0], "theta")

        def f(tape):
            v = tg.einsum("i,i->i", _lift(tape, theta), _lift(tape, theta))
            return tg.matmul(v, tg.Tensor([1.0], tape))

        err = tg.gradient_check(f, [theta])
        assert err < 1e-8

    def test_constant_function(self):
        theta = tg.Parameter([1.0, 2.0], "theta")

        def f(tape):
            return tg.matmul(tg.Tensor([1.0], tape), tg.Tensor([5.0], tape))

        assert tg.gradient_check(f, [theta]) == 0.0

    def test_softmax_matmul_chain(self):
        rng = np.random.default_rng(6)
        w = tg.Parameter(rng.uniform(-1, 1, (4, 3)), "w")
        x = rng.uniform(-1, 1, 4)

        def f(tape):
            logits = tg.matmul(tg.Tensor(x[None], tape), w)
            return tg.softmax_cross_entropy(logits, [1])

        assert tg.gradient_check(f, [w]) < 1e-4


def _lift(tape, param):
    # consume a parameter through an op so its gradient is exercised
    return tg.add(tg.Tensor(np.zeros(param.data.shape), tape), param)


@pytest.mark.parametrize("trial", range(10))
def test_every_op_passes_gradient_check(trial):
    rng = np.random.default_rng(100 + trial)
    lengths = np.array([4, int(rng.integers(1, 4))])
    mask = np.arange(4) < lengths[:, None]
    x = tg.Parameter(rng.uniform(-1, 1, (2, 4, 3)), "x")
    w = tg.Parameter(rng.uniform(-1, 1, (3, 2)), "w")
    cw = tg.Parameter(rng.uniform(-1, 1, (3, 3, 2)), "cw")
    cb = tg.Parameter(rng.uniform(-1, 1, 2), "cb")
    v = tg.Parameter(rng.uniform(-1, 1, 2), "v")
    lw = tg.Parameter(rng.uniform(-1, 1, (2, 8)), "lw")
    lu = tg.Parameter(rng.uniform(-1, 1, (2, 1, 4)), "lu")
    lb = tg.Parameter(rng.uniform(-1, 1, 8), "lb")
    w1 = tg.Parameter(rng.uniform(-1, 1, (6, 2)), "w1")
    b1 = tg.Parameter(rng.uniform(-1, 1, 2), "b1")
    table = tg.Parameter(rng.uniform(-1, 1, (5, 1)), "table")
    ptable = tg.Parameter(rng.uniform(-1, 1, (4, 1)), "ptable")
    r = tg.Parameter(rng.uniform(-1, 1, (9, 3)), "r")
    rb = tg.Parameter(rng.uniform(-1, 1, 3), "rb")
    ids = [rng.integers(0, 5, (2, 4)), rng.integers(0, 4, (2, 4)),
           rng.integers(0, 4, (2, 4))]

    def f(tape):
        rows = tg.embedding_lookup(tape, [table, ptable, ptable], ids, mask)
        xm = tg.add(rows, x)
        h = tg.tanh(tg.matmul(xm, w))
        c = tg.conv1d(xm, cw, cb)
        states = tg.lstm_sequence(c, lw, lu, lb, lengths)
        pooled = tg.max_pool_over_time(states, [[0, 2], [0, 1]],
                                       [[2, 4], [1, lengths[1]]])
        attended, _ = tg.feature_attention(
            xm, [[1, 0], [0, 0]], [[True, True], [True, False]], mask, w1,
            b1, v)
        last = tg.gather(h, lengths - 1)
        joined = tg.concat([pooled, attended, last], axis=1)
        logits = tg.scale(tg.tanh_affine(joined, r, rb), 0.7)
        return tg.softmax_cross_entropy(logits, [0, 2])

    assert tg.gradient_check(
        f, [x, w, cw, cb, v, lw, lu, lb, w1, b1, table, ptable, r, rb]) < 1e-4


def test_backward_linearity():
    # gradient of a sum of losses equals the sum of single-loss gradients
    rng = np.random.default_rng(7)
    w = tg.Parameter(rng.uniform(-1, 1, 3), "w")
    x1 = rng.uniform(-1, 1, 3)
    x2 = rng.uniform(-1, 1, 3)

    def run(vecs):
        w.zero_grad()
        tape = tg.Tape()
        losses = [tg.matmul(tg.Tensor(v, tape), w) for v in vecs]
        total = losses[0]
        for term in losses[1:]:
            total = tg.add(total, term)
        tape.backward(total)
        return w.grad.copy()

    combined = run([x1, x2])
    assert np.allclose(combined, run([x1]) + run([x2]))


def test_gather_rows_and_range():
    tape = tg.Tape()
    x = tg.Tensor(np.arange(24.0).reshape(2, 3, 4), tape)
    assert np.array_equal(tg.gather(x, [2, 0]).data, [x.data[0, 2], x.data[1, 0]])
    both = tg.gather(x, [[1, 1], [0, 2]])
    assert np.array_equal(both.data[0], x.data[0, [1, 1]])
    assert np.array_equal(both.data[1], x.data[1, [0, 2]])
    with pytest.raises(IndexError):
        tg.gather(x, [3, 0])
    with pytest.raises(ValueError):
        tg.gather(x, [0, 0, 0])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(8)
        params = [
            tg.Parameter(rng.uniform(-1, 1, (2, 3)), "a"),
            tg.Parameter(rng.uniform(-1, 1, 4), "b"),
        ]
        path = tmp_path / "ckpt.txt"
        tg.save_checkpoint(path, params)
        arrays = tg.load_checkpoint(path)
        fresh = [tg.Parameter(np.zeros((2, 3)), "a"), tg.Parameter(np.zeros(4), "b")]
        tg.restore_parameters(fresh, arrays)
        for orig, new in zip(params, fresh):
            assert np.allclose(orig.data, new.data, rtol=0, atol=1e-15)

    def test_zero_size_parameter_round_trip(self, tmp_path):
        # Its payload line is blank, and the blocks after it stay paired.
        params = [tg.Parameter(np.zeros((3, 0)), "empty"),
                  tg.Parameter(np.arange(2.0), "after")]
        path = tmp_path / "ckpt.txt"
        tg.save_checkpoint(path, params)
        arrays = tg.load_checkpoint(path)
        assert arrays["empty"].shape == (3, 0)
        assert np.array_equal(arrays["after"], [0.0, 1.0])

    def test_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.txt"
        tg.save_checkpoint(path, [tg.Parameter(np.zeros((2, 2)), "a")])
        arrays = tg.load_checkpoint(path)
        from attex.errors import DataError

        with pytest.raises(DataError):
            tg.restore_parameters([tg.Parameter(np.zeros((3, 2)), "a")], arrays)

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("no tab here\n1 2 3\n")
        from attex.errors import DataError

        with pytest.raises(DataError):
            tg.load_checkpoint(path)
