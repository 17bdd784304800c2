import math

import numpy as np
import pytest

from attex import tensorgrad as tg


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
        b = tape.constant([[1.0, 2.0], [3.0, 4.0]])
        out = tg.matmul(tape.constant(np.eye(2)), b)
        assert np.array_equal(out.data, b.data)

    def test_small_instance_matches_naive_oracle(self):
        a = [[1.0, 2.0], [3.0, 4.0]]
        b = [[5.0], [6.0]]
        expected = _naive_matmul(a, b)
        assert expected == [[17.0], [39.0]]
        tape = tg.Tape()
        out = tg.matmul(tape.constant(a), tape.constant(b))
        assert out.data.tolist() == expected

    def test_shape_mismatch(self):
        tape = tg.Tape()
        with pytest.raises(ValueError):
            tg.matmul(tape.constant(np.zeros((2, 3))), tape.constant(np.zeros((2, 3))))

    def test_random_matches_naive_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = rng.uniform(-1, 1, (3, 4))
            b = rng.uniform(-1, 1, (4, 2))
            tape = tg.Tape()
            out = tg.matmul(tape.constant(a), tape.constant(b))
            assert np.allclose(out.data, _naive_matmul(a.tolist(), b.tolist()))


class TestElementwise:
    def test_tanh_zero(self):
        tape = tg.Tape()
        assert tg.tanh(tape.constant([0.0])).data[0] == 0.0

    def test_concat_axis0(self):
        tape = tg.Tape()
        out = tg.concat([tape.constant([1.0]), tape.constant([2.0])], axis=0)
        assert out.data.tolist() == [1.0, 2.0]

    def test_add_bias_broadcast(self):
        tape = tg.Tape()
        out = tg.add(tape.constant(np.zeros((2, 3))), tape.constant([1.0, 2.0, 3.0]))
        assert np.array_equal(out.data, [[1.0, 2.0, 3.0]] * 2)


class TestSoftmax:
    def test_uniform_by_symmetry(self):
        tape = tg.Tape()
        out = tg.softmax(tape.constant([0.0, 0.0, 0.0])).data
        assert np.allclose(out, [1 / 3] * 3, atol=1e-15)

    def test_direct_evaluation(self):
        # oracle: direct evaluation of exp(r_i)/sum(exp(r_j))
        v = [1.0, 2.0, 3.0]
        denom = sum(math.exp(x) for x in v)
        expected = [math.exp(x) / denom for x in v]
        assert expected == pytest.approx([0.09003057317038046, 0.24472847105479767, 0.6652409557748219])
        tape = tg.Tape()
        out = tg.softmax(tape.constant(v)).data
        assert np.allclose(out, expected, atol=1e-12)

    def test_large_values_stable(self):
        tape = tg.Tape()
        out = tg.softmax(tape.constant([1000.0, 0.0, 0.0])).data
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)
        assert abs(out.sum() - 1.0) < 1e-12

    def test_sums_to_one_random(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            v = rng.uniform(-30, 30, rng.integers(1, 9))
            out = tg.softmax(tg.Tape().constant(v)).data
            assert np.all(out >= 0)
            assert abs(out.sum() - 1.0) < 1e-12


class TestMaxPool:
    def test_single_row(self):
        tape = tg.Tape()
        out = tg.max_pool_over_time(tape.constant([[1.0, 2.0]]))
        assert out.data.tolist() == [1.0, 2.0]

    def test_brute_force_column_scan(self):
        m = [[1.0, 5.0], [3.0, 2.0]]
        expected = [max(col) for col in zip(*m)]
        assert expected == [3.0, 5.0]
        tape = tg.Tape()
        assert tg.max_pool_over_time(tape.constant(m)).data.tolist() == expected

    def test_tie_routes_gradient_to_first_row(self):
        tape = tg.Tape()
        x = tape.constant([[2.0], [2.0], [2.0]])
        pooled = tg.max_pool_over_time(x)
        loss = tg.matmul(pooled, tape.constant([1.0]))
        tape.backward(loss)
        assert x.grad.tolist() == [[1.0], [0.0], [0.0]]

    def test_empty_time_axis(self):
        tape = tg.Tape()
        with pytest.raises(ValueError):
            tg.max_pool_over_time(tape.constant(np.zeros((0, 3))))

    def test_random_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            m = rng.uniform(-1, 1, (rng.integers(1, 7), rng.integers(1, 5)))
            out = tg.max_pool_over_time(tg.Tape().constant(m)).data
            assert np.array_equal(out, np.array([max(col) for col in m.T]))


class TestConv1d:
    def test_window_one_copies_channel(self):
        w = np.zeros((1, 3, 1))
        w[0, 0, 0] = 1.0
        tape = tg.Tape()
        x = np.arange(12.0).reshape(4, 3)
        out = tg.conv1d(tape.constant(x), tape.constant(w), tape.constant([0.0]))
        assert np.array_equal(out.data[:, 0], x[:, 0])

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, (3, 2))
        w = rng.uniform(-1, 1, (3, 2, 2))
        b = rng.uniform(-1, 1, 2)
        tape = tg.Tape()
        out = tg.conv1d(tape.constant(x), tape.constant(w), tape.constant(b))
        assert np.allclose(out.data, _naive_conv1d(x, w, b))

    def test_short_sequence_zero_padded(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, (1, 2))
        w = rng.uniform(-1, 1, (3, 2, 1))
        b = np.zeros(1)
        tape = tg.Tape()
        out = tg.conv1d(tape.constant(x), tape.constant(w), tape.constant(b))
        assert out.data.shape == (1, 1)
        assert np.allclose(out.data, _naive_conv1d(x, w, b))

    def test_even_window_left_biased(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(-1, 1, (4, 2))
        w = rng.uniform(-1, 1, (2, 2, 3))
        b = rng.uniform(-1, 1, 3)
        tape = tg.Tape()
        out = tg.conv1d(tape.constant(x), tape.constant(w), tape.constant(b))
        assert np.allclose(out.data, _naive_conv1d(x, w, b))


class TestEmbeddingLookup:
    def test_first_row(self):
        table = tg.Parameter(np.arange(6.0).reshape(3, 2), "t")
        out = tg.embedding_lookup(tg.Tape(), table, [0])
        assert out.data.tolist() == [[0.0, 1.0]]

    def test_repeated_id_accumulates_twice(self):
        table = tg.Parameter(np.ones((3, 2)), "t")
        tape = tg.Tape()
        rows = tg.embedding_lookup(tape, table, [1, 1])
        total = tg.matmul(tg.matmul(tape.constant(np.ones(2)), rows), tape.constant(np.ones(2)))
        tape.backward(total)
        assert np.array_equal(table.grad[1], [2.0, 2.0])
        assert np.array_equal(table.grad[0], [0.0, 0.0])

    def test_out_of_range(self):
        table = tg.Parameter(np.zeros((3, 2)), "t")
        with pytest.raises(IndexError):
            tg.embedding_lookup(tg.Tape(), table, [3])


class TestCrossEntropy:
    def test_perfect_prediction(self):
        tape = tg.Tape()
        out = tg.cross_entropy(tape.constant([1.0, 0.0, 0.0]), 0)
        assert float(out.data) == 0.0

    def test_uniform_is_log3(self):
        tape = tg.Tape()
        out = tg.cross_entropy(tape.constant([1 / 3, 1 / 3, 1 / 3]), 2)
        assert float(out.data) == pytest.approx(math.log(3.0), abs=1e-12)

    def test_gold_out_of_range(self):
        tape = tg.Tape()
        with pytest.raises(IndexError):
            tg.cross_entropy(tape.constant([0.5, 0.5, 0.0]), 5)


class TestGradientCheck:
    def test_square_function(self):
        theta = tg.Parameter([3.0], "theta")

        def f(tape):
            v = tg.mul(_lift(tape, theta), _lift(tape, theta))
            return tg.matmul(v, tape.constant([1.0]))

        err = tg.gradient_check(f, [theta])
        assert err < 1e-8

    def test_constant_function(self):
        theta = tg.Parameter([1.0, 2.0], "theta")

        def f(tape):
            return tg.matmul(tape.constant([1.0]), tape.constant([5.0]))

        assert tg.gradient_check(f, [theta]) == 0.0

    def test_softmax_matmul_chain(self):
        rng = np.random.default_rng(6)
        w = tg.Parameter(rng.uniform(-1, 1, (4, 3)), "w")
        x = rng.uniform(-1, 1, 4)

        def f(tape):
            logits = tg.matmul(tape.constant(x), w)
            return tg.cross_entropy(tg.softmax(logits), 1)

        assert tg.gradient_check(f, [w]) < 1e-4


def _lift(tape, param):
    # consume a parameter through an op so its gradient is exercised
    return tg.add(tape.zeros(*param.data.shape), param)


@pytest.mark.parametrize("trial", range(10))
def test_every_op_passes_gradient_check(trial):
    rng = np.random.default_rng(100 + trial)
    x = tg.Parameter(rng.uniform(-1, 1, (4, 3)), "x")
    w = tg.Parameter(rng.uniform(-1, 1, (3, 2)), "w")
    cw = tg.Parameter(rng.uniform(-1, 1, (3, 3, 2)), "cw")
    cb = tg.Parameter(rng.uniform(-1, 1, 2), "cb")
    v = tg.Parameter(rng.uniform(-1, 1, 4), "v")
    lw = tg.Parameter(rng.uniform(-1, 1, (2, 4)), "lw")
    lu = tg.Parameter(rng.uniform(-1, 1, (1, 4)), "lu")
    lb = tg.Parameter(rng.uniform(-1, 1, 4), "lb")

    def f(tape):
        xm = _lift(tape, x)
        h = tg.tanh(tg.matmul(xm, w))
        c = tg.conv1d(xm, cw, cb)
        states = tg.concat([tg.lstm_sequence(c, lw, lu, lb),
                            tg.lstm_sequence(c, lw, lu, lb, reverse=True)],
                           axis=1)
        pooled = tg.max_pool_over_time(states)
        first_row = tg.take_row(tg.narrow(xm, 0, 0, 1), 0)
        joined = tg.concat([pooled, tg.take_row(h, 0)], axis=0)
        row = tg.stack([
            tg.matmul(joined, joined),
            tg.matmul(_lift(tape, v), v),
            tg.matmul(first_row, first_row),
        ])
        return tg.cross_entropy(tg.softmax(tg.scale(row, 0.7)), 0)

    assert tg.gradient_check(f, [x, w, cw, cb, v, lw, lu, lb]) < 1e-4


def test_backward_linearity():
    # gradient of a sum of losses equals the sum of single-loss gradients
    rng = np.random.default_rng(7)
    w = tg.Parameter(rng.uniform(-1, 1, 3), "w")
    x1 = rng.uniform(-1, 1, 3)
    x2 = rng.uniform(-1, 1, 3)

    def run(vecs):
        w.zero_grad()
        tape = tg.Tape()
        losses = [tg.matmul(tape.constant(v), w) for v in vecs]
        total = losses[0]
        for term in losses[1:]:
            total = tg.add(total, term)
        tape.backward(total)
        return w.grad.copy()

    combined = run([x1, x2])
    assert np.allclose(combined, run([x1]) + run([x2]))


def test_narrow_and_transpose_roundtrip():
    tape = tg.Tape()
    x = tape.constant(np.arange(12.0).reshape(3, 4))
    assert np.array_equal(tg.narrow(x, 1, 1, 2).data, x.data[:, 1:3])
    with pytest.raises(ValueError):
        tg.narrow(x, 0, 2, 5)


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
