"""Dense float64 tensors with tape-recorded reverse-mode differentiation.

Only the operations the context encoders actually need are provided. Values
live in numpy arrays; the tape records one backward closure per op in
execution order, which is a valid topological order, so the reverse sweep
just walks the record list backwards.

The encoders run a whole mini-batch through each op: sequences are
(B, n, ·) arrays whose rows are right-padded with zeros, and the ops that
must not read padding (LSTM, softmax, max pool, embedding, attention)
take the real lengths or a mask.

Where a chain of generic ops ran on every mini-batch, one fused op with
a handwritten backward replaces it: `embedding_lookup` fills every table
of a row at once, `tanh_affine` is the classifier head, `lstm_sequence`
runs one or two LSTM directions, `feature_attention` is att-cnn's
attention and `softmax_cross_entropy` the loss. Each one sums in the
order of the chain it replaced, so values and gradients stay the same
bit for bit.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DataError, read_lines, write_lines


class Tensor:
    """A dense float64 array on one tape plus a slot for its upstream gradient."""

    __slots__ = ("data", "grad", "tape")

    def __init__(self, data, tape: "Tape"):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.tape = tape

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape})"


class Parameter:
    """A named trainable array with a persistent gradient accumulator."""

    __slots__ = ("name", "data", "grad")

    def __init__(self, data, name: str):
        self.name = name
        self.data = np.array(data, dtype=np.float64)
        if not np.all(np.isfinite(self.data)):
            raise ValueError(f"parameter {name!r} contains non-finite values")
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __reduce__(self) -> tuple:
        # The copy owns its values (never a view into the pickle's bytes
        # or a packed buffer) and starts with a zero gradient.
        return Parameter, (self.data, self.name)

    @classmethod
    def packed(cls, params: Sequence["Parameter"]) -> "Parameter":
        """One parameter whose data and grad hold all of params end to end.

        Each of params keeps its name, shape and values, but its data and
        grad become views into the two flat arrays, so one update of the
        packed parameter updates them all. A parameter that is already
        such a view, or that is listed twice, is rejected: packing it again
        would cut it off from the arrays it was packed into first.
        """
        params = list(params)
        if len({id(p) for p in params}) != len(params):
            raise ValueError("cannot pack a parameter twice")
        for p in params:
            if p.data.base is not None or p.grad.base is not None:
                raise ValueError(f"parameter {p.name!r} is already packed")
        sizes = [p.data.size for p in params]
        flat = cls(np.zeros(sum(sizes)), "packed")
        offset = 0
        for p, size in zip(params, sizes):
            span = slice(offset, offset + size)
            flat.data[span] = p.data.reshape(-1)
            flat.grad[span] = p.grad.reshape(-1)
            p.data = flat.data[span].reshape(p.data.shape)
            p.grad = flat.grad[span].reshape(p.grad.shape)
            offset += size
        return flat

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class Tape:
    """Execution-ordered record of ops for one forward/backward pass.

    The backward sweep consumes the records, which frees the arrays they
    hold. A tape made with record=False records nothing: a forward pass on
    it is inference only, and each array is freed once nothing uses it.
    """

    __slots__ = ("_records", "recording")

    def __init__(self, record: bool = True):
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []
        self.recording = record

    def _record(self, value, backward: Callable[[np.ndarray], None]) -> Tensor:
        """An op's output on this tape, with the closure that passes its
        gradient on to the op's operands."""
        out = Tensor(value, self)
        if self.recording:
            self._records.append((out, backward))
        return out

    def backward(self, loss: Tensor) -> None:
        """Reverse sweep from a scalar loss, seeding d(loss)/d(loss)=1."""
        if loss.tape is not self:
            raise ValueError("loss was not computed on this tape")
        if loss.data.ndim != 0:
            raise ValueError("backward expects a scalar loss")
        if not self.recording:
            raise ValueError("backward on a tape that does not record")
        loss.grad = np.asarray(1.0)
        # Tensors point at their tape, so the records form reference
        # cycles; dropping them lets the arrays go without the cycle GC.
        records, self._records = self._records, []
        for out, fn in reversed(records):
            if out.grad is not None:
                fn(out.grad)


Operand = Tensor | Parameter


def _tape_of(*xs: Operand) -> Tape:
    tape = None
    for x in xs:
        if isinstance(x, Parameter):
            continue
        if tape is None:
            tape = x.tape
        elif tape is not x.tape:
            raise ValueError("operands were recorded on different tapes")
    if tape is None:
        raise ValueError(
            "operation has no tape-bound operand; wrap an input with "
            "tg.Tensor(data, tape)"
        )
    return tape


def _accumulate(x: Operand, g: np.ndarray) -> None:
    if isinstance(x, Parameter):
        x.grad += g
    else:
        x.grad = g if x.grad is None else x.grad + g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum g over the axes that broadcasting added to, or stretched from, shape."""
    if g.shape == shape:
        return g
    if g.ndim > len(shape):
        g = g.sum(axis=tuple(range(g.ndim - len(shape))))
    stretched = tuple(i for i, size in enumerate(shape)
                      if size == 1 and g.shape[i] != 1)
    return g.sum(axis=stretched, keepdims=True) if stretched else g


def add(a: Operand, b: Operand) -> Tensor:
    """Elementwise sum under numpy broadcasting, e.g. a bias (f,) over (..., f)."""
    tape = _tape_of(a, b)
    av, bv = a.data, b.data
    try:
        ov = av + bv
    except ValueError:
        raise ValueError(f"add: incompatible shapes {av.shape} and {bv.shape}")

    def backward(g):
        _accumulate(a, _unbroadcast(g, av.shape))
        _accumulate(b, _unbroadcast(g, bv.shape))

    return tape._record(ov, backward)


def scale(a: Operand, c: float) -> Tensor:
    tape = _tape_of(a)
    ov = a.data * c

    def backward(g):
        _accumulate(a, g * c)

    return tape._record(ov, backward)


def matmul(a: Operand, b: Operand) -> Tensor:
    """a (..., q) times a matrix b (q, r) or a vector b (q,), over a's last axis."""
    tape = _tape_of(a, b)
    av, bv = a.data, b.data
    if av.ndim < 1 or bv.ndim not in (1, 2):
        raise ValueError("matmul expects a (..., q) and b (q, r) or (q,)")
    q = av.shape[-1]
    if q != bv.shape[0]:
        raise ValueError(f"matmul: inner extents differ {av.shape} @ {bv.shape}")
    ov = av @ bv

    def backward(g):
        rows = av.reshape(-1, q)
        if bv.ndim == 2:
            _accumulate(a, g @ bv.T)
            _accumulate(b, rows.T @ g.reshape(-1, bv.shape[1]))
        else:
            _accumulate(a, g[..., None] * bv)
            _accumulate(b, rows.T @ g.reshape(-1))

    return tape._record(ov, backward)


def einsum(spec: str, a: Operand, b: Operand) -> Tensor:
    """np.einsum of two operands, e.g. "bt,btd->bd" for weighted sums.

    Every index of an operand must appear in the other operand or in the
    output, so each gradient is again one einsum.
    """
    tape = _tape_of(a, b)
    inputs, _, output = spec.partition("->")
    sa, _, sb = inputs.partition(",")
    for mine, other in ((sa, sb), (sb, sa)):
        if len(set(mine)) != len(mine) or not set(mine) <= set(other + output):
            raise ValueError(f"einsum: unsupported spec {spec!r}")
    av, bv = a.data, b.data
    ov = np.einsum(spec, av, bv)

    def backward(g):
        _accumulate(a, np.einsum(f"{output},{sb}->{sa}", g, bv))
        _accumulate(b, np.einsum(f"{output},{sa}->{sb}", g, av))

    return tape._record(ov, backward)


def tanh(a: Operand) -> Tensor:
    tape = _tape_of(a)
    ov = np.tanh(a.data)

    def backward(g):
        _accumulate(a, g * (1.0 - ov * ov))

    return tape._record(ov, backward)


def lstm_sequence(x: Operand, w: Operand, u: Operand, b: Operand,
                  lengths) -> Tensor:
    """States (B, T, D*h) of D = 1 or 2 LSTM directions over each row of x,
    as one tape op; direction d fills columns d*h:(d+1)*h.

    x is (B, T, m). The D*h units are stored as the step loop reads them:
    w (m, 4Dh) and b (4Dh,) are gate-major [input, forget, output,
    candidate], each gate holding direction 0's h units, then direction
    1's; u (D, h, 4h) is one block per direction. States start at zero.
    Row i reads its first lengths[i] steps: direction 0 forward, direction
    1 backward from the row's own last real step. Step t of the result is
    the state after step t; past a row's length it is exactly 0.

    Both directions run as one step loop over H = D*h units. The forward
    loop and the handwritten BPTT loop both run transposed and gate-major:
    a step's gates are (4, H, B), each one contiguous (H, B) block. Every
    rescaling in them is by a power of two, and each product with U takes
    a memory layout for which OpenBLAS sums every dot product as it does
    for the batch-major h·U, so values match a batch-major loop bit for bit.
    """
    tape = _tape_of(x, w, u, b)
    xv, wv, ud, bv = (a.data for a in (x, w, u, b))
    lengths = np.asarray(lengths, dtype=np.intp)
    D, h = ud.shape[:2] if ud.ndim == 3 else (0, 0)
    H = D * h
    m = xv.shape[2] if xv.ndim == 3 else 0
    if xv.ndim != 3 or min(xv.shape[:2]) < 1 or D not in (1, 2) or h < 1 \
            or (wv.shape, ud.shape, bv.shape) != ((m, 4 * H), (D, h, 4 * h),
                                                  (4 * H,)):
        raise ValueError(f"lstm_sequence expects x (B,T,m), w (m,4Dh), "
                         f"u (D,h,4h), b (4Dh,), D 1 or 2; got {xv.shape}, "
                         f"{wv.shape}, {ud.shape}, {bv.shape}")
    B, T, _ = xv.shape
    if lengths.shape != (B,) or lengths.min() < 1 or lengths.max() > T:
        raise ValueError(f"lstm_sequence: lengths {lengths} do not fit x {xv.shape}")
    # Both directions run as one LSTM of H units with a block-diagonal U,
    # whose (D, h, 4, D, h) view holds direction d's u at block[d].
    block = (np.arange(D), slice(None), slice(None), np.arange(D))
    uv = np.zeros((D, h, 4, D, h))
    uv[block] = ud.reshape(D, h, 4, h)
    uv = uv.reshape(H, 4 * H)
    # Steps past the longest row are all padding; they are never run.
    L = int(lengths.max())

    def flip(a):
        """a (L, ..., H), reverse columns time-reversed: loop step s runs
        forward step s and reverse step L-1-s."""
        if D == 1:
            return a
        a = a.reshape(a.shape[:-1] + (D, h))
        out = a.copy()
        out[..., 1, :] = a[::-1, ..., 1, :]
        return out.reshape(out.shape[:-2] + (H,))

    def swap(a):
        """a (L, p, q) as a C-contiguous (L, q, p)."""
        return np.ascontiguousarray(a.transpose(0, 2, 1))

    # keep (L, H, B) is 1 where a unit reads a real step, 0 on padding.
    real = np.arange(L)[:, None] < lengths  # (L, B)
    keep = np.repeat(np.stack([real, real[::-1]][:D], axis=1), h, axis=1) \
        .astype(np.float64)
    # sigmoid(v) = 0.5 + 0.5*tanh(v/2). Halving is exact, so halving the gate
    # columns of x·W + b and of U gives one tanh argument for all four gates.
    half = np.ones(4 * H)
    half[:3 * H] = 0.5
    xs = xv[:, :L].transpose(1, 0, 2)  # time-major (L, B, m)
    xw = swap(flip(((xs @ wv + bv) * half).reshape(L, B, 4, H))
              .reshape(L, B, 4 * H))  # (L, 4H, B)
    # The loop carries s = 1 + tanh = 2*sigmoid for the three gates and 2h
    # for the state; the two factors of 0.5 this needs sit in U and keep.
    # U^T as a view of the (H, 4H) array: uh @ h sums like h^T @ U.
    uh = (uv * (0.5 * half)).T
    keep_half = 0.5 * keep
    acts = np.empty((L, 4, H, B))  # s of the three gates, then the candidate
    pres = acts.reshape(L, 4 * H, B)
    cs, tcs, hs = np.empty((L, H, B)), np.empty((L, H, B)), np.empty((L, H, B))
    h_t, c_t = np.zeros((H, B)), np.zeros((H, B))
    for t in range(L):
        np.tanh(xw[t] + uh @ h_t, out=pres[t])
        a = acts[t]
        a[:3] += 1.0
        i, f, o, g = a
        # Zeroing c on padding zeroes h too, since tanh(0) = 0.
        c_t = np.multiply(f * c_t + i * g, keep_half[t], out=cs[t])
        h_t = np.multiply(o, np.tanh(c_t, out=tcs[t]), out=hs[t])
    states = 0.5 * swap(hs)  # (L, B, H)
    ov = np.zeros((B, T, H))
    ov[:, :L] = flip(states).transpose(1, 0, 2)

    def backward(g):
        # Gate-major like the forward loop. Step t of dPre is (dc, dc, dh,
        # dc) times step t of scales, with dc = dh * dc_scale + dc_next: one
        # multiply broadcasts dc over the four gates, a second overwrites
        # gate 2 with dh. Padding steps pass no gradient on, in either
        # direction: keep is folded into scales and the forget factor fk.
        sig = 0.5 * acts[:, :3]
        cand = acts[:, 3]
        dsig = sig * (1.0 - sig)
        scales = np.empty((L, 4, H, B))
        np.multiply(cand, dsig[:, 0], out=scales[:, 0])
        scales[0, 1] = 0.0  # c_prev of the first step
        np.multiply(cs[:-1], dsig[1:, 1], out=scales[1:, 1])
        np.multiply(tcs, dsig[:, 2], out=scales[:, 2])
        np.multiply(sig[:, 0], 1.0 - cand * cand, out=scales[:, 3])
        scales *= keep[:, None]
        dc_scale = sig[:, 2] * (1.0 - tcs * tcs)
        fk = sig[:, 1] * keep
        gs = swap(flip(g[:, :L].transpose(1, 0, 2)))  # (L, H, B)
        # dPre is kept batch-major: uv @ dPre[t]^T, with dPre[t] a (B, 4H)
        # row block, sums like dPre[t] @ U^T.
        dpre = np.empty((L, B, 4, H))
        dflat = dpre.reshape(L, B, 4 * H)
        dpre_t = dpre.transpose(0, 2, 3, 1)
        dh_next, dc_next = np.zeros((H, B)), np.zeros((H, B))
        for t in reversed(range(L)):
            dh = gs[t] + dh_next
            dc = dh * dc_scale[t]
            dc += dc_next
            d = dpre_t[t]
            np.multiply(dc, scales[t], out=d)
            np.multiply(dh, scales[t, 2], out=d[2])
            np.matmul(uv, dflat[t].T, out=dh_next)
            dc_next = dc * fk[t]
        h_prev = np.concatenate((np.zeros((1, B, H)), states[:-1]))
        # Off-diagonal blocks of dU belong to no parameter and are dropped.
        du = (h_prev.reshape(L * B, H).T @ dflat.reshape(L * B, 4 * H)) \
            .reshape(D, h, 4, D, h)
        _accumulate(u, du[block].reshape(D, h, 4 * h))
        flat = flip(dpre).reshape(L * B, 4 * H)
        dx = np.zeros_like(xv)
        dx[:, :L] = (flat @ wv.T).reshape(L, B, m).transpose(1, 0, 2)
        _accumulate(x, dx)
        _accumulate(w, xs.reshape(L * B, m).T @ flat)
        _accumulate(b, flat.sum(axis=0))

    return tape._record(ov, backward)


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis of x, whose masked entries are -inf."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    e /= e.sum(axis=-1, keepdims=True)
    return e


def softmax(v: Operand, mask) -> Tensor:
    """Stable softmax over the last axis (max subtraction before exp).

    Where the boolean mask (broadcast to v's shape) is False the weight is
    exactly 0 and so is the gradient; every row needs one True entry.
    """
    tape = _tape_of(v)
    x = v.data
    if x.ndim < 1 or x.shape[-1] < 1:
        raise ValueError("softmax expects a non-empty last axis")
    # Any over the last axis commutes with broadcasting the mask.
    if not np.any(mask, axis=-1).all():
        raise ValueError("softmax: a row has no unmasked entry")
    ov = _softmax_rows(np.where(mask, x, -np.inf))

    def backward(g):
        _accumulate(v, ov * (g - (g * ov).sum(axis=-1, keepdims=True)))

    return tape._record(ov, backward)


def concat(parts: Sequence[Operand], axis: int = 0) -> Tensor:
    if not parts:
        raise ValueError("concat of zero tensors")
    tape = _tape_of(*parts)
    values = [p.data for p in parts]
    ov = np.concatenate(values, axis=axis)
    sizes = [v.shape[axis] for v in values]

    def backward(g):
        offset = 0
        for p, size in zip(parts, sizes):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + size)
            _accumulate(p, g[tuple(index)])
            offset += size

    return tape._record(ov, backward)


def gather(a: Operand, positions) -> Tensor:
    """Rows a[i, positions[i]] of a (B, T, d).

    positions (B,) gives (B, d); positions (B, k) gives (B, k, d).
    Backward scatter-adds, so repeated positions add up.
    """
    tape = _tape_of(a)
    av = a.data
    pos = np.asarray(positions, dtype=np.intp)
    if av.ndim != 3 or pos.ndim not in (1, 2) or pos.shape[0] != av.shape[0]:
        raise ValueError(f"gather: positions {pos.shape} do not fit a {av.shape}")
    if pos.size and (pos.min() < 0 or pos.max() >= av.shape[1]):
        raise IndexError(f"gather: position out of range for shape {av.shape}")
    index = (np.arange(len(pos)).reshape((-1,) + (1,) * (pos.ndim - 1)), pos)
    ov = av[index]

    def backward(g):
        z = np.zeros_like(av)
        np.add.at(z, index, g)
        _accumulate(a, z)

    return tape._record(ov, backward)


def max_pool_over_time(a: Operand, starts, ends) -> Tensor:
    """Max over the steps [start, end) of each segment of each row of a (B, T, f).

    starts and ends are (B, S); the result is (B, S*f), segment after
    segment. An empty segment gives 0. The gradient goes to the first
    argmax.
    """
    tape = _tape_of(a)
    av = a.data
    starts, ends = np.asarray(starts), np.asarray(ends)
    if av.ndim != 3 or starts.shape != ends.shape or starts.ndim != 2 \
            or starts.shape[0] != av.shape[0]:
        raise ValueError(f"max_pool_over_time: segments {starts.shape} "
                         f"do not fit a {av.shape}")
    B, T, f = av.shape
    steps = np.arange(T)[:, None, None]
    inside = (steps >= starts) & (steps < ends)  # (T, B, S)
    filled = inside.any(axis=0)[:, :, None]  # (B, S, 1)
    # (T, B, S, f): time first, so the max over time is T - 1 elementwise
    # maxima of contiguous blocks, and the argmax only runs in backward.
    values = np.where(inside[..., None], av.transpose(1, 0, 2)[:, :, None],
                      -np.inf)
    ov = np.where(filled, values.max(axis=0), 0.0).reshape(B, -1)

    def backward(g):
        rows = values.argmax(axis=0)  # (B, S, f), first maximum
        flat = (np.arange(0, B * T, T)[:, None, None] + rows) * f + np.arange(f)
        # bincount adds in input order, as np.add.at would.
        z = np.bincount(flat.reshape(-1), (g.reshape(rows.shape) * filled)
                        .reshape(-1), minlength=B * T * f)
        _accumulate(a, z.reshape(av.shape))

    return tape._record(ov, backward)


def conv1d(x: Operand, w: Operand, b: Operand) -> Tensor:
    """Same-length 1-d convolution over the steps of each row of x.

    x is (B, n, m), w is (win, m, f), b is (f,). Zero padding of win-1 steps
    is split evenly around each row with the extra step on the left.
    """
    tape = _tape_of(x, w, b)
    xv, wv, bv = x.data, w.data, b.data
    if xv.ndim != 3 or wv.ndim != 3 or bv.ndim != 1:
        raise ValueError("conv1d expects x (B,n,m), w (win,m,f), b (f,)")
    B, n, m = xv.shape
    win, wm, f = wv.shape
    if wm != m or bv.shape[0] != f:
        raise ValueError(
            f"conv1d: shape mismatch x={xv.shape} w={wv.shape} b={bv.shape}"
        )
    if n < 1:
        raise ValueError("conv1d: empty sequence")
    left = win // 2
    padded = xv
    if win > 1:
        padded = np.zeros((B, n + win - 1, m))
        padded[:, left : left + n] = xv
    ov = padded[:, :n] @ wv[0] + bv
    for d in range(1, win):
        ov += padded[:, d : d + n] @ wv[d]

    def backward(g):
        gx_padded = np.zeros_like(padded)
        gw = np.empty_like(wv)
        rows = g.reshape(B * n, f)
        for d in range(win):
            gw[d] = padded[:, d : d + n].reshape(B * n, m).T @ rows
            gx_padded[:, d : d + n] += g @ wv[d].T
        _accumulate(x, gx_padded[:, left : left + n])
        _accumulate(w, gw)
        _accumulate(b, rows.sum(axis=0))

    return tape._record(ov, backward)


def feature_attention(x: Operand, features, feature_mask, mask, w1: Operand,
                      b1: Operand, w2: Operand) -> tuple[Tensor, np.ndarray]:
    """att-cnn's attention of each feature row over the steps, as one op.

    x is (B, T, m); features (B, k) are positions in each row of x and
    feature_mask (B, k) is True on the real ones; mask (B, T) is True on
    the real steps; w1 (2m, h), b1 (h,), w2 (h,). Feature j scores step t
    as tanh([x_t ; x_j]·W1 + b1)·w2, its weights are the softmax of the
    scores over the real steps, and it attends to the weighted sum of the
    rows. Returns the mean of the real features' attended rows (B, m)
    and alpha (B, T), the mean of their weights scaled to sum to 1.
    """
    tape = _tape_of(x, w1, b1, w2)
    xv, w1v, b1v, w2v = (o.data for o in (x, w1, b1, w2))
    pos = np.asarray(features, dtype=np.intp)
    feature_mask, mask = np.asarray(feature_mask), np.asarray(mask)
    m = xv.shape[-1] if xv.ndim == 3 else 0
    if xv.ndim != 3 or pos.ndim != 2 or pos.shape[0] != xv.shape[0] \
            or feature_mask.shape != pos.shape or mask.shape != xv.shape[:2] \
            or w1v.ndim != 2 or w1v.shape[0] != 2 * m \
            or b1v.shape != w1v.shape[1:] or w2v.shape != w1v.shape[1:]:
        raise ValueError(
            f"feature_attention expects x (B,T,m), features and feature_mask "
            f"(B,k), mask (B,T), w1 (2m,h), b1 (h,), w2 (h,); got {xv.shape}, "
            f"{pos.shape}, {feature_mask.shape}, {mask.shape}, "
            f"{w1v.shape}, {b1v.shape}, {w2v.shape}")
    B, T, _ = xv.shape
    if pos.size and (pos.min() < 0 or pos.max() >= T):
        raise IndexError(f"feature_attention: position out of range for "
                         f"shape {xv.shape}")
    if not mask.any(axis=1).all() or not feature_mask.any(axis=1).all():
        raise ValueError("feature_attention: a row has no real step or feature")
    index = (np.arange(B)[:, None], pos)
    fv = xv[index]  # (B, k, m)
    wx, wf = w1v[:m], w1v[m:]
    # tanh([x_t ; x_j]·W1 + b1) is summed in (B, k, h, T), where the
    # broadcasts run along contiguous steps, and read as (B, k, T, h).
    pre = np.ascontiguousarray((xv @ wx).transpose(0, 2, 1))[:, None] \
        + (fv @ wf)[..., None]
    pre += b1v[:, None]
    hidden = np.ascontiguousarray(np.tanh(pre, out=pre).transpose(0, 1, 3, 2))
    alpha = _softmax_rows(np.where(mask[:, None], hidden @ w2v, -np.inf))
    weights = feature_mask / feature_mask.sum(axis=1, keepdims=True)
    summaries = np.einsum("bkt,btm->bkm", alpha, xv)
    ov = np.einsum("bk,bkm->bm", weights, summaries)
    mean_alpha = np.einsum("bk,bkt->bt", weights, alpha)
    mean_alpha /= mean_alpha.sum(axis=1, keepdims=True)

    def backward(g):
        d_summaries = np.einsum("bm,bk->bkm", g, weights)
        d_alpha = np.einsum("bkm,btm->bkt", d_summaries, xv)
        dx = np.einsum("bkm,bkt->btm", d_summaries, alpha)
        d_scores = alpha * (d_alpha - (d_alpha * alpha).sum(axis=-1,
                                                              keepdims=True))
        dpre = d_scores[..., None] * w2v * (1.0 - hidden * hidden)  # (B,k,T,h)
        dx_w, df_w = dpre.sum(axis=1), dpre.sum(axis=2)
        dx = dx + dx_w @ wx.T
        # The feature rows' gradient is summed apart, in the order of
        # np.add.at, and then added, as the gather of the chain did.
        cells = (index[0] * T + pos)[..., None] * m + np.arange(m)
        df = np.bincount(cells.reshape(-1), (df_w @ wf.T).reshape(-1),
                         minlength=xv.size)
        _accumulate(x, dx + df.reshape(xv.shape))
        _accumulate(w1, np.concatenate(
            (xv.reshape(-1, m).T @ dx_w.reshape(-1, wx.shape[1]),
             fv.reshape(-1, m).T @ df_w.reshape(-1, wf.shape[1]))))
        _accumulate(b1, dpre.sum(axis=(0, 1, 2)))
        _accumulate(w2, np.einsum("bkt,bkth->h", d_scores, hidden))

    return tape._record(ov, backward), mean_alpha


def embedding_lookup(tape: Tape, tables: Sequence[Parameter], ids,
                     mask) -> Tensor:
    """Rows of several embedding tables side by side, as one op.

    ids holds one id array per table, all of one shape S; the result is
    S + (total table width,), table j's rows in its own columns. A table
    may be listed more than once. Where the boolean mask (shape S) is
    False the row is exactly 0 and takes no gradient. Backward
    scatter-adds, so repeated ids add up.
    """
    values = [t.data for t in tables]
    if not values or len(ids) != len(values) or any(v.ndim != 2 for v in values):
        raise ValueError("embedding_lookup expects one id array per (V,m) table")
    idx = [np.asarray(i, dtype=np.intp) for i in ids]
    shape = idx[0].shape
    if any(i.shape != shape for i in idx):
        raise ValueError("embedding_lookup: id arrays differ in shape")
    live = [i[mask] for i in idx]
    for tv, rows in zip(values, live):
        if rows.size and (rows.min() < 0 or rows.max() >= tv.shape[0]):
            bad = rows[(rows < 0) | (rows >= tv.shape[0])][0]
            raise IndexError(f"embedding id {bad} out of range for table {tv.shape}")
    widths = [v.shape[1] for v in values]
    edges = [0, *accumulate(widths)]
    ov = np.zeros(shape + (edges[-1],))
    ov[mask] = np.concatenate([tv[rows] for tv, rows in zip(values, live)],
                              axis=1)

    def backward(g):
        g = g[mask]
        # Last table first: a table listed twice takes its later rows'
        # gradient first, as separate lookups did on the reverse sweep.
        # Each scatter-add runs over the flat grad, a view of it, in the
        # order np.add.at over (row, column) pairs would take.
        for j in reversed(range(len(tables))):
            cells = (live[j][:, None] * widths[j] + np.arange(widths[j]))
            np.add.at(tables[j].grad.reshape(-1), cells.reshape(-1),
                      g[:, edges[j]:edges[j + 1]].reshape(-1))

    return tape._record(ov, backward)


def tanh_affine(s: Operand, w: Operand, b: Operand) -> Tensor:
    """tanh(s)·w + b of s (B, z), w (z, c), b (c,), as one op."""
    tape = _tape_of(s, w, b)
    sv, wv, bv = s.data, w.data, b.data
    if sv.ndim != 2 or wv.ndim != 2 or sv.shape[1] != wv.shape[0] \
            or bv.shape != wv.shape[1:]:
        raise ValueError(f"tanh_affine expects s (B,z), w (z,c), b (c,); "
                         f"got {sv.shape}, {wv.shape}, {bv.shape}")
    t = np.tanh(sv)
    ov = t @ wv + bv

    def backward(g):
        _accumulate(b, g.sum(axis=0))
        _accumulate(w, t.T @ g)
        _accumulate(s, (g @ wv.T) * (1.0 - t * t))

    return tape._record(ov, backward)


def softmax_cross_entropy(logits: Operand, gold) -> Tensor:
    """Mean over rows of -log softmax(logits)[gold], as one op.

    logits is (B, C) and gold holds B class ids. The gradient of row i is
    (softmax(logits_i) - onehot(gold_i)) / B, with no clamp, so a confident
    mistake still gets the full gradient.
    """
    tape = _tape_of(logits)
    lv = logits.data
    gold = np.asarray(gold, dtype=np.intp)
    if lv.ndim != 2 or gold.shape != lv.shape[:1] or len(gold) < 1:
        raise ValueError(f"softmax_cross_entropy: logits {lv.shape}, gold {gold.shape}")
    B, C = lv.shape
    if gold.min() < 0 or gold.max() >= C:
        raise IndexError(f"gold class out of range for {C} classes")
    rows = np.arange(B)
    shifted = lv - lv.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1)
    ov = (np.log(total) - shifted[rows, gold]).sum() / B

    def backward(g):
        d = e  # the softmax, then its gradient, in place
        d /= total[:, None]
        d[rows, gold] -= 1.0
        d *= float(g) / B
        _accumulate(logits, d)

    return tape._record(ov, backward)


def gradient_check(f: Callable[[Tape], Tensor],
                   params: Sequence[Parameter]) -> float:
    """Compare tape gradients of a scalar function against central differences.

    Returns the max over all parameter coordinates of
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    `f` must be deterministic and must not mutate the parameters.
    """
    eps = 1e-5  # the central-difference step
    for p in params:
        p.zero_grad()
    tape = Tape()
    tape.backward(f(tape))
    analytic = [p.grad.copy() for p in params]
    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gf = ga.reshape(-1)
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + eps
            hi = float(f(Tape()).data)
            flat[i] = saved - eps
            lo = float(f(Tape()).data)
            flat[i] = saved
            numeric = (hi - lo) / (2.0 * eps)
            err = abs(gf[i] - numeric) / max(1e-8, abs(gf[i]) + abs(numeric))
            worst = max(worst, err)
    return worst


def save_checkpoint(path, params: Iterable[Parameter]) -> None:
    """Write parameters as name/shape header lines plus decimal float rows."""

    def lines():
        for p in params:
            yield p.name + "\t" + " ".join(str(d) for d in p.data.shape)
            yield " ".join(format(v, ".17g") for v in p.data.reshape(-1))

    write_lines(path, lines())


def load_checkpoint(path) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    # Kept blank: a parameter with no values has an empty payload line.
    lines = [line for _, line in read_lines(path, keep_blank=True)]
    if len(lines) % 2 != 0:
        raise DataError("truncated checkpoint", path=path)
    for k in range(0, len(lines), 2):
        header, payload = lines[k], lines[k + 1]
        if "\t" not in header:
            raise DataError("malformed checkpoint header", path=path, line=k + 1)
        name, shape_text = header.split("\t", 1)
        try:
            shape = tuple(int(t) for t in shape_text.split())
            values = np.array([float(t) for t in payload.split()])
        except ValueError as exc:
            raise DataError(f"bad checkpoint block: {exc}", path=path, line=k + 1)
        if values.size != int(np.prod(shape)):
            raise DataError(
                f"tensor {name!r} has {values.size} values for shape {shape}",
                path=path,
                line=k + 2,
            )
        if name in arrays:
            raise DataError(f"duplicate tensor {name!r}", path=path, line=k + 1)
        arrays[name] = values.reshape(shape)
    return arrays


def restore_parameters(params: Iterable[Parameter], arrays: dict[str, np.ndarray]) -> None:
    """Copy checkpoint arrays into parameters; shapes must match exactly."""
    for p in params:
        if p.name not in arrays:
            raise DataError(f"checkpoint is missing parameter {p.name!r}")
        a = arrays[p.name]
        if a.shape != p.data.shape:
            raise DataError(
                f"parameter {p.name!r} has shape {p.data.shape} "
                f"but checkpoint stores {a.shape}"
            )
        if not np.all(np.isfinite(a)):
            raise DataError(f"checkpoint value of {p.name!r} is not finite")
        p.data[...] = a
