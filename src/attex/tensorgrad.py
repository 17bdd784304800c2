"""Dense float64 tensors with tape-recorded reverse-mode differentiation.

Only the operations the context encoders actually need are provided. Values
live in numpy arrays; the tape records one backward closure per op in
execution order, which is a valid topological order, so the reverse sweep
just walks the record list backwards.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import DataError


class Tensor:
    """A dense float64 array plus a slot for its upstream gradient."""

    __slots__ = ("data", "grad", "tape")

    def __init__(self, data, tape: "Tape | None" = None):
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

    def __repr__(self) -> str:
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class Tape:
    """Execution-ordered record of ops for one forward/backward pass."""

    __slots__ = ("_records",)

    def __init__(self):
        self._records: list[tuple[Tensor, Callable[[np.ndarray], None]]] = []

    def _record(self, out: Tensor, backward: Callable[[np.ndarray], None]) -> None:
        self._records.append((out, backward))

    def constant(self, data) -> Tensor:
        """Tape-bound leaf; gradients may flow into it but go nowhere."""
        return Tensor(data, self)

    def zeros(self, *shape: int) -> Tensor:
        return Tensor(np.zeros(shape), self)

    def backward(self, loss: Tensor, seed: float = 1.0) -> None:
        """Reverse sweep from a scalar loss, seeding d(loss)/d(loss)=seed."""
        if loss.tape is not self:
            raise ValueError("loss was not computed on this tape")
        if loss.data.ndim != 0:
            raise ValueError("backward expects a scalar loss")
        loss.grad = np.asarray(float(seed))
        for out, fn in reversed(self._records):
            if out.grad is not None:
                fn(out.grad)


Operand = Tensor | Parameter


def _value(x: Operand) -> np.ndarray:
    return x.data


def _tape_of(*xs: Operand) -> Tape:
    tape = None
    for x in xs:
        t = x.tape if isinstance(x, Tensor) else None
        if t is None:
            continue
        if tape is None:
            tape = t
        elif tape is not t:
            raise ValueError("operands were recorded on different tapes")
    if tape is None:
        raise ValueError(
            "operation has no tape-bound operand; wrap an input with tape.constant"
        )
    return tape


def _accumulate(x: Operand, g: np.ndarray) -> None:
    if isinstance(x, Parameter):
        x.grad += g
    elif x.tape is not None:
        x.grad = g if x.grad is None else x.grad + g


def add(a: Operand, b: Operand) -> Tensor:
    """Elementwise sum; also supports bias broadcast (n,f)+(f,) and (n,)+(1,)."""
    tape = _tape_of(a, b)
    av, bv = _value(a), _value(b)
    if av.shape == bv.shape:
        out = Tensor(av + bv, tape)

        def backward(g):
            _accumulate(a, g)
            _accumulate(b, g)

    elif av.ndim == 2 and bv.ndim == 1 and av.shape[1] == bv.shape[0]:
        out = Tensor(av + bv[None, :], tape)

        def backward(g):
            _accumulate(a, g)
            _accumulate(b, g.sum(axis=0))

    elif av.ndim == 1 and bv.shape == (1,):
        out = Tensor(av + bv[0], tape)

        def backward(g):
            _accumulate(a, g)
            _accumulate(b, np.array([g.sum()]))

    else:
        raise ValueError(f"add: incompatible shapes {av.shape} and {bv.shape}")
    tape._record(out, backward)
    return out


def mul(a: Operand, b: Operand) -> Tensor:
    """Elementwise product of same-shape operands."""
    tape = _tape_of(a, b)
    av, bv = _value(a), _value(b)
    if av.shape != bv.shape:
        raise ValueError(f"mul: shape mismatch {av.shape} vs {bv.shape}")
    out = Tensor(av * bv, tape)

    def backward(g):
        _accumulate(a, g * bv)
        _accumulate(b, g * av)

    tape._record(out, backward)
    return out


def scale(a: Operand, c: float) -> Tensor:
    tape = _tape_of(a)
    out = Tensor(_value(a) * c, tape)

    def backward(g):
        _accumulate(a, g * c)

    tape._record(out, backward)
    return out


def matmul(a: Operand, b: Operand) -> Tensor:
    """Matrix/vector product: 2dx2d, 1dx2d, 2dx1d, or 1dx1d (dot)."""
    tape = _tape_of(a, b)
    av, bv = _value(a), _value(b)
    if av.ndim == 2 and bv.ndim == 2:
        if av.shape[1] != bv.shape[0]:
            raise ValueError(f"matmul: inner extents differ {av.shape} @ {bv.shape}")
        out = Tensor(av @ bv, tape)

        def backward(g):
            _accumulate(a, g @ bv.T)
            _accumulate(b, av.T @ g)

    elif av.ndim == 1 and bv.ndim == 2:
        if av.shape[0] != bv.shape[0]:
            raise ValueError(f"matmul: inner extents differ {av.shape} @ {bv.shape}")
        out = Tensor(av @ bv, tape)

        def backward(g):
            _accumulate(a, bv @ g)
            _accumulate(b, np.outer(av, g))

    elif av.ndim == 2 and bv.ndim == 1:
        if av.shape[1] != bv.shape[0]:
            raise ValueError(f"matmul: inner extents differ {av.shape} @ {bv.shape}")
        out = Tensor(av @ bv, tape)

        def backward(g):
            _accumulate(a, np.outer(g, bv))
            _accumulate(b, av.T @ g)

    elif av.ndim == 1 and bv.ndim == 1:
        if av.shape != bv.shape:
            raise ValueError(f"matmul: inner extents differ {av.shape} @ {bv.shape}")
        out = Tensor(av @ bv, tape)

        def backward(g):
            _accumulate(a, g * bv)
            _accumulate(b, g * av)

    else:
        raise ValueError("matmul supports 1-d and 2-d operands only")
    tape._record(out, backward)
    return out


def tanh(a: Operand) -> Tensor:
    tape = _tape_of(a)
    ov = np.tanh(_value(a))
    out = Tensor(ov, tape)

    def backward(g):
        _accumulate(a, g * (1.0 - ov * ov))

    tape._record(out, backward)
    return out


def lstm_sequence(
    x: Operand, w: Operand, u: Operand, b: Operand, reverse: bool = False
) -> Tensor:
    """Hidden states (T, h) of an LSTM over the rows of x, as one tape op.

    x is (T, m), w (m, 4h), u (h, 4h), b (4h,); gates are packed [input,
    forget, output, candidate] and the state starts at zero. reverse=True
    reads the rows last to first; row t of the result is still the state
    after row t. The backward pass is a handwritten BPTT loop.
    """
    tape = _tape_of(x, w, u, b)
    xv, wv, uv, bv = _value(x), _value(w), _value(u), _value(b)
    h = uv.shape[0] if uv.ndim == 2 else 0
    if xv.ndim != 2 or len(xv) < 1 or h < 1 or wv.shape != (xv.shape[1], 4 * h) \
            or uv.shape != (h, 4 * h) or bv.shape != (4 * h,):
        raise ValueError(
            f"lstm_sequence expects x (T,m), w (m,4h), u (h,4h), b (4h,); got "
            f"{xv.shape}, {wv.shape}, {uv.shape}, {bv.shape}"
        )
    T, h2, h3 = len(xv), 2 * h, 3 * h
    # sigmoid(v) = 0.5 + 0.5*tanh(v/2). Halving is exact, so halving the gate
    # columns of x·W + b and of U gives one tanh argument for all four gates.
    half = np.ones(4 * h)
    half[:h3] = 0.5
    xw = (xv @ wv + bv) * half
    uh = uv * half
    steps = range(T - 1, -1, -1) if reverse else range(T)
    acts = np.empty((T, 4 * h))  # sigmoid gates, then the candidate
    cs, tcs, hs = np.empty((T, h)), np.empty((T, h)), np.empty((T, h))
    h_t, c_t = np.zeros(h), np.zeros(h)
    for t in steps:
        a = np.tanh(xw[t] + h_t @ uh, out=acts[t])
        a[:h3] *= 0.5
        a[:h3] += 0.5
        c_t = a[h:h2] * c_t + a[:h] * a[h3:]
        cs[t] = c_t
        h_t = np.multiply(a[h2:h3], np.tanh(c_t, out=tcs[t]), out=hs[t])
    out = Tensor(hs, tape)

    def backward(g):
        zero = np.zeros((1, h))
        h_prev = np.concatenate((hs[1:], zero) if reverse else (zero, hs[:-1]))
        c_prev = np.concatenate((cs[1:], zero) if reverse else (zero, cs[:-1]))
        sig, cand = acts[:, :h3], acts[:, h3:]
        # Row t of dPre is (dc, dc, dh, dc) times row t of scales.
        scales = np.concatenate((cand, c_prev, tcs, acts[:, :h]), axis=1) \
            * np.concatenate((sig * (1.0 - sig), 1.0 - cand * cand), axis=1)
        dc_scale = acts[:, h2:h3] * (1.0 - tcs * tcs)
        dpre = np.empty((T, 4 * h))
        dh_next, dc_next = np.zeros(h), np.zeros(h)
        for t in reversed(steps):
            dh = g[t] + dh_next
            dc = dh * dc_scale[t] + dc_next
            d = np.multiply(np.concatenate((dc, dc, dh, dc)), scales[t], out=dpre[t])
            dh_next = d @ uv.T
            dc_next = dc * acts[t, h:h2]
        _accumulate(x, dpre @ wv.T)
        _accumulate(w, xv.T @ dpre)
        _accumulate(u, h_prev.T @ dpre)
        _accumulate(b, dpre.sum(axis=0))

    tape._record(out, backward)
    return out


def softmax(v: Operand) -> Tensor:
    """Stable softmax of a 1-d vector (max subtraction before exp)."""
    tape = _tape_of(v)
    x = _value(v)
    if x.ndim != 1 or x.shape[0] < 1:
        raise ValueError("softmax expects a non-empty 1-d vector")
    e = np.exp(x - x.max())
    ov = e / e.sum()
    out = Tensor(ov, tape)

    def backward(g):
        _accumulate(v, ov * (g - float(g @ ov)))

    tape._record(out, backward)
    return out


def concat(parts: Sequence[Operand], axis: int = 0) -> Tensor:
    if not parts:
        raise ValueError("concat of zero tensors")
    tape = _tape_of(*parts)
    values = [_value(p) for p in parts]
    out = Tensor(np.concatenate(values, axis=axis), tape)
    sizes = [v.shape[axis] for v in values]

    def backward(g):
        offset = 0
        for p, size in zip(parts, sizes):
            index = [slice(None)] * g.ndim
            index[axis] = slice(offset, offset + size)
            _accumulate(p, g[tuple(index)])
            offset += size

    tape._record(out, backward)
    return out


def stack(parts: Sequence[Operand]) -> Tensor:
    """Stack equal-shape tensors along a new leading axis (scalars -> vector)."""
    if not parts:
        raise ValueError("stack of zero tensors")
    tape = _tape_of(*parts)
    values = [_value(p) for p in parts]
    first = values[0].shape
    if any(v.shape != first for v in values):
        raise ValueError("stack expects equal shapes")
    out = Tensor(np.stack(values), tape)

    def backward(g):
        for i, p in enumerate(parts):
            _accumulate(p, g[i])

    tape._record(out, backward)
    return out


def narrow(a: Operand, axis: int, start: int, length: int) -> Tensor:
    """Contiguous slice of `length` extents along `axis`."""
    tape = _tape_of(a)
    av = _value(a)
    if not (0 <= start and start + length <= av.shape[axis] and length >= 1):
        raise ValueError(
            f"narrow: [{start}, {start + length}) out of range for axis {axis} "
            f"of shape {av.shape}"
        )
    index = [slice(None)] * av.ndim
    index[axis] = slice(start, start + length)
    index = tuple(index)
    out = Tensor(av[index], tape)

    def backward(g):
        z = np.zeros_like(av)
        z[index] = g
        _accumulate(a, z)

    tape._record(out, backward)
    return out


def take_row(a: Operand, i: int) -> Tensor:
    """Row i of a matrix as a 1-d vector."""
    tape = _tape_of(a)
    av = _value(a)
    if av.ndim != 2:
        raise ValueError("take_row expects a matrix")
    if not 0 <= i < av.shape[0]:
        raise IndexError(f"row {i} out of range for shape {av.shape}")
    out = Tensor(av[i], tape)

    def backward(g):
        z = np.zeros_like(av)
        z[i] = g
        _accumulate(a, z)

    tape._record(out, backward)
    return out


def max_pool_over_time(a: Operand) -> Tensor:
    """Columnwise max of an (n,f) matrix; gradient goes to the first argmax."""
    tape = _tape_of(a)
    av = _value(a)
    if av.ndim != 2:
        raise ValueError("max_pool_over_time expects a matrix")
    if av.shape[0] < 1:
        raise ValueError("max_pool_over_time: empty time axis")
    rows = np.argmax(av, axis=0)  # first maximum per column
    cols = np.arange(av.shape[1])
    out = Tensor(av[rows, cols], tape)

    def backward(g):
        z = np.zeros_like(av)
        z[rows, cols] = g
        _accumulate(a, z)

    tape._record(out, backward)
    return out


def conv1d(x: Operand, w: Operand, b: Operand) -> Tensor:
    """Same-length 1-d convolution over rows of x.

    x is (n, m), w is (win, m, f), b is (f,). Zero padding of win-1 rows is
    split evenly around the sequence with the extra row on the left.
    """
    tape = _tape_of(x, w, b)
    xv, wv, bv = _value(x), _value(w), _value(b)
    if xv.ndim != 2 or wv.ndim != 3 or bv.ndim != 1:
        raise ValueError("conv1d expects x (n,m), w (win,m,f), b (f,)")
    n, m = xv.shape
    win, wm, f = wv.shape
    if wm != m or bv.shape[0] != f:
        raise ValueError(
            f"conv1d: shape mismatch x={xv.shape} w={wv.shape} b={bv.shape}"
        )
    if n < 1:
        raise ValueError("conv1d: empty sequence")
    left = win // 2
    padded = np.zeros((n + win - 1, m))
    padded[left : left + n] = xv
    ov = np.tile(bv, (n, 1))
    for d in range(win):
        ov += padded[d : d + n] @ wv[d]
    out = Tensor(ov, tape)

    def backward(g):
        gx_padded = np.zeros_like(padded)
        gw = np.empty_like(wv)
        for d in range(win):
            gw[d] = padded[d : d + n].T @ g
            gx_padded[d : d + n] += g @ wv[d].T
        _accumulate(x, gx_padded[left : left + n])
        _accumulate(w, gw)
        _accumulate(b, g.sum(axis=0))

    tape._record(out, backward)
    return out


def embedding_lookup(tape: Tape, table: Operand, ids: Sequence[int]) -> Tensor:
    """Gather rows of an embedding table; backward scatter-adds."""
    tv = _value(table)
    if tv.ndim != 2:
        raise ValueError("embedding_lookup expects a (V,m) table")
    rows = list(ids)
    for i in rows:
        if not 0 <= i < tv.shape[0]:
            raise IndexError(f"embedding id {i} out of range for table {tv.shape}")
    idx = np.asarray(rows, dtype=np.intp)
    out = Tensor(tv[idx], tape)

    def backward(g):
        if isinstance(table, Parameter):
            np.add.at(table.grad, idx, g)
        elif table.tape is not None:
            z = np.zeros_like(tv)
            np.add.at(z, idx, g)
            _accumulate(table, z)

    tape._record(out, backward)
    return out


def cross_entropy(probs: Operand, gold: int) -> Tensor:
    """Negative log-probability of the gold class, clamped at 1e-12."""
    tape = _tape_of(probs)
    pv = _value(probs)
    if pv.ndim != 1:
        raise ValueError("cross_entropy expects a probability vector")
    if not 0 <= gold < pv.shape[0]:
        raise IndexError(f"gold class {gold} out of range for {pv.shape[0]} classes")
    p = float(pv[gold])
    clamped = max(p, 1e-12)
    out = Tensor(-np.log(clamped), tape)

    def backward(g):
        z = np.zeros_like(pv)
        if p >= 1e-12:
            z[gold] = -float(g) / p
        _accumulate(probs, z)

    tape._record(out, backward)
    return out


def gradient_check(
    f: Callable[[Tape], Tensor], params: Sequence[Parameter], eps: float = 1e-5
) -> float:
    """Compare tape gradients of a scalar function against central differences.

    Returns the max over all parameter coordinates of
    |analytic - numeric| / max(1e-8, |analytic| + |numeric|).
    `f` must be deterministic and must not mutate the parameters.
    """
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
    with open(path, "w", encoding="utf-8") as fh:
        for p in params:
            shape = " ".join(str(d) for d in p.data.shape)
            fh.write(f"{p.name}\t{shape}\n")
            fh.write(" ".join(format(v, ".17g") for v in p.data.reshape(-1)))
            fh.write("\n")


def load_checkpoint(path) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
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
