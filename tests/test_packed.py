"""The packed parameter buffer: every model parameter is a view into one
flat data array and one flat grad array, which the optimizer, the
numeric guard and the gradient reset of `md.train` use as one."""

import pickle

import numpy as np
import pytest

import per_context as pc
from attex import corpus as cp
from attex import encoders as enc
from attex import lexicons as lx
from attex import model as md
from attex import tensorgrad as tg
from attex.errors import NumericError


def kind_model(kind, seed=0, feature_mode="att-ends"):
    rng = np.random.default_rng(seed)
    seqs = pc.random_contexts(rng, 6, 4)
    cfg = enc.EncoderConfig(kind, n=6, h=3, filters=2, window=2, k=3,
                            feature_mode=feature_mode)
    options = {"m": 3, "polarity_dim": 2, "position_dim": 2,
               "use_position": enc.default_use_position(kind)}
    return md.build_model(pc.vocab_for(seqs), cfg, options, rng=rng), seqs


def assert_packed(model):
    params = model.parameters()
    assert sum(p.data.size for p in params) == model.flat.data.size
    for p in params:
        assert np.shares_memory(p.data, model.flat.data), p.name
        assert np.shares_memory(p.grad, model.flat.grad), p.name


@pytest.mark.parametrize("kind", enc.ENCODER_KINDS)
def test_every_parameter_is_a_view_of_the_buffer(kind, tmp_path):
    model, _ = kind_model(kind)
    assert_packed(model)
    # Names, shapes and values stay as they were built; order is the
    # buffer's order.
    offset = 0
    for p in model.parameters():
        size = p.data.size
        assert np.array_equal(model.flat.data[offset:offset + size],
                              p.data.reshape(-1))
        offset += size

    path = tmp_path / "model.ckpt"
    tg.save_checkpoint(path, model.parameters())
    fresh, _ = kind_model(kind, seed=1)
    tg.restore_parameters(fresh.parameters(), tg.load_checkpoint(path))
    assert_packed(fresh)
    assert np.array_equal(fresh.flat.data, model.flat.data)


@pytest.mark.parametrize("feature_mode", enc.FEATURE_MODES)
@pytest.mark.parametrize("kind", enc.ENCODER_KINDS)
def test_a_pickled_model_packs_its_own_buffer(kind, feature_mode):
    # A forked CV split sends its trained model back this way.
    model, seqs = kind_model(kind, feature_mode=feature_mode)
    samples = [cp.ContextSample("d%d" % i, 0, s, lx.POLARITIES[i % 3], "a",
                                "b") for i, s in enumerate(seqs)]
    md.train(model, samples, md.TrainConfig(max_epochs=2, eval_period=2,
                                            batch_size=2),
             np.random.default_rng(0))
    # A pending gradient, which the copy must not carry.
    tape = tg.Tape()
    logits, _ = model.forward(tape, model.compile(samples))
    tape.backward(tg.softmax_cross_entropy(logits, np.zeros(len(seqs), int)))
    assert model.flat.grad.any()

    copy = pickle.loads(pickle.dumps(model))
    assert copy.flat.data.tobytes() == model.flat.data.tobytes()
    assert_packed(copy)
    assert not copy.flat.grad.any()
    for p in copy.parameters():
        for a in (p.data, p.grad):
            assert not np.shares_memory(a, model.flat.data), p.name
            assert not np.shares_memory(a, model.flat.grad), p.name
    (probs, alpha), (copy_probs, copy_alpha) = (
        md.infer(m, samples) for m in (model, copy))
    assert copy_probs.tobytes() == probs.tobytes()
    if model.encoder.attentive:
        assert copy_alpha.tobytes() == alpha.tobytes()
    else:
        assert alpha is copy_alpha is None


def test_zeroing_the_buffer_zeroes_every_grad():
    model, seqs = kind_model("att-blstm")
    batch = model.compile([cp.ContextSample("d", 0, s, "neutral", "a", "b")
                           for s in seqs])
    tape = tg.Tape()
    logits, _ = model.forward(tape, batch)
    tape.backward(tg.softmax_cross_entropy(logits, np.zeros(len(seqs), int)))
    assert any(p.grad.any() for p in model.parameters())
    model.flat.zero_grad()
    assert not any(p.grad.any() for p in model.parameters())


@pytest.mark.parametrize("optimizer", [md.Sgd, md.Adam])
def test_one_step_over_the_buffer_equals_per_parameter_steps(optimizer):
    rng = np.random.default_rng(3)
    shapes = [(4, 3), (3,), (2, 5, 2), (1,)]
    values = [rng.normal(size=shape) for shape in shapes]
    apart = [tg.Parameter(v, "p%d" % i) for i, v in enumerate(values)]
    together = [tg.Parameter(v, "p%d" % i) for i, v in enumerate(values)]
    flat = tg.Parameter.packed(together)
    per_param = [optimizer(a, 0.05) for a in apart]
    packed = optimizer(flat, 0.05)
    for _ in range(20):
        for a, b in zip(apart, together):
            g = rng.normal(size=a.shape) * rng.choice([1e-6, 1.0, 1e3])
            a.grad[...] = g
            b.grad[...] = g
        for opt in per_param:
            opt.step()
        packed.step()
        for a in apart:
            a.zero_grad()
        flat.zero_grad()
        for a, b in zip(apart, together):
            assert np.array_equal(a.data, b.data), a.name


def test_guard_names_a_later_parameter(monkeypatch):
    # Only head.w_r, the second to last parameter, goes non-finite; the
    # guard sees it through the buffer and names it.
    model, seqs = kind_model("att-blstm")
    samples = [cp.ContextSample("d%d" % i, 0, s, "neutral", "a", "b")
               for i, s in enumerate(seqs)]
    step = md.Adam.step

    def poisoned(self):
        step(self)
        model.head.w_r.data[0, 0] = np.inf

    monkeypatch.setattr(md.Adam, "step", poisoned)
    with pytest.raises(NumericError,
                       match="parameter 'head.w_r' .*epoch 1$"):
        md.train(model, samples, md.TrainConfig(max_epochs=10),
                 np.random.default_rng(0))


def test_packing_again_is_rejected():
    model, _ = kind_model("bilstm")
    with pytest.raises(ValueError, match="already packed"):
        tg.Parameter.packed(model.parameters())
    with pytest.raises(ValueError, match="already packed"):
        md.AttitudeModel(model.embedder, model.encoder, model.head)
    # The failed attempts left the model's views in place.
    assert_packed(model)


def test_listing_a_parameter_twice_is_rejected():
    p = tg.Parameter(np.ones(3), "p")
    with pytest.raises(ValueError, match="twice"):
        tg.Parameter.packed([p, p])
    assert p.data.base is None


def test_packing_keeps_values_and_pending_gradients():
    a = tg.Parameter(np.arange(6.0).reshape(2, 3), "a")
    b = tg.Parameter(np.zeros((3, 0)), "b")
    c = tg.Parameter([7.0], "c")
    a.grad[...] = 1.5
    flat = tg.Parameter.packed([a, b, c])
    assert np.array_equal(flat.data, [0, 1, 2, 3, 4, 5, 7])
    assert np.array_equal(flat.grad, [1.5] * 6 + [0.0])
    assert (a.shape, b.shape, c.shape) == ((2, 3), (3, 0), (1,))
    flat.data[-1] = 8.0
    assert c.data[0] == 8.0


def reachable_parameters(root):
    """Every tg.Parameter reachable from root through the attributes of
    attex objects and the items of lists, tuples and dicts, at any depth."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, tg.Parameter):
            found.append(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif type(obj).__module__.startswith("attex."):
            slots = getattr(type(obj), "__slots__", ())
            stack.extend(getattr(obj, name) for name in slots
                         if hasattr(obj, name))
            stack.extend(getattr(obj, "__dict__", {}).values())
    return found


@pytest.mark.parametrize("use_position", [False, True])
@pytest.mark.parametrize("kind", enc.ENCODER_KINDS)
def test_no_parameter_left_out(kind, use_position, tmp_path):
    # A parameter missing from parameters() would be neither trained,
    # zeroed nor saved.
    rng = np.random.default_rng(7)
    seqs = pc.random_contexts(rng, 6, 4)
    cfg = enc.EncoderConfig(kind, n=6, h=3, filters=2, window=2, k=3)
    options = {"m": 3, "polarity_dim": 2, "position_dim": 2,
               "use_position": use_position}
    model = md.build_model(pc.vocab_for(seqs), cfg, options, rng=rng)
    listed = model.parameters()
    found = [p for p in reachable_parameters(model) if p is not model.flat]
    assert len(found) == len(listed)
    for p in found:
        assert sum(q is p for q in listed) == 1, p.name
        assert p.data.base is model.flat.data, p.name
    path = tmp_path / "model.ckpt"
    tg.save_checkpoint(str(path), listed)
    assert sorted(tg.load_checkpoint(str(path))) == sorted(
        p.name for p in found)


def test_module_parameters_follow_attribute_order():
    class Inner(enc.Module):
        def __init__(self):
            self.x = tg.Parameter(np.zeros(1), "x")
            self.size = 2
            self.y = tg.Parameter(np.zeros(2), "y")

    class Toy(enc.Module):
        def __init__(self):
            self.a = tg.Parameter(np.zeros(1), "a")
            self.absent = None
            self.inner = Inner()
            self.b = tg.Parameter(np.zeros(1), "b")

    assert [p.name for p in Toy().parameters()] == ["a", "x", "y", "b"]
