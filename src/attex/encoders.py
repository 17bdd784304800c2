"""Context encoders: each maps an embedded term sequence to a fixed
vector s, and attentive kinds also expose per-term weights.

Kinds and output sizes:
    cnn             conv -> tanh -> max pool            z = filters
    pcnn            conv -> piecewise max pool          z = 3*filters
    lstm            last hidden state                   z = h
    bilstm          both directions, last real state    z = 2h
    att-blstm       self-attention over BiLSTM states   z = 2h
    att-blstm-zyang projected self-attention            z = 2h
    att-cnn         pcnn + feature-scored attention     z = 3*filters + row width
    ian             interactive context/feature pools   z = 4h
"""

import math

import numpy as np

from . import lexicons as lx
from . import tensorgrad as tg
from . import termizer as tz
from .errors import DataError, read_lines

PAD = "<pad>"
UNK = "<unk>"
SUBJ = "<subj>"
OBJ = "<obj>"
OTHER = "<other>"
PUNCT = "<punct>"
NUM = "<num>"
URL_TOKEN = "<url>"
SPECIALS = (PAD, UNK, SUBJ, OBJ, OTHER, PUNCT, NUM, URL_TOKEN)

ENCODER_KINDS = ("cnn", "pcnn", "lstm", "bilstm", "att-blstm",
                 "att-blstm-zyang", "att-cnn", "ian")
FEATURE_MODES = ("att-ends", "att-ef")

_TOKEN_KIND_SYMBOL = {tz.PUNCTUATION: PUNCT, tz.NUMBER: NUM, tz.URL: URL_TOKEN}
_POLARITY_INDEX = {p: i for i, p in enumerate(lx.POLARITIES)}


class EncoderConfig:
    __slots__ = ("kind", "n", "h", "filters", "window", "k", "feature_mode")

    def __init__(self, kind, n=50, h=32, filters=32, window=3, k=5,
                 feature_mode="att-ends"):
        if kind not in ENCODER_KINDS:
            raise ValueError("unknown encoder kind: %r" % (kind,))
        if feature_mode not in FEATURE_MODES:
            raise ValueError("unknown feature mode: %r" % (feature_mode,))
        if n < 2:
            raise ValueError("n must be at least 2")
        if h < 1 or filters < 1 or window < 1:
            raise ValueError("h, filters, window must be positive")
        if k < 2:
            raise ValueError("k must be at least 2")
        self.kind = kind
        self.n = n
        self.h = h
        self.filters = filters
        self.window = window
        self.k = k
        self.feature_mode = feature_mode


def default_use_position(kind):
    """Position (distance) features default on for the CNN lineage."""
    return kind in ("cnn", "pcnn")


class Vocab:
    """Token-to-id map: special rows first, then sorted lemmas."""

    def __init__(self, lemmas=()):
        self._id = {}
        for token in SPECIALS:
            self._id[token] = len(self._id)
        for lemma in sorted(set(lemmas)):
            if lemma in self._id:
                continue
            self._id[lemma] = len(self._id)

    def __len__(self):
        return len(self._id)

    def __contains__(self, token):
        return token in self._id

    def id_of(self, token):
        return self._id.get(token, self._id[UNK])

    def id_of_term(self, term):
        if term.kind == tz.ENTITY_SUBJ:
            return self._id[SUBJ]
        if term.kind == tz.ENTITY_OBJ:
            return self._id[OBJ]
        if term.kind == tz.ENTITY_OTHER:
            return self._id[OTHER]
        if term.kind == tz.TOKEN:
            return self._id[_TOKEN_KIND_SYMBOL[term.token_kind]]
        return self.id_of(term.lemma)

    def tokens(self):
        return list(self._id)


def build_vocab(samples):
    """Vocabulary over word and frame lemmas of the given samples."""
    lemmas = []
    for sample in samples:
        for term in sample.terms.terms:
            if term.kind in (tz.WORD, tz.FRAME):
                lemmas.append(term.lemma)
    return Vocab(lemmas)


def load_word_vectors(path, m):
    """Read `token v1 .. vm` lines into a dict of numpy rows."""
    vectors = {}
    for lineno, line in read_lines(path):
        parts = line.split()
        if len(parts) != m + 1:
            raise DataError("expected %d values, got %d" % (m, len(parts) - 1),
                            path=path, line=lineno)
        try:
            vectors[parts[0]] = np.array([float(v) for v in parts[1:]])
        except ValueError:
            raise DataError("non-numeric embedding value", path=path, line=lineno)
    return vectors


class EmbeddedContext:
    """Embedded rows of one context plus everything encoders consult."""

    __slots__ = ("x", "n_real", "subj_pos", "obj_pos", "frame_positions")

    def __init__(self, x, n_real, subj_pos, obj_pos, frame_positions=()):
        self.x = x
        self.n_real = n_real
        self.subj_pos = subj_pos
        self.obj_pos = obj_pos
        self.frame_positions = tuple(frame_positions)


class Embedder:
    """Trainable word/polarity/position tables; rows are concatenated
    per term and the sequence is right-padded with zero rows."""

    def __init__(self, vocab, n, m=50, polarity_dim=5, use_position=False,
                 position_dim=5, max_distance=None, rng=None, pretrained=None):
        if rng is None:
            rng = np.random.default_rng(0)
        self.vocab = vocab
        self.n = n
        self.m = m
        self.polarity_dim = polarity_dim
        self.use_position = use_position
        self.position_dim = position_dim
        self.max_distance = (n - 1) if max_distance is None else max_distance

        word = rng.uniform(-0.1, 0.1, (len(vocab), m))
        if pretrained:
            for token, row in pretrained.items():
                if token in vocab:
                    if row.shape != (m,):
                        raise ValueError("pretrained row width %d, expected %d"
                                         % (row.shape[0], m))
                    word[vocab.id_of(token)] = row
        self.word_table = tg.Parameter(word, "emb.word")
        self.polarity_table = tg.Parameter(
            rng.uniform(-0.1, 0.1, (len(lx.POLARITIES), polarity_dim)),
            "emb.polarity")
        if use_position:
            rows = 2 * self.max_distance + 1
            self.position_table = tg.Parameter(
                rng.uniform(-0.1, 0.1, (rows, position_dim)), "emb.position")
        else:
            self.position_table = None

    @property
    def row_width(self):
        width = self.m + self.polarity_dim
        if self.use_position:
            width += 2 * self.position_dim
        return width

    def parameters(self):
        params = [self.word_table, self.polarity_table]
        if self.position_table is not None:
            params.append(self.position_table)
        return params

    def _position_id(self, i, anchor):
        d = max(-self.max_distance, min(self.max_distance, i - anchor))
        return d + self.max_distance

    def embed(self, tape, seq):
        """TermSequence -> EmbeddedContext with an n x row_width tensor."""
        n_real = len(seq.terms)
        if n_real > self.n:
            raise ValueError("sequence length %d exceeds n=%d" % (n_real, self.n))
        word_ids = [self.vocab.id_of_term(t) for t in seq.terms]
        polarity_ids = [_POLARITY_INDEX[t.polarity] if t.kind == tz.FRAME
                        else _POLARITY_INDEX[lx.NEUTRAL] for t in seq.terms]
        parts = [tg.embedding_lookup(tape, self.word_table, word_ids),
                 tg.embedding_lookup(tape, self.polarity_table, polarity_ids)]
        if self.use_position:
            subj_ids = [self._position_id(i, seq.subj_pos) for i in range(n_real)]
            obj_ids = [self._position_id(i, seq.obj_pos) for i in range(n_real)]
            parts.append(tg.embedding_lookup(tape, self.position_table, subj_ids))
            parts.append(tg.embedding_lookup(tape, self.position_table, obj_ids))
        x = tg.concat(parts, axis=1)
        if n_real < self.n:
            pad = tape.zeros(self.n - n_real, self.row_width)
            x = tg.concat([x, pad], axis=0)
        frames = [i for i, t in enumerate(seq.terms) if t.kind == tz.FRAME]
        return EmbeddedContext(x, n_real, seq.subj_pos, seq.obj_pos, frames)


class EncoderOutput:
    __slots__ = ("s", "alpha")

    def __init__(self, s, alpha=None):
        self.s = s
        self.alpha = alpha


def select_features(ctx, mode, k):
    """Participant rows, plus frame rows in order for att-ef, <= k total."""
    if mode not in FEATURE_MODES:
        raise ValueError("unknown feature mode: %r" % (mode,))
    rows = [tg.take_row(ctx.x, ctx.subj_pos), tg.take_row(ctx.x, ctx.obj_pos)]
    if mode == "att-ef":
        for pos in ctx.frame_positions:
            if len(rows) >= k:
                break
            rows.append(tg.take_row(ctx.x, pos))
    return rows


def _glorot(rng, fan_in, fan_out, shape, name):
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return tg.Parameter(rng.uniform(-limit, limit, shape), name)


class LstmCell:
    """Gates packed [input, forget, output, candidate]; forget bias 1."""

    def __init__(self, input_dim, h, rng, name):
        self.h = h
        self.w = _glorot(rng, input_dim, 4 * h, (input_dim, 4 * h), name + ".w")
        self.u = _glorot(rng, h, 4 * h, (h, 4 * h), name + ".u")
        bias = np.zeros(4 * h)
        bias[h:2 * h] = 1.0
        self.b = tg.Parameter(bias, name + ".b")

    def parameters(self):
        return [self.w, self.u, self.b]

    def run(self, x, reverse=False):
        """Hidden states (T, h) for the real rows x (T, m)."""
        return tg.lstm_sequence(x, self.w, self.u, self.b, reverse=reverse)


class BiLstm:
    def __init__(self, input_dim, h, rng, name):
        self.fwd = LstmCell(input_dim, h, rng, name + ".fwd")
        self.bwd = LstmCell(input_dim, h, rng, name + ".bwd")

    def parameters(self):
        return self.fwd.parameters() + self.bwd.parameters()

    def states(self, x):
        """(T, 2h): row t joins both directions' states at row t."""
        return tg.concat([self.fwd.run(x), self.bwd.run(x, reverse=True)],
                         axis=1)


def _expand_alpha(alpha_real, n):
    full = np.zeros(n)
    full[:len(alpha_real)] = alpha_real
    return full


def _mean_rows(tape, mat):
    count = mat.shape[0]
    weights = tape.constant(np.full(count, 1.0 / count))
    return tg.matmul(weights, mat)


class CnnEncoder:
    kind = "cnn"
    attentive = False

    def __init__(self, cfg, row_width, rng):
        self.cfg = cfg
        self.w = _glorot(rng, cfg.window * row_width, cfg.filters,
                         (cfg.window, row_width, cfg.filters), "cnn.w")
        self.b = tg.Parameter(np.zeros(cfg.filters), "cnn.b")

    @property
    def z(self):
        return self.cfg.filters

    def parameters(self):
        return [self.w, self.b]

    def encode(self, tape, ctx):
        conv = tg.tanh(tg.conv1d(ctx.x, self.w, self.b))
        real = tg.narrow(conv, 0, 0, ctx.n_real)
        return EncoderOutput(tg.max_pool_over_time(real))


class PcnnEncoder:
    kind = "pcnn"
    attentive = False

    def __init__(self, cfg, row_width, rng, name="pcnn"):
        self.cfg = cfg
        self.w = _glorot(rng, cfg.window * row_width, cfg.filters,
                         (cfg.window, row_width, cfg.filters), name + ".w")
        self.b = tg.Parameter(np.zeros(cfg.filters), name + ".b")

    @property
    def z(self):
        return 3 * self.cfg.filters

    def parameters(self):
        return [self.w, self.b]

    def encode(self, tape, ctx):
        conv = tg.conv1d(ctx.x, self.w, self.b)
        p1, p2 = sorted((ctx.subj_pos, ctx.obj_pos))
        bounds = ((0, p1 + 1), (p1 + 1, p2 + 1), (p2 + 1, ctx.n_real))
        blocks = []
        for start, end in bounds:
            if end > start:
                segment = tg.narrow(conv, 0, start, end - start)
                blocks.append(tg.max_pool_over_time(segment))
            else:
                blocks.append(tape.zeros(self.cfg.filters))
        return EncoderOutput(tg.concat(blocks, axis=0))


class LstmEncoder:
    kind = "lstm"
    attentive = False

    def __init__(self, cfg, row_width, rng):
        self.cfg = cfg
        self.cell = LstmCell(row_width, cfg.h, rng, "lstm")

    @property
    def z(self):
        return self.cfg.h

    def parameters(self):
        return self.cell.parameters()

    def encode(self, tape, ctx):
        states = self.cell.run(tg.narrow(ctx.x, 0, 0, ctx.n_real))
        return EncoderOutput(tg.take_row(states, ctx.n_real - 1))


class BiLstmEncoder:
    kind = "bilstm"
    attentive = False

    def __init__(self, cfg, row_width, rng):
        self.cfg = cfg
        self.bilstm = BiLstm(row_width, cfg.h, rng, "bilstm")

    @property
    def z(self):
        return 2 * self.cfg.h

    def parameters(self):
        return self.bilstm.parameters()

    def encode(self, tape, ctx):
        states = self.bilstm.states(tg.narrow(ctx.x, 0, 0, ctx.n_real))
        return EncoderOutput(tg.take_row(states, ctx.n_real - 1))


class AttBLstmEncoder:
    kind = "att-blstm"
    attentive = True

    def __init__(self, cfg, row_width, rng):
        self.cfg = cfg
        self.bilstm = BiLstm(row_width, cfg.h, rng, "attblstm")
        self.w = _glorot(rng, 2 * cfg.h, 1, (2 * cfg.h,), "attblstm.att.w")

    @property
    def z(self):
        return 2 * self.cfg.h

    def parameters(self):
        return self.bilstm.parameters() + [self.w]

    def encode(self, tape, ctx):
        h_mat = self.bilstm.states(tg.narrow(ctx.x, 0, 0, ctx.n_real))
        scores = tg.matmul(tg.tanh(h_mat), self.w)
        alpha = tg.softmax(scores)
        s = tg.tanh(tg.matmul(alpha, h_mat))
        return EncoderOutput(s, alpha=_expand_alpha(alpha.data, self.cfg.n))


class AttBLstmZYangEncoder:
    kind = "att-blstm-zyang"
    attentive = True

    def __init__(self, cfg, row_width, rng):
        self.cfg = cfg
        h2 = 2 * cfg.h
        self.bilstm = BiLstm(row_width, cfg.h, rng, "zyang")
        self.w_a = _glorot(rng, h2, h2, (h2, h2), "zyang.att.w_a")
        self.b_a = tg.Parameter(np.zeros(h2), "zyang.att.b_a")
        self.u_w = _glorot(rng, h2, 1, (h2,), "zyang.att.u_w")

    @property
    def z(self):
        return 2 * self.cfg.h

    def parameters(self):
        return self.bilstm.parameters() + [self.w_a, self.b_a, self.u_w]

    def encode(self, tape, ctx):
        h_mat = self.bilstm.states(tg.narrow(ctx.x, 0, 0, ctx.n_real))
        projected = tg.tanh(tg.add(tg.matmul(h_mat, self.w_a), self.b_a))
        alpha = tg.softmax(tg.matmul(projected, self.u_w))
        s = tg.matmul(alpha, h_mat)
        return EncoderOutput(s, alpha=_expand_alpha(alpha.data, self.cfg.n))


class AttCnnEncoder:
    kind = "att-cnn"
    attentive = True

    def __init__(self, cfg, row_width, rng):
        self.cfg = cfg
        self.row_width = row_width
        self.pcnn = PcnnEncoder(cfg, row_width, rng, name="attcnn.pcnn")
        self.w1 = _glorot(rng, 2 * row_width, cfg.h,
                          (2 * row_width, cfg.h), "attcnn.att.w1")
        self.b1 = tg.Parameter(np.zeros(cfg.h), "attcnn.att.b1")
        self.w2 = _glorot(rng, cfg.h, 1, (cfg.h,), "attcnn.att.w2")

    @property
    def z(self):
        return 3 * self.cfg.filters + self.row_width

    def parameters(self):
        return self.pcnn.parameters() + [self.w1, self.b1, self.w2]

    def encode(self, tape, ctx):
        pooled = self.pcnn.encode(tape, ctx)
        features = select_features(ctx, self.cfg.feature_mode, self.cfg.k)
        x_real = tg.narrow(ctx.x, 0, 0, ctx.n_real)
        summaries = []
        weights = []
        for feat in features:
            pairs = tg.concat([x_real, tg.stack([feat] * ctx.n_real)], axis=1)
            hidden = tg.tanh(tg.add(tg.matmul(pairs, self.w1), self.b1))
            alpha_j = tg.softmax(tg.matmul(hidden, self.w2))
            weights.append(alpha_j.data)
            summaries.append(tg.matmul(alpha_j, x_real))
        attended = summaries[0]
        for extra in summaries[1:]:
            attended = tg.add(attended, extra)
        attended = tg.scale(attended, 1.0 / len(summaries))
        s = tg.concat([pooled.s, attended], axis=0)
        mean_alpha = np.mean(weights, axis=0)
        mean_alpha = mean_alpha / mean_alpha.sum()
        return EncoderOutput(s, alpha=_expand_alpha(mean_alpha, self.cfg.n))


class IanEncoder:
    kind = "ian"
    attentive = True

    def __init__(self, cfg, row_width, rng):
        self.cfg = cfg
        h2 = 2 * cfg.h
        self.context_lstm = BiLstm(row_width, cfg.h, rng, "ian.ctx")
        self.feature_lstm = BiLstm(row_width, cfg.h, rng, "ian.feat")
        self.w_c = _glorot(rng, h2, h2, (h2, h2), "ian.att.w_c")
        self.b_c = tg.Parameter(np.zeros(1), "ian.att.b_c")
        self.w_t = _glorot(rng, h2, h2, (h2, h2), "ian.att.w_t")
        self.b_t = tg.Parameter(np.zeros(1), "ian.att.b_t")

    @property
    def z(self):
        return 4 * self.cfg.h

    def parameters(self):
        return (self.context_lstm.parameters() + self.feature_lstm.parameters()
                + [self.w_c, self.b_c, self.w_t, self.b_t])

    def _attend(self, states, pooled, w, b):
        scores = tg.matmul(tg.matmul(states, w), pooled)
        weights = tg.softmax(tg.tanh(tg.add(scores, b)))
        return tg.matmul(weights, states), weights

    def encode(self, tape, ctx, features=None):
        context_states = self.context_lstm.states(
            tg.narrow(ctx.x, 0, 0, ctx.n_real))
        if features is None:
            features = select_features(ctx, self.cfg.feature_mode, self.cfg.k)
        feature_states = self.feature_lstm.states(tg.stack(features))
        c_mean = _mean_rows(tape, context_states)
        t_mean = _mean_rows(tape, feature_states)
        attended_c, gamma = self._attend(context_states, t_mean,
                                         self.w_c, self.b_c)
        attended_t, _ = self._attend(feature_states, c_mean,
                                     self.w_t, self.b_t)
        s = tg.concat([attended_c, attended_t], axis=0)
        return EncoderOutput(s, alpha=_expand_alpha(gamma.data, self.cfg.n))


_ENCODER_CLASSES = {
    "cnn": CnnEncoder,
    "pcnn": PcnnEncoder,
    "lstm": LstmEncoder,
    "bilstm": BiLstmEncoder,
    "att-blstm": AttBLstmEncoder,
    "att-blstm-zyang": AttBLstmZYangEncoder,
    "att-cnn": AttCnnEncoder,
    "ian": IanEncoder,
}


def build_encoder(cfg, row_width, rng):
    return _ENCODER_CLASSES[cfg.kind](cfg, row_width, rng)
