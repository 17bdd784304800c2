"""Context encoders: each maps a batch of embedded term sequences to
fixed vectors s, and attentive kinds also expose per-term weights.

Samples are compiled once into integer arrays (`compile_sequences`); the
embedder turns a Batch of B of them into x (B, n, row_width), zero past
each context's real terms, in one `embedding_lookup` op, and every
encoder runs the whole batch as one short chain of tape ops: cnn and
pcnn a convolution and a max pool, the LSTM kinds one `lstm_sequence`
per `Lstm`, att-cnn pcnn's chain plus one `feature_attention` op.

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

FEATURE_MODES = ("att-ends", "att-ef")
WORD_DIM = 50  # the default width m of a word-table row

_TOKEN_KIND_SYMBOL = {tz.PUNCTUATION: PUNCT, tz.NUMBER: NUM, tz.URL: URL_TOKEN}


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


class Batch:
    """B contexts compiled to integer arrays, right-padded to n terms.

    word_ids, polarity_ids  (B, n)  table rows of each term, 0 on padding
    lengths                 (B,)    real terms per context
    mask                    (B, n)  True on real terms
    subj_pos, obj_pos       (B,)    participant positions
    features                (B, k)  feature positions: subject, object,
                                    then (att-ef) frames in order
    feature_lengths         (B,)    real feature positions per context
    feature_mask            (B, k)  True on real feature positions
    """

    __slots__ = ("word_ids", "polarity_ids", "lengths", "subj_pos", "obj_pos",
                 "features", "feature_lengths", "mask", "feature_mask")

    def __init__(self, word_ids, polarity_ids, lengths, subj_pos, obj_pos,
                 features, feature_lengths):
        self.word_ids = word_ids
        self.polarity_ids = polarity_ids
        self.lengths = lengths
        self.subj_pos = subj_pos
        self.obj_pos = obj_pos
        self.features = features
        self.feature_lengths = feature_lengths
        self.mask = np.arange(word_ids.shape[1]) < lengths[:, None]
        self.feature_mask = np.arange(features.shape[1]) < feature_lengths[:, None]

    def __len__(self):
        return len(self.lengths)

    def take(self, index):
        """The contexts at an index array or slice, as a Batch whose masks
        are rows of this one's."""
        batch = Batch.__new__(Batch)
        for name in Batch.__slots__:
            setattr(batch, name, getattr(self, name)[index])
        return batch


def compile_sequences(seqs, vocab, n, k=2, feature_mode="att-ends"):
    """TermSequences -> Batch; att-ef adds up to k-2 frame positions.

    Each distinct term is mapped to its word and polarity ids once.
    """
    if feature_mode not in FEATURE_MODES:
        raise ValueError("unknown feature mode: %r" % (feature_mode,))
    count = len(seqs)
    word_ids = np.zeros((count, n), dtype=np.intp)
    polarity_ids = np.zeros((count, n), dtype=np.intp)
    lengths = np.empty(count, dtype=np.intp)
    features = np.zeros((count, k), dtype=np.intp)
    feature_lengths = np.empty(count, dtype=np.intp)
    for i, seq in enumerate(seqs):
        terms = seq.terms
        if len(terms) > n:
            raise ValueError("sequence length %d exceeds n=%d" % (len(terms), n))
        lengths[i] = len(terms)
        feats = [seq.subj_pos, seq.obj_pos]
        if feature_mode == "att-ef":
            feats += [j for j, t in enumerate(terms) if t.kind == tz.FRAME]
        feats = feats[:k]
        features[i, :len(feats)] = feats
        feature_lengths[i] = len(feats)
    terms = [t for seq in seqs for t in seq.terms]
    row_of = {t: row for row, t in enumerate(dict.fromkeys(terms))}
    neutral = lx.POLARITY_INDEX[lx.NEUTRAL]
    table = np.array([(vocab.id_of_term(t), lx.POLARITY_INDEX[t.polarity]
                       if t.kind == tz.FRAME else neutral)
                      for t in row_of], dtype=np.intp).reshape(-1, 2)
    real = np.arange(n) < lengths[:, None]
    word_ids[real], polarity_ids[real] = table[[row_of[t] for t in terms]].T
    subj_pos = np.array([seq.subj_pos for seq in seqs], dtype=np.intp)
    obj_pos = np.array([seq.obj_pos for seq in seqs], dtype=np.intp)
    return Batch(word_ids, polarity_ids, lengths, subj_pos, obj_pos, features,
                 feature_lengths)


class Module:
    """A model part. Its parameters are its tg.Parameter attributes and
    those of its Module attributes, depth first, in assignment order;
    that order is the checkpoint's."""

    def parameters(self):
        params = []
        for value in vars(self).values():
            if isinstance(value, tg.Parameter):
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
        return params


class Embedder(Module):
    """Trainable word/polarity/position tables; rows are concatenated
    per term and the sequence is right-padded with zero rows."""

    def __init__(self, vocab, n, m=WORD_DIM, polarity_dim=5, use_position=False,
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
        self.row_width = m + polarity_dim + (2 * position_dim if use_position
                                             else 0)

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

    def embed(self, tape, batch):
        """Batch -> x (B, n, row_width), zero on padding, as one op."""
        tables = [self.word_table, self.polarity_table]
        ids = [batch.word_ids, batch.polarity_ids]
        if self.use_position:
            steps = np.arange(batch.word_ids.shape[1])
            for anchor in (batch.subj_pos, batch.obj_pos):
                distance = np.clip(steps - anchor[:, None], -self.max_distance,
                                   self.max_distance)
                tables.append(self.position_table)
                ids.append(distance + self.max_distance)
        return tg.embedding_lookup(tape, tables, ids, batch.mask)


class EncoderOutput:
    """s (B, z); alpha (B, n) attention weights, exactly 0 on padding, or None."""

    __slots__ = ("s", "alpha")

    def __init__(self, s, alpha=None):
        self.s = s
        self.alpha = alpha


def _glorot(rng, shape, name):
    """Uniform Glorot init; fan_in is the product of all but the last
    extent (1 for a vector), fan_out the last extent."""
    limit = math.sqrt(6.0 / (math.prod(shape[:-1]) + shape[-1]))
    return tg.Parameter(rng.uniform(-limit, limit, shape), name)


class Lstm(Module):
    """`directions` LSTMs over one input (2 for a BiLSTM), their w, u and
    b stored in the layout `tg.lstm_sequence` reads; forget bias 1."""

    def __init__(self, input_dim, h, directions, rng, name):
        # Direction by direction, w then u: the draw order the pinned
        # initial values (tests/test_lstm_sequence.py) were made with.
        ws, us = zip(*[(_glorot(rng, (input_dim, 4 * h), name + ".w").data,
                        _glorot(rng, (h, 4 * h), name + ".u").data)
                       for _ in range(directions)])
        self.w = tg.Parameter(
            np.stack([w.reshape(input_dim, 4, h) for w in ws], axis=2)
            .reshape(input_dim, -1), name + ".w")
        self.u = tg.Parameter(np.stack(us), name + ".u")
        bias = np.zeros((4, directions, h))
        bias[1] = 1.0
        self.b = tg.Parameter(bias.reshape(-1), name + ".b")

    def states(self, x, lengths):
        """(B, T, D*h) of x (B, T, m): step t joins every direction's state
        at step t, 0 past each row's length."""
        return tg.lstm_sequence(x, self.w, self.u, self.b, lengths)


def _mean_weights(mask):
    """Constant weights 1/count on each row's True entries, 0 elsewhere."""
    return mask / mask.sum(axis=1, keepdims=True)


def _pcnn_segments(batch):
    """(starts, ends), each (B, 3): up to the first participant, up to the
    second, and the rest of the real terms."""
    p1 = np.minimum(batch.subj_pos, batch.obj_pos) + 1
    p2 = np.maximum(batch.subj_pos, batch.obj_pos) + 1
    return np.array((0 * p1, p1, p2)).T, np.array((p1, p2, batch.lengths)).T


class CnnEncoder(Module):
    kind = "cnn"
    attentive = False

    def __init__(self, cfg, row_width, rng):
        self.cfg = cfg
        self.z = cfg.filters
        self.w = _glorot(rng, (cfg.window, row_width, cfg.filters), "cnn.w")
        self.b = tg.Parameter(np.zeros(cfg.filters), "cnn.b")

    def encode(self, tape, x, batch):
        conv = tg.tanh(tg.conv1d(x, self.w, self.b))
        whole = np.zeros((len(batch), 1), dtype=np.intp)
        return EncoderOutput(tg.max_pool_over_time(conv, whole,
                                                   batch.lengths[:, None]))


class PcnnEncoder(Module):
    kind = "pcnn"
    attentive = False

    def __init__(self, cfg, row_width, rng, name="pcnn"):
        self.cfg = cfg
        self.z = 3 * cfg.filters
        self.w = _glorot(rng, (cfg.window, row_width, cfg.filters), name + ".w")
        self.b = tg.Parameter(np.zeros(cfg.filters), name + ".b")

    def encode(self, tape, x, batch):
        conv = tg.conv1d(x, self.w, self.b)
        return EncoderOutput(tg.max_pool_over_time(conv, *_pcnn_segments(batch)))


class LstmEncoder(Module):
    kind = "lstm"
    attentive = False
    directions = 1

    def __init__(self, cfg, row_width, rng):
        self.cfg = cfg
        self.z = self.directions * cfg.h
        self.lstm = Lstm(row_width, cfg.h, self.directions, rng, self.kind)

    def encode(self, tape, x, batch):
        states = self.lstm.states(x, batch.lengths)
        return EncoderOutput(tg.gather(states, batch.lengths - 1))


class BiLstmEncoder(LstmEncoder):
    kind = "bilstm"
    directions = 2


class AttBLstmEncoder(Module):
    kind = "att-blstm"
    attentive = True

    def __init__(self, cfg, row_width, rng):
        self.cfg = cfg
        self.z = 2 * cfg.h
        self.bilstm = Lstm(row_width, cfg.h, 2, rng, "attblstm")
        self.w = _glorot(rng, (2 * cfg.h,), "attblstm.att.w")

    def encode(self, tape, x, batch):
        h_mat = self.bilstm.states(x, batch.lengths)
        scores = tg.matmul(tg.tanh(h_mat), self.w)
        alpha = tg.softmax(scores, batch.mask)
        s = tg.tanh(tg.einsum("bt,btd->bd", alpha, h_mat))
        return EncoderOutput(s, alpha=alpha.data)


class AttBLstmZYangEncoder(Module):
    kind = "att-blstm-zyang"
    attentive = True

    def __init__(self, cfg, row_width, rng):
        self.cfg = cfg
        h2 = 2 * cfg.h
        self.z = h2
        self.bilstm = Lstm(row_width, cfg.h, 2, rng, "zyang")
        self.w_a = _glorot(rng, (h2, h2), "zyang.att.w_a")
        self.b_a = tg.Parameter(np.zeros(h2), "zyang.att.b_a")
        self.u_w = _glorot(rng, (h2,), "zyang.att.u_w")

    def encode(self, tape, x, batch):
        h_mat = self.bilstm.states(x, batch.lengths)
        projected = tg.tanh(tg.add(tg.matmul(h_mat, self.w_a), self.b_a))
        alpha = tg.softmax(tg.matmul(projected, self.u_w), batch.mask)
        s = tg.einsum("bt,btd->bd", alpha, h_mat)
        return EncoderOutput(s, alpha=alpha.data)


class AttCnnEncoder(Module):
    kind = "att-cnn"
    attentive = True

    def __init__(self, cfg, row_width, rng):
        self.cfg = cfg
        self.z = 3 * cfg.filters + row_width
        self.pcnn = PcnnEncoder(cfg, row_width, rng, name="attcnn.pcnn")
        self.w1 = _glorot(rng, (2 * row_width, cfg.h), "attcnn.att.w1")
        self.b1 = tg.Parameter(np.zeros(cfg.h), "attcnn.att.b1")
        self.w2 = _glorot(rng, (cfg.h,), "attcnn.att.w2")

    def encode(self, tape, x, batch):
        pooled = self.pcnn.encode(tape, x, batch)
        attended, alpha = tg.feature_attention(
            x, batch.features, batch.feature_mask, batch.mask, self.w1,
            self.b1, self.w2)
        return EncoderOutput(tg.concat([pooled.s, attended], axis=1),
                             alpha=alpha)


class IanEncoder(Module):
    kind = "ian"
    attentive = True

    def __init__(self, cfg, row_width, rng):
        self.cfg = cfg
        self.z = 4 * cfg.h
        h2 = 2 * cfg.h
        self.context_lstm = Lstm(row_width, cfg.h, 2, rng, "ian.ctx")
        self.feature_lstm = Lstm(row_width, cfg.h, 2, rng, "ian.feat")
        self.w_c = _glorot(rng, (h2, h2), "ian.att.w_c")
        self.b_c = tg.Parameter(np.zeros(1), "ian.att.b_c")
        self.w_t = _glorot(rng, (h2, h2), "ian.att.w_t")
        self.b_t = tg.Parameter(np.zeros(1), "ian.att.b_t")

    def _attend(self, states, mask, pooled, w, b):
        scores = tg.einsum("btd,bd->bt", tg.matmul(states, w), pooled)
        weights = tg.softmax(tg.tanh(tg.add(scores, b)), mask)
        return tg.einsum("bt,btd->bd", weights, states), weights

    def encode(self, tape, x, batch):
        feature_mask = batch.feature_mask
        context_states = self.context_lstm.states(x, batch.lengths)
        feature_states = self.feature_lstm.states(
            tg.gather(x, batch.features), batch.feature_lengths)
        c_mean = tg.einsum("bt,btd->bd", tape.constant(_mean_weights(batch.mask)),
                           context_states)
        t_mean = tg.einsum("bk,bkd->bd", tape.constant(_mean_weights(feature_mask)),
                           feature_states)
        attended_c, gamma = self._attend(context_states, batch.mask, t_mean,
                                         self.w_c, self.b_c)
        attended_t, _ = self._attend(feature_states, feature_mask, c_mean,
                                     self.w_t, self.b_t)
        s = tg.concat([attended_c, attended_t], axis=1)
        return EncoderOutput(s, alpha=gamma.data)


# gradient_suite seeds each kind by its index, so this order is pinned.
_ENCODER_CLASSES = {cls.kind: cls for cls in (
    CnnEncoder, PcnnEncoder, LstmEncoder, BiLstmEncoder, AttBLstmEncoder,
    AttBLstmZYangEncoder, AttCnnEncoder, IanEncoder)}
ENCODER_KINDS = tuple(_ENCODER_CLASSES)


def build_encoder(cfg, row_width, rng):
    return _ENCODER_CLASSES[cfg.kind](cfg, row_width, rng)
