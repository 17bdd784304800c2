"""Deterministic synthetic corpus with planted attitude signals.

Each document discusses four entities. An attitude between a pair is
expressed as a contiguous block "subject (не)? frame object"; the frame
polarity encodes the label and the particle "не" directly before the
frame inverts it. Every combined sentence carries two such blocks for
two disjoint pairs, so each context contains mask and frame traffic
beyond its own block. All other ordered co-occurring pairs are neutral:
the reversed pairs see the very same sentences with swapped masks, so
the pair direction, not the mere presence of a frame, separates
sentiment from neutral.
"""

import numpy as np

from attex import corpus as cp
from attex import encoders as en
from attex import lexicons as lx
from attex import model as md

N_DOCS = 60
POS_FRAMES = tuple("fpos%02d" % i for i in range(10))
NEG_FRAMES = tuple("fneg%02d" % i for i in range(10))
CONTEXT_FILLERS = tuple("w%03d" % i for i in range(8))
BACKGROUND_FILLERS = tuple("w%03d" % i for i in range(8, 178))
PREPOSITIONS = ("в", "на", "у")
SENTIMENT_WORDS = ("хорошо", "плохо")
NEGATION_RATE = 1.0 / 3.0

ENTITIES = ("A", "B", "C", "D")
SURFACE = {"A": "enta", "B": "entb", "C": "entc", "D": "entd"}


def frame_lexicon():
    entries = [lx.FrameEntry((f,), lx.POSITIVE) for f in POS_FRAMES]
    entries += [lx.FrameEntry((f,), lx.NEGATIVE) for f in NEG_FRAMES]
    return lx.FrameLexicon(entries)


def preposition_list():
    return lx.LemmaSet(PREPOSITIONS)


def sentiment_lexicon():
    return lx.LemmaSet(SENTIMENT_WORDS)


def _filler(rng):
    return CONTEXT_FILLERS[int(rng.integers(len(CONTEXT_FILLERS)))]


def _background(rng):
    return BACKGROUND_FILLERS[int(rng.integers(len(BACKGROUND_FILLERS)))]


def _prep(rng):
    return PREPOSITIONS[int(rng.integers(len(PREPOSITIONS)))]


def _fill(rng, lo, hi):
    return [_filler(rng) for _ in range(int(rng.integers(lo, hi + 1)))]


def _block(rng, subj, obj, label, roomy):
    """Contiguous "subj (не)? frame obj" block deciding the pair label."""
    flip = rng.random() < NEGATION_RATE
    if (label == lx.POSITIVE) != flip:
        pool = POS_FRAMES
    else:
        pool = NEG_FRAMES
    frame = pool[int(rng.integers(len(pool)))]
    tokens = [subj]
    if flip:
        if rng.random() < 0.5:
            tokens.append(_filler(rng))
        tokens.append(lx.NEGATION_PARTICLE)
    else:
        tokens.extend(_fill(rng, 0, 1))
    tokens.append(frame)
    tokens.extend(_fill(rng, 0, 2 if roomy else 1))
    obj_offset = len(tokens)
    tokens.append(obj)
    return tokens, obj_offset


def _combined_sentence(rng, pair1, label1, pair2, label2):
    """Two attitude blocks side by side in one sentence."""
    if rng.integers(2):
        pair1, label1, pair2, label2 = pair2, label2, pair1, label1
    while True:
        tokens = _fill(rng, 0, 1)
        mentions = []
        b1, off1 = _block(rng, SURFACE[pair1[0]], SURFACE[pair1[1]], label1,
                          roomy=True)
        mentions.append((len(tokens), pair1[0]))
        mentions.append((len(tokens) + off1, pair1[1]))
        tokens.extend(b1)
        tokens.extend(_fill(rng, 1, 2))
        b2, off2 = _block(rng, SURFACE[pair2[0]], SURFACE[pair2[1]], label2,
                          roomy=True)
        mentions.append((len(tokens), pair2[0]))
        mentions.append((len(tokens) + off2, pair2[1]))
        tokens.extend(b2)
        if rng.random() < 0.3 and len(tokens) <= 14:
            word = SENTIMENT_WORDS[int(rng.integers(len(SENTIMENT_WORDS)))]
            tokens.append(word)
        tokens.append(".")
        if len(tokens) <= 16:
            return tokens, mentions


def _neutral_sentence(rng, first, second):
    """Two entities co-occur with no frame at all."""
    tokens = _fill(rng, 1, 3)
    first_pos = len(tokens)
    tokens.append(SURFACE[first])
    tokens.append(_prep(rng) if rng.random() < 0.5 else _filler(rng))
    tokens.extend(_fill(rng, 0, 1))
    second_pos = len(tokens)
    tokens.append(SURFACE[second])
    tokens.extend(_fill(rng, 1, 2))
    tokens.append(".")
    return tokens, [(first_pos, first), (second_pos, second)]


def _filler_sentence(rng):
    count = int(rng.integers(6, 11))
    tokens = [_background(rng) for _ in range(count)]
    tokens.append(".")
    return tokens


def _document(doc_id, rng):
    pos_first = bool(rng.integers(2))
    lab1 = lx.POSITIVE if pos_first else lx.NEGATIVE
    lab2 = lx.NEGATIVE if pos_first else lx.POSITIVE

    s1, m1 = _combined_sentence(rng, ("A", "B"), lab1, ("C", "D"), lab2)
    sentences = [cp.Sentence(s1)]
    mentions = [cp.EntityMention(0, (p, p + 1), g) for p, g in m1]
    for pair in (("B", "C"), ("A", "D"), ("B", "D")):
        if rng.integers(2):
            pair = (pair[1], pair[0])
        toks, ms = _neutral_sentence(rng, *pair)
        idx = len(sentences)
        sentences.append(cp.Sentence(toks))
        mentions += [cp.EntityMention(idx, (p, p + 1), g) for p, g in ms]
    for _ in range(2 + int(rng.integers(2))):
        sentences.append(cp.Sentence(_filler_sentence(rng)))

    groups = [cp.SynonymGroup(g, [SURFACE[g]]) for g in ENTITIES]
    doc = cp.Document(doc_id, sentences, mentions, groups)
    opinions = [cp.Opinion("A", "B", lab1), cp.Opinion("C", "D", lab2)]
    return doc, opinions


def build_corpus(seed=0, n_docs=N_DOCS):
    rng = np.random.default_rng(seed)
    docs = []
    opinions = {}
    for d in range(n_docs):
        doc_id = "synth%03d" % d
        doc, ops = _document(doc_id, rng)
        docs.append(doc)
        opinions[doc_id] = ops
    return cp.Corpus(docs, opinions)


def encoder_config(kind):
    return en.EncoderConfig(kind, n=16, h=3, filters=8, window=1, k=3,
                            feature_mode="att-ends")


def embed_options():
    return {"m": 3, "polarity_dim": 8, "use_position": False,
            "position_dim": 2}


def train_config(seed=0):
    return md.TrainConfig(max_epochs=150, eval_period=10,
                          stop_threshold=0.99, optimizer="adam",
                          learning_rate=0.01, batch_size=16, seed=seed,
                          neutral_ratio=2.0)
