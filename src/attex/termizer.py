"""Sentence tokens plus annotations to a masked term sequence.

Attitude participants become dedicated entity masks, remaining entity
mentions a shared mask, matched frame entries collapse to single terms
carrying a (negation-adjusted) polarity, and leftover tokens become
either typed tokens or lemmatized words. Each term is assignable to an
analysis group used by the attention-weight study.
"""

import unicodedata

from . import lexicons as lx

WORD = "word"
ENTITY_SUBJ = "entity_subj"
ENTITY_OBJ = "entity_obj"
ENTITY_OTHER = "entity_other"
FRAME = "frame"
TOKEN = "token"

_KINDS = (WORD, ENTITY_SUBJ, ENTITY_OBJ, ENTITY_OTHER, FRAME, TOKEN)

PUNCTUATION = "punctuation"
NUMBER = "number"
URL = "url"
TOKEN_KINDS = (PUNCTUATION, NUMBER, URL)

GROUP_PREP = "PREP"
GROUP_FRAMES = "FRAMES"
GROUP_SENTIMENT = "SENTIMENT"
GROUP_OTHER = "OTHER"
ANALYSIS_GROUPS = (GROUP_PREP, GROUP_FRAMES, GROUP_SENTIMENT, GROUP_OTHER)

_MASK_NAMES = {ENTITY_SUBJ: "E_SUBJ", ENTITY_OBJ: "E_OBJ", ENTITY_OTHER: "E_OTHER"}


class ContextDropped(Exception):
    """Participants are farther apart than the crop window allows."""


class Term:
    """One element of a masked context sequence; never changed once made.

    There is one instance per term value: `Term(...)` and the named
    constructors (word, frame, ...) return the instance first made with
    those fields, so a term equals only itself and the contexts of a
    corpus hold references to their terms, not copies of them.
    """

    __slots__ = ("kind", "lemma", "polarity", "token_kind")

    def __new__(cls, kind, lemma=None, polarity=None, token_kind=None):
        key = (kind, lemma, polarity, token_kind)
        term = _TERMS.get(key)
        if term is not None:
            return term
        if kind not in _KINDS:
            raise ValueError("unknown term kind: %r" % (kind,))
        if kind == WORD and not isinstance(lemma, str):
            raise ValueError("word term needs a lemma")
        if kind == FRAME:
            if not isinstance(lemma, str):
                raise ValueError("frame term needs a lemma")
            if polarity not in lx.POLARITIES:
                raise ValueError("unknown polarity: %r" % (polarity,))
        if kind == TOKEN and token_kind not in TOKEN_KINDS:
            raise ValueError("unknown token kind: %r" % (token_kind,))
        term = _TERMS[key] = object.__new__(cls)
        term.kind = kind
        term.lemma = lemma
        term.polarity = polarity
        term.token_kind = token_kind
        return term

    # The named constructors call __new__ directly: extraction makes a
    # term per token, and `cls(...)` would add the type-call hop to each.
    @classmethod
    def word(cls, lemma):
        return cls.__new__(cls, WORD, lemma)

    @classmethod
    def entity_subj(cls):
        return cls.__new__(cls, ENTITY_SUBJ)

    @classmethod
    def entity_obj(cls):
        return cls.__new__(cls, ENTITY_OBJ)

    @classmethod
    def entity_other(cls):
        return cls.__new__(cls, ENTITY_OTHER)

    @classmethod
    def frame(cls, lemma, polarity):
        return cls.__new__(cls, FRAME, lemma, polarity)

    @classmethod
    def token(cls, token_kind):
        return cls.__new__(cls, TOKEN, None, None, token_kind)

    def display(self):
        """Surface text for exports: lemma, token kind, or mask name."""
        if self.kind in _MASK_NAMES:
            return _MASK_NAMES[self.kind]
        if self.kind == TOKEN:
            return self.token_kind
        return self.lemma

    def __repr__(self):
        if self.kind == WORD:
            return "Term.word(%r)" % (self.lemma,)
        if self.kind == FRAME:
            return "Term.frame(%r, %r)" % (self.lemma, self.polarity)
        if self.kind == TOKEN:
            return "Term.token(%r)" % (self.token_kind,)
        return "Term(%r)" % (self.kind,)


_TERMS = {}  # (kind, lemma, polarity, token_kind) -> the one such Term


class TermSequence:
    """Masked terms of one context with participant positions."""

    __slots__ = ("terms", "subj_pos", "obj_pos")

    def __init__(self, terms, subj_pos, obj_pos):
        if not terms:
            raise ValueError("term sequence is empty")
        if subj_pos == obj_pos:
            raise ValueError("participant positions coincide")
        if not (0 <= subj_pos < len(terms) and 0 <= obj_pos < len(terms)):
            raise ValueError("participant position out of range")
        if terms[subj_pos].kind != ENTITY_SUBJ:
            raise ValueError("subj_pos does not hold the subject mask")
        if terms[obj_pos].kind != ENTITY_OBJ:
            raise ValueError("obj_pos does not hold the object mask")
        self.terms = terms
        self.subj_pos = subj_pos
        self.obj_pos = obj_pos

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return "TermSequence(%r, subj=%d, obj=%d)" % (
            self.terms, self.subj_pos, self.obj_pos)


def lemmatize(token):
    """Default lemmatizer: Unicode casefolding, as the lexicons fold
    their entries (so "Straße" is "strasse")."""
    return token.casefold()


def _is_number(token):
    seen_digit = False
    seen_dot = False
    body = token[1:] if token[:1] in "+-" else token
    if not body:
        return False
    for ch in body:
        if ch.isdigit() and ch.isascii():
            seen_digit = True
        elif ch == "." and not seen_dot:
            seen_dot = True
        else:
            return False
    return seen_digit


def _is_punctuation(token):
    return bool(token) and all(
        unicodedata.category(ch).startswith("P") for ch in token)


def classify_token(token):
    """url, number, punctuation (that precedence), or None."""
    # Letters and digits that are not all digits: a word, whatever the
    # script; every URL, number or punctuation token fails this test.
    if token.isalnum() and not token.isdigit():
        return None
    lowered = token.lower()
    if lowered.startswith(("http://", "https://", "www.")):
        return URL
    if _is_number(token):
        return NUMBER
    if _is_punctuation(token):
        return PUNCTUATION
    return None


def sentence_terms(tokens, lemmas, mentions, frames=()):
    """Terms of one sentence with every mention masked as entity_other,
    and {mention span: its term position}.

    tokens, lemmas: the sentence's surface tokens and their lemmas.
    mentions: (start, end) half-open token spans, disjoint.
    frames: ((start, end), polarity) matches over the lemmas; matches
        overlapping any mention are discarded.
    """
    in_mention = [False] * len(tokens)
    mention_end = {}
    for start, end in mentions:
        mention_end[start] = end
        in_mention[start:end] = [True] * (end - start)
    frame_at = {start: (end, polarity) for (start, end), polarity in frames
                if not any(in_mention[start:end])}

    other = Term.entity_other()
    terms = []
    positions = {}
    i = 0
    while i < len(tokens):
        end = mention_end.get(i)
        if end is not None:
            positions[i, end] = len(terms)
            terms.append(other)
            i = end
            continue
        frame = frame_at.get(i)
        if frame is not None:
            end, polarity = frame
            preceding = lemmas[i - 1] if i > 0 else ""
            adjusted = lx.apply_negation(polarity, preceding)
            terms.append(Term.frame(" ".join(lemmas[i:end]), adjusted))
            i = end
        else:
            kind = classify_token(tokens[i])
            if kind is None:
                terms.append(Term.word(lemmas[i]))
            else:
                terms.append(Term.token(kind))
            i += 1
    return terms, positions


def crop_to_window(seq, n):
    """Limit a sequence to n terms, keeping a window centered between
    the participants. Raises ContextDropped when they do not fit."""
    length = len(seq.terms)
    if length <= n:
        return seq
    lo = min(seq.subj_pos, seq.obj_pos)
    hi = max(seq.subj_pos, seq.obj_pos)
    if hi - lo + 1 > n:
        raise ContextDropped(
            "participants %d apart exceed window %d" % (hi - lo, n))
    start = (lo + hi + 1 - n) // 2
    start = max(0, min(start, length - n))
    return TermSequence(seq.terms[start:start + n],
                        seq.subj_pos - start, seq.obj_pos - start)


def group_of(term, sentiment_lexicon, preposition_list):
    """Analysis group, FRAMES > SENTIMENT > PREP; a None list holds nothing."""
    if term.kind == FRAME:
        return GROUP_FRAMES
    if term.kind == WORD:
        if sentiment_lexicon is not None and term.lemma in sentiment_lexicon:
            return GROUP_SENTIMENT
        if preposition_list is not None and term.lemma in preposition_list:
            return GROUP_PREP
    return GROUP_OTHER
