"""Frame, sentiment, and preposition lexicons.

The frame lexicon maps multi-word lemma entries to the polarity its
first argument expresses toward its second; lookup is greedy
left-to-right longest match. Sentiment and preposition lists are plain
lemma sets used to assign analysis groups.
"""

from .errors import DataError, read_lines

POSITIVE = "positive"
NEGATIVE = "negative"
NEUTRAL = "neutral"
POLARITIES = (POSITIVE, NEGATIVE, NEUTRAL)
POLARITY_INDEX = {p: i for i, p in enumerate(POLARITIES)}

NEGATION_PARTICLE = "не"

_POLARITY_TOKENS = {"pos": POSITIVE, "neg": NEGATIVE, "neu": NEUTRAL}


class FrameEntry:
    """One lexicon entry: a lemma sequence and its attitude polarity."""

    __slots__ = ("lemmas", "polarity")

    def __init__(self, lemmas, polarity):
        lemmas = tuple(lemmas)
        if not lemmas:
            raise ValueError("frame entry needs at least one lemma")
        if polarity not in POLARITIES:
            raise ValueError("unknown polarity: %r" % (polarity,))
        self.lemmas = lemmas
        self.polarity = polarity

    def __repr__(self):
        return "FrameEntry(%r, %r)" % (list(self.lemmas), self.polarity)


class FrameLexicon:
    """Immutable set of frame entries keyed by lemma sequence."""

    def __init__(self, entries=()):
        self._polarity = {}
        self.max_entry_len = 0
        for entry in entries:
            if entry.lemmas in self._polarity:
                raise ValueError("duplicate entry: %r" % (entry.lemmas,))
            self._polarity[entry.lemmas] = entry.polarity
            self.max_entry_len = max(self.max_entry_len, len(entry.lemmas))

    def __len__(self):
        return len(self._polarity)

    def __contains__(self, lemmas):
        return tuple(lemmas) in self._polarity

    def polarity_of(self, lemmas):
        """Polarity of the exact lemma sequence, or None."""
        return self._polarity.get(tuple(lemmas))

    @property
    def entries(self):
        return [FrameEntry(k, v) for k, v in sorted(self._polarity.items())]


class LemmaSet:
    """Case-folded lemma membership set: a sentiment or preposition list."""

    def __init__(self, lemmas=()):
        self.lemmas = frozenset(l.casefold() for l in lemmas)

    def __contains__(self, lemma):
        return lemma.casefold() in self.lemmas

    def __len__(self):
        return len(self.lemmas)


def load_frame_lexicon(path):
    """Read `lemma[ lemma...]<TAB>pos|neg|neu` lines into a FrameLexicon."""
    entries = []
    seen = {}
    for lineno, line in read_lines(path):
        fields = line.split("\t")
        if len(fields) != 2:
            raise DataError("expected 'lemmas<TAB>polarity'", path=path, line=lineno)
        lemma_field, tag = fields
        lemmas = tuple(tok.casefold() for tok in lemma_field.split() if tok)
        if not lemmas:
            raise DataError("empty lemma sequence", path=path, line=lineno)
        if tag not in _POLARITY_TOKENS:
            raise DataError("unknown polarity token: %r" % (tag,), path=path, line=lineno)
        if lemmas in seen:
            raise DataError(
                "duplicate entry %r (first at line %d)" % (" ".join(lemmas), seen[lemmas]),
                path=path, line=lineno)
        seen[lemmas] = lineno
        entries.append(FrameEntry(lemmas, _POLARITY_TOKENS[tag]))
    return FrameLexicon(entries)


def load_lemma_set(path):
    """Read a one-lemma-per-line word list into a LemmaSet."""
    return LemmaSet({line.strip() for _, line in read_lines(path)})


def match_frames(lemmas, lex):
    """Greedy left-to-right longest-match frame lookup.

    Returns a list of ((start, end), polarity) with half-open spans that
    never overlap; each matched slice equals a lexicon entry verbatim.
    """
    matches = []
    i = 0
    n = len(lemmas)
    while i < n:
        hit = None
        for width in range(min(lex.max_entry_len, n - i), 0, -1):
            polarity = lex.polarity_of(lemmas[i:i + width])
            if polarity is not None:
                hit = (width, polarity)
                break
        if hit is None:
            i += 1
        else:
            width, polarity = hit
            matches.append(((i, i + width), polarity))
            i += width
    return matches


def apply_negation(polarity, preceding_lemma, particle=NEGATION_PARTICLE):
    """Invert polarity when the immediately preceding lemma negates it."""
    if preceding_lemma != particle:
        return polarity
    if polarity == POSITIVE:
        return NEGATIVE
    if polarity == NEGATIVE:
        return POSITIVE
    return polarity

