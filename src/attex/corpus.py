"""Document ingestion, neutral-pair augmentation, context extraction,
and train/test or fold splitting.

Documents arrive as JSON lines (doc_id, sentences, mentions, groups),
directed opinions as TSV. Neutral opinions are added for every ordered
entity pair co-occurring in a sentence that carries no annotation, and
one classification sample is produced per (opinion, sentence) whose
sentence mentions both sides.
"""

import itertools
import os
from collections import defaultdict

import numpy as np

from . import lexicons as lx
from . import termizer as tz
from .errors import DataError, read_json_lines, read_lines

DOCUMENTS_FILENAME = "documents.jsonl"
OPINIONS_FILENAME = "opinions.tsv"


class Sentence:
    """Surface tokens of one sentence."""

    __slots__ = ("tokens",)

    def __init__(self, tokens):
        self.tokens = list(tokens)

    def __len__(self):
        return len(self.tokens)


class EntityMention:
    __slots__ = ("sentence_idx", "token_span", "group_id")

    def __init__(self, sentence_idx, token_span, group_id):
        start, end = token_span
        if start >= end:
            raise ValueError("empty mention span %r" % (token_span,))
        self.sentence_idx = sentence_idx
        self.token_span = (start, end)
        self.group_id = group_id

    def __repr__(self):
        return "EntityMention(%d, %r, %r)" % (
            self.sentence_idx, self.token_span, self.group_id)


class SynonymGroup:
    __slots__ = ("group_id", "surface_variants")

    def __init__(self, group_id, surface_variants):
        variants = list(surface_variants)
        if not variants:
            raise ValueError("synonym group %r has no variants" % (group_id,))
        lowered = [v.lower() for v in variants]
        if len(set(lowered)) != len(lowered):
            raise ValueError("synonym group %r repeats a variant" % (group_id,))
        self.group_id = group_id
        self.surface_variants = variants


class Document:
    __slots__ = ("doc_id", "sentences", "entity_mentions", "synonym_groups")

    def __init__(self, doc_id, sentences, entity_mentions, synonym_groups):
        self.doc_id = doc_id
        self.sentences = list(sentences)
        self.entity_mentions = list(entity_mentions)
        self.synonym_groups = list(synonym_groups)
        self._validate()

    def _validate(self):
        known = {g.group_id for g in self.synonym_groups}
        if len(known) != len(self.synonym_groups):
            raise ValueError("duplicate synonym group id")
        spans_by_sentence = defaultdict(list)
        for m in self.entity_mentions:
            if not 0 <= m.sentence_idx < len(self.sentences):
                raise ValueError("mention sentence %d out of range" % m.sentence_idx)
            start, end = m.token_span
            if not 0 <= start < end <= len(self.sentences[m.sentence_idx]):
                raise ValueError("mention span %r out of bounds in sentence %d"
                                 % (m.token_span, m.sentence_idx))
            if m.group_id not in known:
                raise ValueError("mention references unknown group %r" % (m.group_id,))
            spans_by_sentence[m.sentence_idx].append(m.token_span)
        for idx, spans in spans_by_sentence.items():
            spans.sort()
            for (s1, e1), (s2, _) in zip(spans, spans[1:]):
                if s2 < e1:
                    raise ValueError("overlapping mention spans in sentence %d" % idx)


class Opinion:
    """Directed attitude between two synonym groups. A neutral one is an
    augmented pair: annotated opinions are positive or negative."""

    __slots__ = ("source_group", "target_group", "label")

    def __init__(self, source_group, target_group, label):
        if source_group == target_group:
            raise ValueError("opinion source equals target: %r" % (source_group,))
        if label not in lx.POLARITIES:
            raise ValueError("unknown label: %r" % (label,))
        self.source_group = source_group
        self.target_group = target_group
        self.label = label

    def pair(self):
        return (self.source_group, self.target_group)

    def _key(self):
        return (self.source_group, self.target_group, self.label)

    def __eq__(self, other):
        return isinstance(other, Opinion) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return "Opinion(%r, %r, %r)" % self._key()


class ContextSample:
    """One (subject, object, sentence) classification instance."""

    __slots__ = ("doc_id", "sentence_idx", "terms", "label",
                 "source_group", "target_group")

    def __init__(self, doc_id, sentence_idx, terms, label,
                 source_group, target_group):
        if label not in lx.POLARITIES:
            raise ValueError("unknown label: %r" % (label,))
        self.doc_id = doc_id
        self.sentence_idx = sentence_idx
        self.terms = terms
        self.label = label
        self.source_group = source_group
        self.target_group = target_group

    def opinion_key(self):
        return (self.doc_id, self.source_group, self.target_group)


class FoldAssignment:
    __slots__ = ("fold_of_doc", "sentence_counts")

    def __init__(self, fold_of_doc, sentence_counts):
        self.fold_of_doc = dict(fold_of_doc)
        self.sentence_counts = list(sentence_counts)


class Corpus:
    """Documents plus their annotated opinions."""

    def __init__(self, documents, opinions_by_doc):
        self.documents = list(documents)
        self.opinions_by_doc = {k: list(v) for k, v in opinions_by_doc.items()}
        known = {d.doc_id for d in self.documents}
        for doc_id in self.opinions_by_doc:
            if doc_id not in known:
                raise ValueError("opinions reference unknown document %r" % (doc_id,))

    def opinions(self, doc_id):
        return self.opinions_by_doc.get(doc_id, [])


def _parse_document(obj, path, lineno):
    def fail(message):
        raise DataError(message, path=path, line=lineno)

    if not isinstance(obj, dict):
        fail("document record must be an object")
    doc_id = obj.get("doc_id")
    if not isinstance(doc_id, str) or not doc_id:
        fail("doc_id must be a non-empty string")
    sentences_field = obj.get("sentences")
    if not isinstance(sentences_field, list):
        fail("sentences must be an array of token arrays")
    sentences = []
    for s in sentences_field:
        if not isinstance(s, list) or not all(isinstance(t, str) for t in s):
            fail("sentence must be an array of strings")
        if any(not t.strip() or "\n" in t or "\r" in t for t in s):
            fail("token must hold a non-space character and no line break")
        sentences.append(Sentence(s))
    groups = []
    for g in obj.get("groups", []):
        if (not isinstance(g, list) or len(g) < 2
                or not all(isinstance(x, str) for x in g)):
            fail("group must be [group_id, variant, ...]")
        try:
            groups.append(SynonymGroup(g[0], g[1:]))
        except ValueError as exc:
            fail(str(exc))
    mentions = []
    for m in obj.get("mentions", []):
        if (not isinstance(m, list) or len(m) != 4
                or not all(isinstance(x, int) for x in m[:3])
                or not isinstance(m[3], str)):
            fail("mention must be [sentence_idx, start, end, group_id]")
        try:
            mentions.append(EntityMention(m[0], (m[1], m[2]), m[3]))
        except ValueError as exc:
            fail(str(exc))
    try:
        return Document(doc_id, sentences, mentions, groups)
    except ValueError as exc:
        fail(str(exc))


def load_documents(path):
    """Read one document per JSON line."""
    documents = []
    seen = set()
    for lineno, obj in read_json_lines(path):
        doc = _parse_document(obj, path, lineno)
        if doc.doc_id in seen:
            raise DataError("duplicate doc_id %r" % doc.doc_id,
                            path=path, line=lineno)
        seen.add(doc.doc_id)
        documents.append(doc)
    return documents


def load_opinions(path, documents):
    """Read `doc_id<TAB>source<TAB>target<TAB>label` annotated opinions."""
    known_groups = {d.doc_id: {g.group_id for g in d.synonym_groups}
                    for d in documents}
    opinions_by_doc = defaultdict(list)
    pairs_by_doc = defaultdict(set)
    for lineno, line in read_lines(path):
        fields = line.split("\t")
        if len(fields) != 4:
            raise DataError("expected 4 tab-separated fields",
                            path=path, line=lineno)
        doc_id, source, target, label = fields
        if doc_id not in known_groups:
            raise DataError("unknown doc_id %r" % doc_id,
                            path=path, line=lineno)
        known = known_groups[doc_id]
        if source not in known or target not in known:
            raise DataError("opinion references unknown group",
                            path=path, line=lineno)
        try:
            opinion = Opinion(source, target, label)
        except ValueError as exc:
            raise DataError(str(exc), path=path, line=lineno)
        if label == lx.NEUTRAL:
            raise DataError("annotated opinions cannot be neutral",
                            path=path, line=lineno)
        if opinion.pair() in pairs_by_doc[doc_id]:
            raise DataError("duplicate opinion pair", path=path, line=lineno)
        pairs_by_doc[doc_id].add(opinion.pair())
        opinions_by_doc[doc_id].append(opinion)
    return dict(opinions_by_doc)


def corpus_paths(path, opinions_path=None):
    """(documents file, opinions file or None) that load_corpus reads.

    `path` may be a directory holding documents.jsonl/opinions.tsv or
    the documents file itself, with the opinions file given separately.
    """
    if not os.path.isdir(path):
        return path, opinions_path
    candidate = os.path.join(path, OPINIONS_FILENAME)
    if opinions_path is None and os.path.exists(candidate):
        opinions_path = candidate
    return os.path.join(path, DOCUMENTS_FILENAME), opinions_path


def load_corpus(path, opinions_path=None):
    """Load documents (and opinions when present) into a Corpus; the
    arguments are those of corpus_paths."""
    documents_path, opinions_path = corpus_paths(path, opinions_path)
    documents = load_documents(documents_path)
    opinions_by_doc = {}
    if opinions_path is not None:
        opinions_by_doc = load_opinions(opinions_path, documents)
    return Corpus(documents, opinions_by_doc)


def load_split_manifest(path):
    """Read `doc_id<TAB>train|test` lines into a dict."""
    manifest = {}
    for lineno, line in read_lines(path):
        fields = line.split("\t")
        if len(fields) != 2 or fields[1] not in ("train", "test"):
            raise DataError("expected 'doc_id<TAB>train|test'",
                            path=path, line=lineno)
        if fields[0] in manifest:
            raise DataError("duplicate doc_id %r" % fields[0],
                            path=path, line=lineno)
        manifest[fields[0]] = fields[1]
    return manifest


def augment_neutral(doc, annotated):
    """Add neutral opinions for unannotated ordered co-occurring pairs."""
    groups_by_sentence = defaultdict(set)
    for m in doc.entity_mentions:
        groups_by_sentence[m.sentence_idx].add(m.group_id)
    cooccurring = set()
    for groups in groups_by_sentence.values():
        for g1 in groups:
            for g2 in groups:
                if g1 != g2:
                    cooccurring.add((g1, g2))
    present = {op.pair() for op in annotated}
    added = [Opinion(g1, g2, lx.NEUTRAL)
             for (g1, g2) in sorted(cooccurring - present)]
    return list(annotated) + added


def _context_sequence(sentence_terms, subj_span, obj_span):
    """The TermSequence of one context: a sentence's (terms, positions)
    with the subject and object mentions masked as such."""
    terms, positions = sentence_terms
    if subj_span == obj_span:
        raise ValueError("subject and object use the same mention")
    if subj_span not in positions:
        raise ValueError("subject mention absent from sentence")
    if obj_span not in positions:
        raise ValueError("object mention absent from sentence")
    subj_pos, obj_pos = positions[subj_span], positions[obj_span]
    terms = list(terms)
    terms[subj_pos] = tz.Term.entity_subj()
    terms[obj_pos] = tz.Term.entity_obj()
    return tz.TermSequence(terms, subj_pos, obj_pos)


def extract_contexts(doc, opinions, frame_lexicon=None, lemmatizer=tz.lemmatize):
    """One sample per (opinion, sentence) mentioning both sides, in
    opinion then sentence order.

    When a side has several mentions in a sentence, the mention pair
    with the smallest start-token distance wins; ties prefer the
    leftmost subject, then the leftmost object. A sentence's terms are
    built once, when it first yields a context, and every context of it
    only swaps in its participant masks.
    """
    spans_by_sentence = defaultdict(lambda: defaultdict(list))
    for m in doc.entity_mentions:
        spans_by_sentence[m.sentence_idx][m.group_id].append(m.token_span)
    mentioned = sorted(spans_by_sentence.items())
    built = {}
    samples = []
    for opinion in opinions:
        for s_idx, spans_by_group in mentioned:
            sources = spans_by_group.get(opinion.source_group)
            targets = spans_by_group.get(opinion.target_group)
            if not sources or not targets:
                continue
            subj, obj = min(((s, t) for s in sources for t in targets),
                            key=lambda pair: (abs(pair[0][0] - pair[1][0]),
                                              pair[0][0], pair[1][0]))
            if s_idx not in built:
                tokens = doc.sentences[s_idx].tokens
                lemmas = [lemmatizer(t) for t in tokens]
                frames = ([] if frame_lexicon is None
                          else lx.match_frames(lemmas, frame_lexicon))
                built[s_idx] = tz.sentence_terms(
                    tokens, lemmas, itertools.chain(*spans_by_group.values()),
                    frames)
            seq = _context_sequence(built[s_idx], subj, obj)
            samples.append(ContextSample(doc.doc_id, s_idx, seq, opinion.label,
                                         opinion.source_group, opinion.target_group))
    return samples


def split_folds(docs, k=3, seed=0):
    """Greedy sentence-balanced fold assignment.

    Documents are shuffled (so equal sentence counts land in seed-driven
    order), stably sorted by sentence count descending, and assigned one
    by one to the currently lightest fold, lower index on ties.
    """
    docs = list(docs)
    if len(docs) < k:
        raise ValueError("need at least %d documents, got %d" % (k, len(docs)))
    rng = np.random.default_rng(seed)
    order = [docs[i] for i in rng.permutation(len(docs))]
    order.sort(key=lambda d: -len(d.sentences))
    totals = [0] * k
    fold_of = {}
    for doc in order:
        fold = min(range(k), key=lambda f: totals[f])
        fold_of[doc.doc_id] = fold
        totals[fold] += len(doc.sentences)
    return FoldAssignment(fold_of, totals)


def train_test_split(docs, manifest):
    """Partition documents exactly as the manifest lists them."""
    train, test = [], []
    for doc in docs:
        if doc.doc_id not in manifest:
            raise ValueError("manifest missing doc_id %r" % doc.doc_id)
        (train if manifest[doc.doc_id] == "train" else test).append(doc)
    known = {d.doc_id for d in docs}
    for doc_id in manifest:
        if doc_id not in known:
            raise ValueError("manifest lists unknown doc_id %r" % doc_id)
    return train, test
