"""Ingestion, augmentation, context extraction, and splitting."""

import hashlib
import itertools
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_context as pc
import synth
from attex import corpus as cp
from attex import lexicons as lx
from attex import model as md
from attex import termizer as tz
from attex.errors import DataError


def write_documents(tmp_path, records, name="documents.jsonl"):
    path = tmp_path / name
    path.write_text("\n".join(json.dumps(r, ensure_ascii=False) for r in records) + "\n",
                    encoding="utf-8")
    return path


FIXTURE_DOC = {
    "doc_id": "d1",
    "sentences": [["Россия", "осудить", "НАТО"], ["мир", "в", "Сирии"]],
    "mentions": [[0, 0, 1, "RU"], [0, 2, 3, "NATO"], [1, 2, 3, "SY"]],
    "groups": [["RU", "Россия", "РФ"], ["NATO", "НАТО"], ["SY", "Сирия"]],
}


class TestLoadDocuments:
    def test_fixture_counts(self, tmp_path):
        path = write_documents(tmp_path, [FIXTURE_DOC])
        docs = cp.load_documents(path)
        assert len(docs) == 1
        doc = docs[0]
        assert len(doc.sentences) == 2
        assert len(doc.entity_mentions) == 3
        assert len(doc.synonym_groups) == 3

    def test_span_out_of_bounds(self, tmp_path):
        record = dict(FIXTURE_DOC, mentions=[[0, 2, 9, "NATO"]])
        path = write_documents(tmp_path, [record])
        with pytest.raises(DataError, match="1"):
            cp.load_documents(path)

    def test_dangling_group(self, tmp_path):
        record = dict(FIXTURE_DOC, mentions=[[0, 0, 1, "XX"]])
        path = write_documents(tmp_path, [record])
        with pytest.raises(DataError, match="unknown group"):
            cp.load_documents(path)

    def test_overlapping_spans(self, tmp_path):
        record = dict(FIXTURE_DOC,
                      mentions=[[0, 0, 2, "RU"], [0, 1, 3, "NATO"]])
        path = write_documents(tmp_path, [record])
        with pytest.raises(DataError, match="overlapping"):
            cp.load_documents(path)

    def test_duplicate_doc_id(self, tmp_path):
        path = write_documents(tmp_path, [FIXTURE_DOC, FIXTURE_DOC])
        with pytest.raises(DataError, match="duplicate doc_id"):
            cp.load_documents(path)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "documents.jsonl"
        path.write_text("{oops\n", encoding="utf-8")
        with pytest.raises(DataError, match="JSON"):
            cp.load_documents(path)

    def test_bad_mention_shape(self, tmp_path):
        record = dict(FIXTURE_DOC, mentions=[[0, 0, "RU"]])
        path = write_documents(tmp_path, [record])
        with pytest.raises(DataError):
            cp.load_documents(path)


class TestLoadCorpus:
    def test_no_opinions(self, tmp_path):
        path = write_documents(tmp_path, [FIXTURE_DOC])
        corpus = cp.load_corpus(path)
        assert len(corpus.documents) == 1
        assert corpus.opinions("d1") == []

    def test_directory_layout(self, tmp_path):
        write_documents(tmp_path, [FIXTURE_DOC])
        (tmp_path / "opinions.tsv").write_text("d1\tRU\tNATO\tnegative\n",
                                               encoding="utf-8")
        corpus = cp.load_corpus(tmp_path)
        assert len(corpus.opinions("d1")) == 1
        assert corpus.opinions("d1")[0].label == "negative"

    def test_opinion_unknown_doc(self, tmp_path):
        docs_path = write_documents(tmp_path, [FIXTURE_DOC])
        opinions = tmp_path / "opinions.tsv"
        opinions.write_text("d9\tRU\tNATO\tnegative\n", encoding="utf-8")
        with pytest.raises(DataError, match="unknown doc_id"):
            cp.load_corpus(docs_path, opinions)

    def test_opinion_unknown_group(self, tmp_path):
        docs_path = write_documents(tmp_path, [FIXTURE_DOC])
        opinions = tmp_path / "opinions.tsv"
        opinions.write_text("d1\tRU\tXX\tnegative\n", encoding="utf-8")
        with pytest.raises(DataError, match="unknown group"):
            cp.load_corpus(docs_path, opinions)

    def test_annotated_neutral_rejected(self, tmp_path):
        docs_path = write_documents(tmp_path, [FIXTURE_DOC])
        opinions = tmp_path / "opinions.tsv"
        opinions.write_text("d1\tRU\tNATO\tneutral\n", encoding="utf-8")
        with pytest.raises(DataError, match="neutral"):
            cp.load_corpus(docs_path, opinions)

    def test_self_opinion_rejected(self, tmp_path):
        docs_path = write_documents(tmp_path, [FIXTURE_DOC])
        opinions = tmp_path / "opinions.tsv"
        opinions.write_text("d1\tRU\tRU\tnegative\n", encoding="utf-8")
        with pytest.raises(DataError, match="source equals target"):
            cp.load_corpus(docs_path, opinions)

    def test_short_line_rejected(self, tmp_path):
        docs_path = write_documents(tmp_path, [FIXTURE_DOC])
        opinions = tmp_path / "opinions.tsv"
        opinions.write_text("d1\tRU\tnegative\n", encoding="utf-8")
        with pytest.raises(DataError, match="4 tab"):
            cp.load_corpus(docs_path, opinions)


class TestManifest:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text("d1\ttrain\nd2\ttest\n", encoding="utf-8")
        assert cp.load_split_manifest(path) == {"d1": "train", "d2": "test"}

    def test_bad_tag(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text("d1\tdev\n", encoding="utf-8")
        with pytest.raises(DataError):
            cp.load_split_manifest(path)

    def test_duplicate(self, tmp_path):
        path = tmp_path / "split.tsv"
        path.write_text("d1\ttrain\nd1\ttest\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            cp.load_split_manifest(path)


def doc_with_mentions(sentences_with_groups, doc_id="d"):
    """Each sentence is a dict token_pos -> group_id over 8 filler tokens."""
    sentences = []
    mentions = []
    groups = set()
    for s_idx, placement in enumerate(sentences_with_groups):
        tokens = ["w%d" % t for t in range(8)]
        for pos, group in placement.items():
            tokens[pos] = group.lower() + "_m"
            mentions.append(cp.EntityMention(s_idx, (pos, pos + 1), group))
            groups.add(group)
        sentences.append(cp.Sentence(tokens))
    synonym_groups = [cp.SynonymGroup(g, [g.lower() + "_m"]) for g in sorted(groups)]
    return cp.Document(doc_id, sentences, mentions, synonym_groups)


class TestAugmentNeutral:
    def test_reverse_pair_added(self):
        doc = doc_with_mentions([{0: "A", 3: "B"}])
        annotated = [cp.Opinion("A", "B", "positive")]
        out = cp.augment_neutral(doc, annotated)
        assert out[0] is annotated[0]
        assert out[1:] == [cp.Opinion("B", "A", "neutral")]

    def test_all_ordered_pairs(self):
        doc = doc_with_mentions([{0: "A", 3: "B", 5: "C"}])
        out = cp.augment_neutral(doc, [])
        want = {(g1, g2) for g1, g2 in itertools.permutations("ABC", 2)}
        assert {op.pair() for op in out} == want
        assert len(out) == 6
        assert all(op.label == "neutral" for op in out)

    def test_non_cooccurring_untouched(self):
        doc = doc_with_mentions([{0: "A"}, {0: "B"}])
        assert cp.augment_neutral(doc, []) == []

    @pytest.mark.parametrize("trial", range(20))
    def test_idempotent(self, trial):
        rng = np.random.default_rng(900 + trial)
        groups = ["A", "B", "C", "D"]
        placements = []
        for _ in range(int(rng.integers(1, 4))):
            chosen = rng.choice(groups, size=int(rng.integers(0, 4)), replace=False)
            positions = rng.choice(8, size=len(chosen), replace=False)
            placements.append({int(p): g for p, g in zip(positions, chosen)})
        doc = doc_with_mentions(placements)
        once = cp.augment_neutral(doc, [])
        twice = cp.augment_neutral(doc, once)
        assert twice == once


class TestExtractContexts:
    def test_single_pair_single_sample(self):
        doc = doc_with_mentions([{1: "A", 4: "B"}])
        samples = cp.extract_contexts(doc, [cp.Opinion("A", "B", "positive")])
        assert len(samples) == 1
        sample = samples[0]
        assert sample.label == "positive"
        assert sample.terms.terms[sample.terms.subj_pos].kind == tz.ENTITY_SUBJ
        assert (sample.source_group, sample.target_group) == ("A", "B")

    def test_no_shared_sentence(self):
        doc = doc_with_mentions([{0: "A"}, {0: "B"}])
        samples = cp.extract_contexts(doc, [cp.Opinion("A", "B", "positive")])
        assert samples == []

    def test_min_distance_mention_chosen(self):
        doc = cp.Document(
            "d",
            [cp.Sentence(["w%d" % t for t in range(10)])],
            [cp.EntityMention(0, (2, 3), "A"), cp.EntityMention(0, (9, 10), "A"),
             cp.EntityMention(0, (5, 6), "B")],
            [cp.SynonymGroup("A", ["a"]), cp.SynonymGroup("B", ["b"])])
        sample = cp.extract_contexts(doc, [cp.Opinion("A", "B", "positive")])[0]
        assert sample.terms.subj_pos == 2
        assert sample.terms.obj_pos == 5
        assert sample.terms.terms[9].kind == tz.ENTITY_OTHER

    def test_tie_prefers_leftmost_subject(self):
        doc = cp.Document(
            "d",
            [cp.Sentence(["w%d" % t for t in range(10)])],
            [cp.EntityMention(0, (2, 3), "A"), cp.EntityMention(0, (8, 9), "A"),
             cp.EntityMention(0, (5, 6), "B")],
            [cp.SynonymGroup("A", ["a"]), cp.SynonymGroup("B", ["b"])])
        sample = cp.extract_contexts(doc, [cp.Opinion("A", "B", "positive")])[0]
        assert sample.terms.subj_pos == 2

    def test_frames_matched_in_context(self):
        doc = cp.Document(
            "d",
            [cp.Sentence(["Россия", "не", "одобрить", "НАТО"])],
            [cp.EntityMention(0, (0, 1), "RU"), cp.EntityMention(0, (3, 4), "NATO")],
            [cp.SynonymGroup("RU", ["Россия"]), cp.SynonymGroup("NATO", ["НАТО"])])
        lexicon = lx.FrameLexicon([lx.FrameEntry(["одобрить"], "positive")])
        sample = cp.extract_contexts(doc, [cp.Opinion("RU", "NATO", "negative")],
                                     frame_lexicon=lexicon)[0]
        assert sample.terms.terms[2] == tz.Term.frame("одобрить", "negative")

    @pytest.mark.parametrize("trial", range(15))
    def test_counts_match_brute_force(self, trial):
        rng = np.random.default_rng(1300 + trial)
        groups = ["A", "B", "C", "D"]
        placements = []
        for _ in range(int(rng.integers(1, 10))):
            chosen = rng.choice(groups, size=int(rng.integers(0, 5)), replace=False)
            positions = rng.choice(8, size=len(chosen), replace=False)
            placements.append({int(p): g for p, g in zip(positions, chosen)})
        doc = doc_with_mentions(placements)
        opinions = cp.augment_neutral(doc, [])
        samples = cp.extract_contexts(doc, opinions)

        want = Counter()
        for opinion in opinions:
            for placement in placements:
                present = set(placement.values())
                if opinion.source_group in present and opinion.target_group in present:
                    want[opinion.label] += 1
        assert Counter(s.label for s in samples) == want

    def test_frame_entries_match_their_casefolded_words(self, tmp_path):
        # The lexicon casefolds its entries, so the lemmas must be
        # casefolded too: "Straße" is "strasse", a final sigma is "σ".
        path = tmp_path / "frames.txt"
        path.write_text("Straße\tneg\nΟΔΟΣ\tpos\n", encoding="utf-8")
        doc = cp.Document(
            "d",
            [cp.Sentence(["A", "Straße", "B"]), cp.Sentence(["A", "οδος", "B"])],
            [cp.EntityMention(0, (0, 1), "A"), cp.EntityMention(0, (2, 3), "B"),
             cp.EntityMention(1, (0, 1), "A"), cp.EntityMention(1, (2, 3), "B")],
            [cp.SynonymGroup("A", ["a"]), cp.SynonymGroup("B", ["b"])])
        samples = cp.extract_contexts(doc, [cp.Opinion("A", "B", "positive")],
                                      lx.load_frame_lexicon(path))
        assert [s.terms.terms[1] for s in samples] == [
            tz.Term.frame("strasse", "negative"),
            tz.Term.frame("οδοσ", "positive")]

    def test_lemmatizes_each_token_once(self):
        doc = synth.build_corpus(0, n_docs=3).documents[0]
        opinions = cp.augment_neutral(doc, [])
        calls = []

        def counted(token):
            calls.append(token)
            return tz.lemmatize(token)

        samples = cp.extract_contexts(doc, opinions, synth.frame_lexicon(),
                                      counted)
        assert len(samples) > len({s.sentence_idx for s in samples})
        assert len(calls) <= sum(len(s) for s in doc.sentences)

    @pytest.mark.parametrize("seed,digest", [
        (0, "05e089781f7a9641015e43db5ce96e753763f9299fc4be0c94581d402e4c7eee"),
        (1, "681f22a17ec4b35529dcb7fe61fa97da3f18fa7d6a5f41312184a91381b6f909"),
        (2, "4e6ef878f8991ee4f8bb1653f8d1fc93e8b74964ce48653f1b7912be2f4559b8"),
    ])
    def test_synthetic_contexts_are_pinned(self, seed, digest):
        corpus = synth.build_corpus(seed)
        samples = md.extract_samples(corpus.documents, corpus,
                                     synth.frame_lexicon())
        assert contexts_digest(samples) == digest


def contexts_digest(samples):
    """sha256 of every context's fields and term keys, in order."""
    digest = hashlib.sha256()
    for s in samples:
        record = [s.doc_id, s.sentence_idx, s.label, s.source_group,
                  s.target_group,
                  [[t.kind, t.lemma, t.polarity, t.token_kind]
                   for t in s.terms.terms],
                  s.terms.subj_pos, s.terms.obj_pos]
        digest.update(json.dumps(record, ensure_ascii=False).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


ORACLE_GROUPS = ("A", "B", "C", "D")
ORACLE_TOKENS = ("мир", "не", "f1", "F1", "f2", "g", "Не", ",", "42",
                 "http://e.org")
ORACLE_FRAMES = lx.FrameLexicon([
    lx.FrameEntry(("f1",), lx.POSITIVE),
    lx.FrameEntry(("f2", "g"), lx.NEGATIVE),
    lx.FrameEntry(("g",), lx.NEUTRAL),
    lx.FrameEntry(("мир", "f1"), lx.NEGATIVE)])


@st.composite
def oracle_documents(draw):
    """Documents of 1-4 sentences with 2-5 mentions each, listed in any
    order. Mentions span 1-3 tokens drawn like the rest, so frames
    overlap them; a group may be mentioned twice in a sentence."""
    tokens_st = st.lists(st.sampled_from(ORACLE_TOKENS), max_size=3)
    sentences, mentions = [], []
    for s_idx in range(draw(st.integers(1, 4))):
        tokens = []
        for _ in range(draw(st.integers(2, 5))):
            tokens += draw(tokens_st)
            width = draw(st.integers(1, 3))
            mentions.append(cp.EntityMention(
                s_idx, (len(tokens), len(tokens) + width),
                draw(st.sampled_from(ORACLE_GROUPS))))
            tokens += draw(st.lists(st.sampled_from(ORACLE_TOKENS),
                                    min_size=width, max_size=width))
        tokens += draw(tokens_st)
        sentences.append(cp.Sentence(tokens))
    groups = [cp.SynonymGroup(g, [g.lower()]) for g in ORACLE_GROUPS]
    doc = cp.Document("d", sentences, draw(st.permutations(mentions)), groups)
    pairs = draw(st.lists(st.permutations(ORACLE_GROUPS).map(
        lambda p: (p[0], p[1])), unique=True, max_size=6))
    annotated = [cp.Opinion(s, t, draw(st.sampled_from(
        (lx.POSITIVE, lx.NEGATIVE)))) for s, t in pairs]
    return doc, cp.augment_neutral(doc, annotated)


@settings(max_examples=200, deadline=None)
@given(case=oracle_documents(), frames=st.booleans())
def test_extraction_equals_the_per_context_oracle(case, frames):
    doc, opinions = case
    lexicon = ORACLE_FRAMES if frames else None
    got = cp.extract_contexts(doc, opinions, lexicon)
    want = pc.extract_contexts(doc, opinions, lexicon)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.doc_id, g.sentence_idx, g.label, g.source_group,
                g.target_group) == (w.doc_id, w.sentence_idx, w.label,
                                    w.source_group, w.target_group)
        assert len(g.terms) == len(w.terms)
        assert all(a is b for a, b in zip(g.terms.terms, w.terms.terms))
        assert ((g.terms.subj_pos, g.terms.obj_pos)
                == (w.terms.subj_pos, w.terms.obj_pos))


def _docs_with_counts(counts):
    return [cp.Document("d%d" % i,
                        [cp.Sentence(["a", "b"]) for _ in range(c)], [], [])
            for i, c in enumerate(counts)]


class TestSplitFolds:
    def test_three_equal_docs(self):
        folds = cp.split_folds(_docs_with_counts([10, 10, 10]), k=3, seed=0)
        assert sorted(folds.sentence_counts) == [10, 10, 10]
        assert sorted(folds.fold_of_doc.values()) == [0, 1, 2]

    def test_greedy_is_optimal_on_mixed_counts(self):
        counts = [8, 7, 5, 6, 4]
        folds = cp.split_folds(_docs_with_counts(counts), k=3, seed=0)
        assert sorted(folds.sentence_counts) == [8, 11, 11]

        best_spread = min(
            max(totals := [sum(c for c, f in zip(counts, assign) if f == fold)
                           for fold in range(3)]) - min(totals)
            for assign in itertools.product(range(3), repeat=len(counts)))
        got_spread = max(folds.sentence_counts) - min(folds.sentence_counts)
        assert got_spread == best_spread == 3

    def test_too_few_documents(self):
        with pytest.raises(ValueError):
            cp.split_folds(_docs_with_counts([3, 3]), k=3)

    def test_equal_counts_divisible(self):
        folds = cp.split_folds(_docs_with_counts([4] * 6), k=3, seed=5)
        assert folds.sentence_counts == [8, 8, 8]

    @pytest.mark.parametrize("seed", [0, 1, 99])
    def test_every_doc_assigned_once(self, seed):
        rng = np.random.default_rng(seed)
        docs = _docs_with_counts([int(c) for c in rng.integers(1, 12, size=10)])
        folds = cp.split_folds(docs, k=3, seed=seed)
        assert sorted(folds.fold_of_doc) == sorted(d.doc_id for d in docs)
        assert set(folds.fold_of_doc.values()) == {0, 1, 2}
        for fold in range(3):
            ids = {d for d, f in folds.fold_of_doc.items() if f == fold}
            total = sum(len(d.sentences) for d in docs if d.doc_id in ids)
            assert total == folds.sentence_counts[fold]

    def test_deterministic(self):
        docs = _docs_with_counts([5, 5, 5, 5, 5, 5])
        a = cp.split_folds(docs, k=3, seed=7)
        b = cp.split_folds(docs, k=3, seed=7)
        assert a.fold_of_doc == b.fold_of_doc


class TestTrainTestSplit:
    def test_partition(self):
        docs = _docs_with_counts([1, 2])
        train, test = cp.train_test_split(docs, {"d0": "train", "d1": "test"})
        assert [d.doc_id for d in train] == ["d0"]
        assert [d.doc_id for d in test] == ["d1"]

    def test_missing_doc(self):
        docs = _docs_with_counts([1, 2])
        with pytest.raises(ValueError, match="missing"):
            cp.train_test_split(docs, {"d0": "train"})

    def test_unknown_doc(self):
        docs = _docs_with_counts([1])
        with pytest.raises(ValueError, match="unknown"):
            cp.train_test_split(docs, {"d0": "train", "d9": "test"})
