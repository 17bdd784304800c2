"""Ingestion, augmentation, context extraction, and splitting."""

import itertools
import json
from collections import Counter

import numpy as np
import pytest

from attex import corpus as cp
from attex import lexicons as lx
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
        assert corpus.opinions("d1")[0].provenance == cp.ANNOTATED

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
        assert out[1:] == [cp.Opinion("B", "A", "neutral", cp.AUGMENTED)]

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
        assert sample.terms.terms[sample.subj_pos].kind == tz.ENTITY_SUBJ
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
        assert sample.subj_pos == 2
        assert sample.obj_pos == 5
        assert sample.terms.terms[9].kind == tz.ENTITY_OTHER

    def test_tie_prefers_leftmost_subject(self):
        doc = cp.Document(
            "d",
            [cp.Sentence(["w%d" % t for t in range(10)])],
            [cp.EntityMention(0, (2, 3), "A"), cp.EntityMention(0, (8, 9), "A"),
             cp.EntityMention(0, (5, 6), "B")],
            [cp.SynonymGroup("A", ["a"]), cp.SynonymGroup("B", ["b"])])
        sample = cp.extract_contexts(doc, [cp.Opinion("A", "B", "positive")])[0]
        assert sample.subj_pos == 2

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
