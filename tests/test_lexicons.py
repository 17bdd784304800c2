"""Lexicon loading, longest-match lookup, and negation behavior."""

import itertools
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from attex import lexicons as lx
from attex.errors import DataError

ORACLE_ENTRIES = {
    ("a",): "positive",
    ("a", "b"): "negative",
    ("b", "c", "a"): "neutral",
    ("c",): "negative",
    ("b", "b"): "positive",
}

ORACLE_LEX = lx.FrameLexicon(
    [lx.FrameEntry(k, v) for k, v in ORACLE_ENTRIES.items()])


def _all_matchings(lemmas, entries):
    """Every list of disjoint spans whose slices are lexicon entries."""
    n = len(lemmas)
    out = []

    def walk(i, acc):
        if i >= n:
            out.append(list(acc))
            return
        walk(i + 1, acc)
        for width in range(1, n - i + 1):
            key = tuple(lemmas[i:i + width])
            if key in entries:
                acc.append(((i, i + width), entries[key]))
                walk(i + width, acc)
                acc.pop()

    walk(0, [])
    return out


def _oracle_match(lemmas, entries):
    """Earliest-start-then-longest preferred matching, found by full
    enumeration rather than scanning."""

    def key(matching):
        spans = [(s, -(e - s)) for (s, e), _ in matching]
        spans.append((math.inf, 0))
        return spans

    return min(_all_matchings(lemmas, entries), key=key)


# Entries over a three-letter alphabet share prefixes and are prefixes of
# one another; up to 9 lemmas, they can be longer than the sentence.
random_entries = st.dictionaries(
    st.lists(st.sampled_from("abc"), min_size=1, max_size=9).map(tuple),
    st.sampled_from(lx.POLARITIES), max_size=10)


class TestFrameEntry:
    def test_requires_lemmas(self):
        with pytest.raises(ValueError):
            lx.FrameEntry([], "positive")

    def test_rejects_unknown_polarity(self):
        with pytest.raises(ValueError):
            lx.FrameEntry(["x"], "up")


class TestLoadFrameLexicon:
    def test_two_entries(self, tmp_path):
        path = tmp_path / "frames.tsv"
        path.write_text("осудить\tneg\nодобрить дело\tpos\n", encoding="utf-8")
        lex = lx.load_frame_lexicon(path)
        assert len(lex) == 2
        assert lex.max_entry_len == 2
        assert lex.polarity_of(("осудить",)) == "negative"
        assert lex.polarity_of(("одобрить", "дело")) == "positive"

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "frames.tsv"
        path.write_text("hail\tpos\nhail\tneg\n", encoding="utf-8")
        with pytest.raises(DataError, match="duplicate"):
            lx.load_frame_lexicon(path)

    def test_unknown_polarity_token(self, tmp_path):
        path = tmp_path / "frames.tsv"
        path.write_text("hail\tup\n", encoding="utf-8")
        with pytest.raises(DataError, match="polarity"):
            lx.load_frame_lexicon(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "frames.tsv"
        path.write_text("hail pos\n", encoding="utf-8")
        with pytest.raises(DataError):
            lx.load_frame_lexicon(path)

    def test_entries_case_folded(self, tmp_path):
        path = tmp_path / "frames.tsv"
        path.write_text("Осудить\tneg\n", encoding="utf-8")
        lex = lx.load_frame_lexicon(path)
        assert lex.polarity_of(("осудить",)) == "negative"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "frames.tsv"
        path.write_text("hail\tpos\n\n", encoding="utf-8")
        assert len(lx.load_frame_lexicon(path)) == 1


class TestMatchFrames:
    def test_single_entry(self):
        lex = lx.FrameLexicon([lx.FrameEntry(["condemn"], "negative")])
        got = lx.match_frames(["the", "senate", "condemn", "it"], lex)
        assert got == [((2, 3), "negative")]

    def test_longest_wins(self):
        lex = lx.FrameLexicon([
            lx.FrameEntry(["give"], "neutral"),
            lx.FrameEntry(["give", "up"], "negative"),
        ])
        assert lx.match_frames(["give", "up"], lex) == [((0, 2), "negative")]

    def test_no_entry(self):
        assert lx.match_frames(["x", "y"], ORACLE_LEX) == []

    def test_empty_lexicon(self):
        assert lx.match_frames(["a", "b"], lx.FrameLexicon()) == []

    def test_exhaustive_against_oracle(self):
        for n in range(0, 7):
            for combo in itertools.product("abc", repeat=n):
                lemmas = list(combo)
                got = lx.match_frames(lemmas, ORACLE_LEX)
                assert got == _oracle_match(lemmas, ORACLE_ENTRIES), lemmas

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from("abc"), min_size=7, max_size=8))
    def test_long_sequences_against_oracle(self, lemmas):
        got = lx.match_frames(lemmas, ORACLE_LEX)
        assert got == _oracle_match(lemmas, ORACLE_ENTRIES)

    @settings(max_examples=500, deadline=None)
    @given(entries=random_entries,
           lemmas=st.lists(st.sampled_from("abcx"), max_size=8))
    @example(entries={}, lemmas=["a", "b"])
    @example(entries={("a", "b"): "positive", ("a", "b", "c"): "negative",
                      ("a", "c"): "neutral", ("b",): "positive"},
             lemmas=["a", "b", "a", "b", "c", "a", "c", "b"])
    @example(entries={("a",) * 9: "positive", ("a",): "negative"},
             lemmas=["a", "a", "a"])
    def test_random_lexicons_against_oracle(self, entries, lemmas):
        lex = lx.FrameLexicon([lx.FrameEntry(k, v) for k, v in entries.items()])
        assert lx.match_frames(lemmas, lex) == _oracle_match(lemmas, entries)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.sampled_from(["a", "b", "c", "x", "y"]), max_size=12))
    def test_span_invariants(self, lemmas):
        got = lx.match_frames(lemmas, ORACLE_LEX)
        prev_end = 0
        for (start, end), polarity in got:
            assert start >= prev_end
            assert end > start
            key = tuple(lemmas[start:end])
            assert ORACLE_ENTRIES[key] == polarity
            prev_end = end


class TestApplyNegation:
    def test_positive_inverted(self):
        assert lx.apply_negation("positive", "не") == "negative"

    def test_identity_without_particle(self):
        assert lx.apply_negation("negative", "the") == "negative"

    def test_neutral_unchanged(self):
        assert lx.apply_negation("neutral", "не") == "neutral"

    @given(st.sampled_from(lx.POLARITIES),
           st.sampled_from(["не", "the", "", "народ"]))
    def test_involution(self, polarity, lemma):
        once = lx.apply_negation(polarity, lemma)
        assert lx.apply_negation(once, lemma) == polarity


class TestWordLists:
    def test_membership(self, tmp_path):
        path = tmp_path / "prep.txt"
        path.write_text("в\nна\nПри\n", encoding="utf-8")
        preps = lx.load_lemma_set(path)
        assert len(preps) == 3
        assert "в" in preps
        assert "при" in preps
        assert "При" in preps
        assert "у" not in preps

    def test_sentiment_lexicon(self, tmp_path):
        path = tmp_path / "sent.txt"
        path.write_text("Хорошо\nплохо\n", encoding="utf-8")
        sent = lx.load_lemma_set(path)
        assert "хорошо" in sent
        assert "плохо" in sent
        assert "никак" not in sent
