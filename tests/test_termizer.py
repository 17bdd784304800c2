"""Masking, token classification, cropping, and group assignment."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attex import corpus as cp
from attex import lexicons as lx
from attex import termizer as tz


class TestLemmatize:
    def test_lowercases(self):
        assert tz.lemmatize("Moscow") == "moscow"

    def test_empty(self):
        assert tz.lemmatize("") == ""

    def test_acronym(self):
        assert tz.lemmatize("NATO") == "nato"


class TestClassifyToken:
    @pytest.mark.parametrize("token,kind", [
        (",", tz.PUNCTUATION),
        ("...", tz.PUNCTUATION),
        ("«", tz.PUNCTUATION),
        ("1945", tz.NUMBER),
        ("3.14", tz.NUMBER),
        ("-7", tz.NUMBER),
        ("https://e.org", tz.URL),
        ("http://e.org", tz.URL),
        ("www.1945.com", tz.URL),
        ("WWW.E.ORG", tz.URL),
        ("Hello", None),
        ("не", None),
        ("", None),
        ("3.1.4", None),
        ("-", tz.PUNCTUATION),
        ("a1", None),
    ])
    def test_kinds(self, token, kind):
        assert classify(token) == kind


def classify(token):
    return tz.classify_token(token)


def full_rule(token):
    """classify_token's three checks, run on every token."""
    if token.lower().startswith(("http://", "https://", "www.")):
        return tz.URL
    if tz._is_number(token):
        return tz.NUMBER
    if tz._is_punctuation(token):
        return tz.PUNCTUATION
    return None


TOKEN_CHARS = st.one_of(
    st.characters(categories=("Lu", "Ll", "Lo", "Nd", "No", "P")),
    st.sampled_from("0123456789٣²½+-.:/,«»!—"))


class TestClassifyTokenFastPath:
    # A token of letters and digits that are not all digits skips the
    # three checks; it must get the answer they give.
    @settings(max_examples=1000, deadline=None)
    @given(prefix=st.sampled_from(
               ("", "http://", "https://", "www.", "WWW.", "Http://", "+", "-")),
           body=st.text(TOKEN_CHARS, max_size=6))
    def test_equals_the_full_rule(self, prefix, body):
        token = prefix + body
        assert classify(token) == full_rule(token)

    def test_every_code_point_alone_and_after_a_letter(self):
        for code in range(0x30000):
            for token in (chr(code), "a" + chr(code)):
                assert classify(token) == full_rule(token), hex(code)


class TestTermValidation:
    def test_frame_needs_valid_polarity(self):
        with pytest.raises(ValueError):
            tz.Term.frame("hail", "up")

    def test_token_kind_checked(self):
        with pytest.raises(ValueError):
            tz.Term.token("emoji")

    def test_word_needs_lemma(self):
        with pytest.raises(ValueError):
            tz.Term(tz.WORD)

    def test_display_names(self):
        assert tz.Term.entity_subj().display() == "E_SUBJ"
        assert tz.Term.entity_obj().display() == "E_OBJ"
        assert tz.Term.entity_other().display() == "E_OTHER"
        assert tz.Term.word("мир").display() == "мир"
        assert tz.Term.frame("одобрить", "positive").display() == "одобрить"
        assert tz.Term.token(tz.NUMBER).display() == tz.NUMBER

    def test_named_constructors_share_equal_terms(self):
        assert tz.Term.word("мир") is tz.Term.word("мир")
        assert tz.Term.entity_subj() is tz.Term.entity_subj()
        assert tz.Term.token(tz.URL) is tz.Term.token(tz.URL)
        frame = tz.Term.frame("одобрить", "positive")
        assert frame is tz.Term.frame("одобрить", "positive")
        assert frame is not tz.Term.frame("одобрить", "negative")
        assert tz.Term.word("мир") is not tz.Term.word("мира")


class TestTermSequenceValidation:
    def test_positions_must_differ(self):
        terms = [tz.Term.entity_subj(), tz.Term.entity_obj()]
        with pytest.raises(ValueError):
            tz.TermSequence(terms, 0, 0)

    def test_masks_must_sit_at_positions(self):
        terms = [tz.Term.entity_subj(), tz.Term.word("x")]
        with pytest.raises(ValueError):
            tz.TermSequence(terms, 0, 1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            tz.TermSequence([], 0, 1)


def build_term_sequence(tokens, mentions, subj_span, obj_span, frames=()):
    """One context's terms as extract_contexts builds them: the
    sentence's terms, then the participant masks."""
    lemmas = [tz.lemmatize(t) for t in tokens]
    terms = tz.sentence_terms(tokens, lemmas, [m[:2] for m in mentions], frames)
    return cp._context_sequence(terms, subj_span, obj_span)


class TestSentenceTerms:
    def test_every_mention_masked_as_other(self):
        terms, positions = tz.sentence_terms(
            ["the", "United", "States", "met", "Cuba"],
            ["the", "united", "states", "met", "cuba"],
            [(1, 3), (4, 5)])
        assert terms == [tz.Term.word("the"), tz.Term.entity_other(),
                         tz.Term.word("met"), tz.Term.entity_other()]
        assert positions == {(1, 3): 1, (4, 5): 3}


class TestBuildTermSequence:
    def test_participants_and_frame(self):
        seq = build_term_sequence(
            ["Russia", "condemns", "NATO"],
            mentions=[(0, 1, "g1"), (2, 3, "g2")],
            subj_span=(0, 1), obj_span=(2, 3),
            frames=[((1, 2), "negative")])
        assert seq.terms == [tz.Term.entity_subj(),
                             tz.Term.frame("condemns", "negative"),
                             tz.Term.entity_obj()]
        assert (seq.subj_pos, seq.obj_pos) == (0, 2)

    def test_plain_words_and_tokens(self):
        seq = build_term_sequence(
            ["A", "said", "hi", ",", "1945", "B"],
            mentions=[(0, 1, "g1"), (5, 6, "g2")],
            subj_span=(0, 1), obj_span=(5, 6))
        assert seq.terms == [
            tz.Term.entity_subj(), tz.Term.word("said"), tz.Term.word("hi"),
            tz.Term.token(tz.PUNCTUATION), tz.Term.token(tz.NUMBER),
            tz.Term.entity_obj()]

    def test_negated_frame_polarity(self):
        frames = lx.match_frames(
            ["сша", "не", "одобрить", "ес"],
            lx.FrameLexicon([lx.FrameEntry(["одобрить"], "positive")]))
        seq = build_term_sequence(
            ["США", "не", "одобрить", "ЕС"],
            mentions=[(0, 1, "g1"), (3, 4, "g2")],
            subj_span=(0, 1), obj_span=(3, 4),
            frames=frames)
        want = lx.apply_negation("positive", "не")
        assert seq.terms[1] == tz.Term.word("не")
        assert seq.terms[2] == tz.Term.frame("одобрить", want)

    def test_multi_token_mention_collapses(self):
        seq = build_term_sequence(
            ["the", "United", "States", "met", "Cuba"],
            mentions=[(1, 3, "g1"), (4, 5, "g2")],
            subj_span=(1, 3), obj_span=(4, 5))
        assert seq.terms == [tz.Term.word("the"), tz.Term.entity_subj(),
                             tz.Term.word("met"), tz.Term.entity_obj()]
        assert (seq.subj_pos, seq.obj_pos) == (1, 3)

    def test_other_mentions_masked(self):
        seq = build_term_sequence(
            ["A", "likes", "B", "near", "C"],
            mentions=[(0, 1, "g1"), (2, 3, "g2"), (4, 5, "g3")],
            subj_span=(0, 1), obj_span=(2, 3))
        assert seq.terms[4] == tz.Term.entity_other()

    def test_multi_word_frame_collapses(self):
        seq = build_term_sequence(
            ["A", "gave", "up", "B"],
            mentions=[(0, 1, "g1"), (3, 4, "g2")],
            subj_span=(0, 1), obj_span=(3, 4),
            frames=[((1, 3), "negative")])
        assert seq.terms == [tz.Term.entity_subj(),
                             tz.Term.frame("gave up", "negative"),
                             tz.Term.entity_obj()]

    def test_frame_overlapping_mention_discarded(self):
        seq = build_term_sequence(
            ["A", "met", "B"],
            mentions=[(0, 1, "g1"), (2, 3, "g2")],
            subj_span=(0, 1), obj_span=(2, 3),
            frames=[((1, 3), "negative")])
        assert seq.terms == [tz.Term.entity_subj(), tz.Term.word("met"),
                             tz.Term.entity_obj()]

    def test_missing_participant_mention(self):
        with pytest.raises(ValueError, match="absent"):
            build_term_sequence(
                ["A", "B"], mentions=[(0, 1, "g1")],
                subj_span=(0, 1), obj_span=(1, 2))

    def test_same_span_for_both_sides(self):
        with pytest.raises(ValueError, match="same mention"):
            build_term_sequence(
                ["A", "B"], mentions=[(0, 1, "g1"), (1, 2, "g2")],
                subj_span=(0, 1), obj_span=(0, 1))

    @pytest.mark.parametrize("trial", range(30))
    def test_masking_completeness(self, trial):
        rng = np.random.default_rng(500 + trial)
        filler = ["мир", "дом", "речь", "и", "в", ",", "42"]
        sentinels = ["ZZENT%d" % i for i in range(5)]
        n_mentions = int(rng.integers(2, 5))
        tokens = []
        mentions = []
        for idx in range(n_mentions):
            for _ in range(int(rng.integers(0, 4))):
                tokens.append(str(rng.choice(filler)))
            width = int(rng.integers(1, 3))
            start = len(tokens)
            tokens.extend([sentinels[idx]] * width)
            mentions.append((start, start + width, "g%d" % idx))
        for _ in range(int(rng.integers(0, 4))):
            tokens.append(str(rng.choice(filler)))
        subj, obj = mentions[0], mentions[1]
        seq = build_term_sequence(tokens, mentions, subj_span=subj[:2], obj_span=obj[:2])

        lowered = {s.lower() for s in sentinels}
        for term in seq.terms:
            if term.kind == tz.WORD:
                assert term.lemma not in lowered
        kinds = [t.kind for t in seq.terms]
        assert kinds.count(tz.ENTITY_SUBJ) == 1
        assert kinds.count(tz.ENTITY_OBJ) == 1
        assert kinds.count(tz.ENTITY_OTHER) == n_mentions - 2
        assert seq.terms[seq.subj_pos].kind == tz.ENTITY_SUBJ
        assert seq.terms[seq.obj_pos].kind == tz.ENTITY_OBJ


def _numbered_sequence(length, subj, obj):
    terms = [tz.Term.word("w%d" % i) for i in range(length)]
    terms[subj] = tz.Term.entity_subj()
    terms[obj] = tz.Term.entity_obj()
    return tz.TermSequence(terms, subj, obj)


class TestCropToWindow:
    def test_short_sequence_unchanged(self):
        seq = _numbered_sequence(5, 1, 3)
        assert tz.crop_to_window(seq, 50) is seq

    def test_documented_window(self):
        seq = _numbered_sequence(60, 10, 20)
        out = tz.crop_to_window(seq, 30)
        assert len(out) == 30
        assert out.terms == seq.terms[0:30]
        assert (out.subj_pos, out.obj_pos) == (10, 20)

    def test_participants_too_far(self):
        seq = _numbered_sequence(60, 0, 40)
        with pytest.raises(tz.ContextDropped):
            tz.crop_to_window(seq, 30)

    def test_window_enumeration(self):
        # the cropped slice must stay contiguous, keep both participants,
        # and have exactly n terms whenever cropping applies
        for length in (8, 15, 31):
            for n in (3, 5, 9, 14):
                for subj in range(length):
                    for obj in range(length):
                        if subj == obj:
                            continue
                        seq = _numbered_sequence(length, subj, obj)
                        span = abs(subj - obj) + 1
                        if span > n and length > n:
                            with pytest.raises(tz.ContextDropped):
                                tz.crop_to_window(seq, n)
                            continue
                        out = tz.crop_to_window(seq, n)
                        assert len(out) == min(length, n)
                        assert out.terms[out.subj_pos].kind == tz.ENTITY_SUBJ
                        assert out.terms[out.obj_pos].kind == tz.ENTITY_OBJ
                        start = subj - out.subj_pos
                        assert out.terms == seq.terms[start:start + len(out)]
                        assert obj - out.obj_pos == start


class TestGroupOf:
    def setup_method(self):
        self.sent = lx.LemmaSet(["хорошо", "в"])
        self.prep = lx.LemmaSet(["в", "на"])

    def test_frame_group(self):
        term = tz.Term.frame("одобрить", "positive")
        assert tz.group_of(term, self.sent, self.prep) == tz.GROUP_FRAMES

    def test_preposition(self):
        assert tz.group_of(tz.Term.word("на"), self.sent, self.prep) == tz.GROUP_PREP

    def test_sentiment_beats_preposition(self):
        assert tz.group_of(tz.Term.word("в"), self.sent, self.prep) == tz.GROUP_SENTIMENT

    def test_frame_beats_sentiment(self):
        term = tz.Term.frame("хорошо", "neutral")
        assert tz.group_of(term, self.sent, self.prep) == tz.GROUP_FRAMES

    def test_everything_else(self):
        assert tz.group_of(tz.Term.word("дом"), self.sent, self.prep) == tz.GROUP_OTHER
        assert tz.group_of(tz.Term.entity_subj(), self.sent, self.prep) == tz.GROUP_OTHER
        assert tz.group_of(tz.Term.token(tz.NUMBER), self.sent, self.prep) == tz.GROUP_OTHER

    def test_no_lexicons_needed(self):
        assert tz.group_of(tz.Term.word("в"), None, None) == tz.GROUP_OTHER
        assert tz.group_of(tz.Term.frame("f", "positive"), None, None) == tz.GROUP_FRAMES
