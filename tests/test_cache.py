"""The context cache that `prepare` writes and `train`/`analyze` read.

Its header holds a table of the distinct terms; each record holds the
table ids of its terms, so reading builds each distinct term once.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from attex import cli
from attex import corpus as cp
from attex import lexicons as lx
from attex import termizer as tz
from test_cli import write_fixture

# Characters that JSON escapes or writes raw (ensure_ascii=False), that
# casefolding changes, and that a line splitter could take for a line end.
TEXT = st.text(alphabet=st.sampled_from(
    list("ab ßςσΣ\"\\\r\n\t\x1c\x85\u2028\u2029é€") + ["\U0001f600"]),
    max_size=6)
POLARITIES = st.sampled_from(lx.POLARITIES)


@st.composite
def terms(draw):
    kind = draw(st.sampled_from((tz.WORD, tz.FRAME, tz.ENTITY_OTHER,
                                 tz.TOKEN)))
    args = (kind,
            draw(TEXT) if kind in (tz.WORD, tz.FRAME) else None,
            draw(POLARITIES) if kind == tz.FRAME else None,
            draw(st.sampled_from(tz.TOKEN_KINDS)) if kind == tz.TOKEN
            else None)
    return tz.Term(*args)


@st.composite
def samples(draw):
    seq = draw(st.lists(terms(), max_size=8))
    subj, obj = sorted(draw(st.lists(st.integers(0, len(seq) + 1),
                                     min_size=2, max_size=2, unique=True)))
    if draw(st.booleans()):
        subj, obj = obj, subj
    for pos, mask in sorted(((subj, tz.Term.entity_subj()),
                             (obj, tz.Term.entity_obj()))):
        seq.insert(pos, mask)
    return cp.ContextSample(draw(TEXT), draw(st.integers(0, 99)),
                            tz.TermSequence(seq, subj, obj),
                            draw(POLARITIES), draw(TEXT), draw(TEXT))


def fields(sample):
    return (sample.doc_id, sample.sentence_idx, sample.label,
            sample.source_group, sample.target_group, sample.terms.terms,
            sample.terms.subj_pos, sample.terms.obj_pos)


def shared(term):
    return tz.Term(term.kind, term.lemma, term.polarity, term.token_kind)


@settings(max_examples=60, deadline=None)
@given(written=st.lists(samples(), max_size=6), sha256=TEXT)
def test_round_trip(tmp_path_factory, written, sha256):
    path = str(tmp_path_factory.mktemp("cache") / "contexts.jsonl")
    cli.write_cache(written, path, sha256)
    read = cli.read_cache(path, sha256)
    assert [fields(s) for s in read] == [fields(s) for s in written]
    assert all(t is shared(t) for s in read for t in s.terms.terms)


def prepared_cache(tmp_path):
    config, out = write_fixture(tmp_path)
    assert cli.main(["prepare", "--config", str(config)]) == 0
    return str(out / "contexts.jsonl")


def test_header_holds_each_distinct_term_once(tmp_path, capsys):
    path = prepared_cache(tmp_path)
    with open(path, encoding="utf-8") as fh:
        header, *rows = (json.loads(line) for line in fh)
    table = [tuple(entry) for entry in header["terms"]]
    samples = cli.read_cache(path)
    assert len(table) == len(set(table))
    assert ({tz.Term(*entry) for entry in table}
            == {t for s in samples for t in s.terms.terms})
    ids = [i for row in rows for i in row[-1]]
    assert len(ids) == sum(len(s.terms) for s in samples) > len(table)
    # First-seen order: the ids, in order of first use, count up from 0.
    assert list(dict.fromkeys(ids)) == list(range(len(table)))


def test_read_builds_each_table_entry_once(tmp_path, capsys, monkeypatch):
    path = prepared_cache(tmp_path)
    with open(path, encoding="utf-8") as fh:
        table = json.loads(fh.readline())["terms"]
    calls = []
    make = tz.Term.__new__

    def counted(cls, *args):
        calls.append(args)
        return make(cls, *args)

    monkeypatch.setattr(tz.Term, "__new__", counted)
    samples = cli.read_cache(path)
    assert calls == [tuple(entry) for entry in table]
    assert len(calls) < sum(len(s.terms) for s in samples)


def test_read_terms_are_the_shared_instances(tmp_path, capsys):
    samples = cli.read_cache(prepared_cache(tmp_path))
    read = [t for s in samples for t in s.terms.terms]
    assert all(t is shared(t) for t in read)
    frames = [t for t in read if t.kind == tz.FRAME]
    assert frames and all(t is tz.Term.frame(t.lemma, t.polarity)
                          for t in frames)
