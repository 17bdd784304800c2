"""End-to-end tests for the command-line interface."""

import itertools
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import per_context as pc
import synth
from attex import cli
from attex import corpus as cp
from attex import lexicons as lx
from attex import model as md
from attex import tensorgrad as tg
from attex import termizer as tz

DOCS = [
    {
        "doc_id": "doc%d" % d,
        "sentences": [["e1", "хвалит", "e2", "в", "целом"],
                      ["e1", "осудил", "e3"]],
        "groups": [["g1", "e1"], ["g2", "e2"], ["g3", "e3"]],
        "mentions": [[0, 0, 1, "g1"], [0, 2, 3, "g2"],
                     [1, 0, 1, "g1"], [1, 2, 3, "g3"]],
    }
    for d in range(3)
]

OPINIONS = [("doc%d" % d, "g1", "g2", "positive") for d in range(3)] + \
           [("doc%d" % d, "g1", "g3", "negative") for d in range(3)]

FRAMES = [("хвалит", "pos"), ("осудил", "neg")]


def write_fixture(tmp_path):
    documents = tmp_path / "documents.jsonl"
    documents.write_text(
        "".join(json.dumps(d, ensure_ascii=False) + "\n" for d in DOCS),
        encoding="utf-8")
    opinions = tmp_path / "opinions.tsv"
    opinions.write_text(
        "".join("\t".join(row) + "\n" for row in OPINIONS), encoding="utf-8")
    frames = tmp_path / "frames.tsv"
    frames.write_text(
        "".join("%s\t%s\n" % row for row in FRAMES), encoding="utf-8")
    sentiment = tmp_path / "sentiment.txt"
    sentiment.write_text("целом\n", encoding="utf-8")
    preps = tmp_path / "preps.txt"
    preps.write_text("в\n", encoding="utf-8")
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text("doc0\ttrain\ndoc1\ttrain\ndoc2\ttest\n",
                        encoding="utf-8")
    out = tmp_path / "out"
    config = tmp_path / "run.conf"
    config.write_text(
        "# experiment settings\n"
        "documents = %s\n"
        "opinions = %s\n"
        "frames = %s\n"
        "sentiment = %s\n"
        "prepositions = %s\n"
        "manifest = %s\n"
        "out = %s\n"
        "encoder = att-blstm\n"
        "n = 8\n"
        "h = 3\n"
        "filters = 3\n"
        "window = 1\n"
        "m = 4\n"
        "polarity_dim = 2\n"
        "use_position = false\n"
        "max_epochs = 20\n"
        "eval_period = 10\n"
        "stop_threshold = 0.99\n"
        "learning_rate = 0.02\n"
        "batch_size = 4\n"
        % (documents, opinions, frames, sentiment, preps, manifest, out),
        encoding="utf-8")
    return config, out


SYNTH_DOCS = 12
SYNTH_SEED = 3


def write_synth_fixture(tmp_path):
    """SYNTH_DOCS synthetic documents as attex input files, every third
    one on the test side, with the synthetic benchmark's settings."""
    corpus = synth.build_corpus(seed=SYNTH_SEED, n_docs=SYNTH_DOCS)

    def write(name, lines):
        path = tmp_path / name
        path.write_text("".join(line + "\n" for line in lines),
                        encoding="utf-8")
        return path

    paths = {
        "documents": write("documents.jsonl", [json.dumps({
            "doc_id": doc.doc_id,
            "sentences": [s.tokens for s in doc.sentences],
            "groups": [[g.group_id] + list(g.surface_variants)
                       for g in doc.synonym_groups],
            "mentions": [[m.sentence_idx, m.token_span[0], m.token_span[1],
                          m.group_id] for m in doc.entity_mentions],
        }, ensure_ascii=False) for doc in corpus.documents]),
        "opinions": write("opinions.tsv", [
            "\t".join((doc.doc_id, o.source_group, o.target_group, o.label))
            for doc in corpus.documents for o in corpus.opinions(doc.doc_id)]),
        "frames": write("frames.tsv", [
            "%s\t%s" % (" ".join(e.lemmas), e.polarity[:3])
            for e in synth.frame_lexicon().entries]),
        "manifest": write("manifest.tsv", [
            "%s\t%s" % (doc.doc_id, "test" if i % 3 == 2 else "train")
            for i, doc in enumerate(corpus.documents)]),
    }
    ecfg = synth.encoder_config("att-blstm")
    tcfg = synth.train_config(SYNTH_SEED)
    settings = dict(paths, out=tmp_path / "out", encoder=ecfg.kind,
                    features=ecfg.feature_mode, seed=tcfg.seed)
    for key in ("n", "h", "filters", "window", "k"):
        settings[key] = getattr(ecfg, key)
    settings.update(synth.embed_options())
    for key in ("max_epochs", "eval_period", "stop_threshold",
                "learning_rate", "optimizer", "batch_size", "neutral_ratio"):
        settings[key] = getattr(tcfg, key)
    config = write("run.conf", ["%s = %s" % item for item in settings.items()])
    return config, tmp_path / "out"


def stdout_pairs(capsys):
    out = capsys.readouterr().out
    pairs = {}
    for line in out.splitlines():
        key, _, value = line.partition("\t")
        pairs[key] = value
    return pairs


class TestConfigParsing:
    def test_comments_blanks_and_spacing(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("# top\n\nseed=4\n  h = 2  # trailing\n")
        values = cli.load_config_file(str(path))
        assert values == {"seed": "4", "h": "2"}

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("learning_rte = 0.1\n")
        with pytest.raises(cli.UsageError, match="learning_rte"):
            cli.load_config_file(str(path))

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("seed = 1\nseed = 2\n")
        with pytest.raises(cli.UsageError, match="duplicate"):
            cli.load_config_file(str(path))

    def test_missing_equals_rejected(self, tmp_path):
        path = tmp_path / "c.conf"
        path.write_text("seed 4\n")
        with pytest.raises(cli.UsageError):
            cli.load_config_file(str(path))

    def test_bad_int_rejected(self):
        with pytest.raises(cli.UsageError):
            cli.ExperimentConfig({"seed": "four"})

    def test_bad_bool_rejected(self):
        with pytest.raises(cli.UsageError):
            cli.ExperimentConfig({"use_position": "maybe"})

    def test_defaults(self):
        cfg = cli.ExperimentConfig({})
        assert cfg.seed == 0
        assert cfg.mode == "cv3"

    def test_missing_path_is_data_error(self, tmp_path):
        from attex.errors import DataError
        with pytest.raises(DataError):
            cli.ExperimentConfig({"documents": str(tmp_path / "absent.jsonl")})


class TestSettingRoutes:
    # A value other than the default for every setting but the paths.
    VALUES = {
        "encoder": "att-cnn", "features": "att-ef", "n": 9, "h": 4,
        "filters": 5, "window": 2, "k": 4,
        "m": 6, "polarity_dim": 3, "use_position": "true", "position_dim": 2,
        "max_distance": 7,
        "max_epochs": 40, "eval_period": 20, "stop_threshold": 0.5,
        "learning_rate": 0.25, "optimizer": "sgd", "batch_size": 7,
        "neutral_ratio": 1.5, "seed": 11,
        "mode": "traintest", "scope": "collection", "out": "o",
        "cache": "c.jsonl", "gradcheck_trials": 2,
    }

    def test_every_setting_reaches_its_target(self, tmp_path, monkeypatch):
        values = dict(self.VALUES)
        for key in cli._PATH_KEYS:
            values[key] = str(tmp_path / key)
            (tmp_path / key).write_text("x\n")
        assert sorted(values) == sorted(cli.SETTINGS)
        config = tmp_path / "c.conf"
        config.write_text("".join("%s = %s\n" % kv for kv in values.items()))
        cfg = cli.ExperimentConfig(cli.load_config_file(str(config)))

        ecfg = cfg.encoder_config("test")
        assert {s: getattr(ecfg, s) for s in ecfg.__slots__} == {
            "kind": "att-cnn", "feature_mode": "att-ef", "n": 9, "h": 4,
            "filters": 5, "window": 2, "k": 4}
        assert cfg.embed_options(pretrained=False) == {
            "m": 6, "polarity_dim": 3, "use_position": True,
            "position_dim": 2, "max_distance": 7}
        tcfg = cfg.train_config()
        assert {s: getattr(tcfg, s) for s in tcfg.__slots__} == {
            "max_epochs": 40, "eval_period": 20, "stop_threshold": 0.5,
            "learning_rate": 0.25, "optimizer": "sgd", "batch_size": 7,
            "neutral_ratio": 1.5, "seed": 11}
        assert (cfg.seed, cfg.mode, cfg.scope, cfg.out, cfg.cache) == (
            11, "traintest", "collection", "o", "c.jsonl")
        for key in cli._PATH_KEYS:
            assert cfg.get(key) == str(tmp_path / key)
        calls = []
        monkeypatch.setattr(cli.md, "gradient_suite",
                            lambda trials, seed: calls.append(trials) or {})
        assert cli.cmd_gradcheck(cfg) == 0
        assert calls == [2]

    def test_readme_table_names_every_setting(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir,
                              "README.md")
        with open(readme, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        start = lines.index("| key | type | default | sets |") + 2
        rows = itertools.takewhile(lambda line: line.startswith("| `"),
                                   lines[start:])
        keys = [row.split("`")[1] for row in rows]
        assert sorted(keys) == sorted(cli.SETTINGS)


class TestUsageErrors:
    def test_no_command(self):
        assert cli.main([]) == 1

    def test_unknown_command(self):
        assert cli.main(["transmogrify"]) == 1

    def test_bad_flag_value(self):
        assert cli.main(["train", "--encoder", "transformer"]) == 1

    def test_missing_encoder_setting(self, tmp_path):
        config, _ = write_fixture(tmp_path)
        lines = [l for l in config.read_text().splitlines()
                 if not l.startswith("encoder")]
        config.write_text("\n".join(lines) + "\n")
        assert cli.main(["cv", "--config", str(config)]) == 1

    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == 0


class TestPrepare:
    def test_counts_and_cache(self, tmp_path, capsys):
        config, out = write_fixture(tmp_path)
        assert cli.main(["prepare", "--config", str(config)]) == 0
        pairs = stdout_pairs(capsys)
        assert pairs["seed"] == "0"
        assert pairs["documents"] == "3"
        assert pairs["opinions_annotated"] == "6"
        cache = out / "contexts.jsonl"
        assert cache.exists()
        samples = cli.read_cache(str(cache))
        assert len(samples) == int(pairs["contexts"])

        corpus = cp.load_corpus(str(tmp_path / "documents.jsonl"),
                                str(tmp_path / "opinions.tsv"))
        frame_lex = lx.load_frame_lexicon(str(tmp_path / "frames.tsv"))
        expected = sum(
            len(cp.extract_contexts(doc,
                                    cp.augment_neutral(
                                        doc, corpus.opinions(doc.doc_id)),
                                    frame_lex))
            for doc in corpus.documents)
        assert len(samples) == expected

    def test_neutral_annotation_is_data_error(self, tmp_path, capsys):
        # A neutral opinion is an augmented pair, never an annotated one.
        config, out = write_fixture(tmp_path)
        opinions = tmp_path / "opinions.tsv"
        opinions.write_text("doc0\tg1\tg2\tpositive\n"
                            "doc0\tg1\tg3\tneutral\n", encoding="utf-8")
        assert cli.main(["prepare", "--config", str(config)]) == 2
        assert capsys.readouterr().err == (
            "data error: %s:2: annotated opinions cannot be neutral\n"
            % opinions)
        assert not (out / "contexts.jsonl").exists()

    def test_rerun_byte_identical(self, tmp_path, capsys):
        config, out = write_fixture(tmp_path)
        assert cli.main(["prepare", "--config", str(config)]) == 0
        first = (out / "contexts.jsonl").read_bytes()
        assert cli.main(["prepare", "--config", str(config)]) == 0
        assert (out / "contexts.jsonl").read_bytes() == first

    def test_cache_roundtrip_preserves_terms(self, tmp_path, capsys):
        config, out = write_fixture(tmp_path)
        assert cli.main(["prepare", "--config", str(config)]) == 0
        samples = cli.read_cache(str(out / "contexts.jsonl"))
        kinds = {t.kind for s in samples for t in s.terms.terms}
        assert tz.FRAME in kinds
        assert tz.ENTITY_SUBJ in kinds
        for sample in samples:
            seq = sample.terms
            assert seq.terms[seq.subj_pos].kind == tz.ENTITY_SUBJ
            assert seq.terms[seq.obj_pos].kind == tz.ENTITY_OBJ

    def test_cached_contexts_share_terms(self, tmp_path, capsys):
        config, out = write_fixture(tmp_path)
        assert cli.main(["prepare", "--config", str(config)]) == 0
        samples = cli.read_cache(str(out / "contexts.jsonl"))
        praised = [t for s in samples for t in s.terms.terms
                   if t.lemma == "хвалит"]
        assert len(praised) >= 2
        assert all(t is tz.Term.frame("хвалит", lx.POSITIVE)
                   for t in praised)
        subjects = [s.terms.terms[s.terms.subj_pos] for s in samples]
        assert all(t is tz.Term.entity_subj() for t in subjects)

    # The header's term table: [kind, lemma, polarity, token_kind].
    @pytest.mark.parametrize("term", [
        ["word", None, None, None],
        ["frame", "x", "sideways", None],
        ["nonsense", None, None, None],
        ["word", ["unhashable"], None, None],
        ["word", "x", None],
        ["word", "x", None, None, None],
        {"kind": "word", "lemma": "x"},
        "word",
    ])
    def test_bad_cached_term_is_data_error(self, tmp_path, capsys, term):
        config, out = write_fixture(tmp_path)
        assert cli.main(["prepare", "--config", str(config)]) == 0
        cache = out / "contexts.jsonl"
        lines = cache.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        header["terms"][-1] = term
        lines[0] = json.dumps(header, ensure_ascii=False)
        cache.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["analyze", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(
            "data error: %s:1: bad cache record: " % cache)

    @pytest.mark.parametrize("table", ["word", 7, None])
    def test_bad_term_table_is_data_error(self, tmp_path, capsys, table):
        config, out = prepared(tmp_path, capsys)
        cache = out / "contexts.jsonl"
        lines = cache.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        if table is None:
            del header["terms"]
        else:
            header["terms"] = table
        lines[0] = json.dumps(header, ensure_ascii=False)
        cache.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli.main(["analyze", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(
            "data error: %s:1: bad cache record: " % cache)

    # Each case rewrites the last record, so the error names its line.
    @pytest.mark.parametrize("case", [
        "id-out-of-range", "id-negative", "id-true", "id-float", "id-string",
        "ids-not-array", "short-record", "long-record", "object-record",
        "doc-id-array", "source-array", "target-object", "sentence-true",
        "sentence-string",
    ])
    def test_bad_cached_record_is_data_error(self, tmp_path, capsys, case):
        config, out = prepared(tmp_path, capsys)
        cache = out / "contexts.jsonl"
        lines = cache.read_text(encoding="utf-8").splitlines()
        size = len(json.loads(lines[0])["terms"])
        row = json.loads(lines[-1])
        bad_id = {"id-out-of-range": size, "id-negative": -1, "id-true": True,
                  "id-float": 1.0, "id-string": "0"}
        if case in bad_id:
            # Not a participant's mask, whose loss alone fails the record.
            j = min({0, 1, 2} - {row[5], row[6]})
            row[-1][j] = bad_id[case]
        elif case == "ids-not-array":
            row[-1] = 0
        elif case == "short-record":
            row = row[:-1]
        elif case == "long-record":
            row.append(0)
        elif case == "doc-id-array":
            row[0] = [row[0]]
        elif case == "source-array":
            row[3] = [row[3]]
        elif case == "target-object":
            row[4] = {row[4]: 1}
        elif case.startswith("sentence-"):
            row[1] = True if case == "sentence-true" else str(row[1])
        else:
            row = dict(zip("abcdefgh", row))
        lines[-1] = json.dumps(row, ensure_ascii=False)
        cache.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert cli.main(["analyze", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(
            "data error: %s:%d: bad cache record: " % (cache, len(lines)))

    def test_missing_lexicon_fails_before_work(self, tmp_path, capsys):
        config, out = write_fixture(tmp_path)
        text = config.read_text().replace(
            "frames = %s" % (tmp_path / "frames.tsv"),
            "frames = %s" % (tmp_path / "missing.tsv"))
        config.write_text(text)
        assert cli.main(["prepare", "--config", str(config)]) == 2
        assert not (out / "contexts.jsonl").exists()

    @pytest.mark.parametrize("token", ["", " ", "\u2028", "a\nb", "a\rb"])
    def test_token_that_breaks_vocab_line_is_data_error(self, tmp_path,
                                                        capsys, token):
        config, out = write_fixture(tmp_path)
        docs = [dict(d) for d in DOCS]
        docs[1]["sentences"] = [["e1", "хвалит", "e2", token, "целом"],
                                DOCS[1]["sentences"][1]]
        path = tmp_path / "documents.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in docs),
                        encoding="utf-8")
        assert cli.main(["prepare", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(
            "data error: %s:2: token " % path)
        assert not (out / "contexts.jsonl").exists()

    def test_failed_rewrite_keeps_previous_cache(self, tmp_path, capsys,
                                                 monkeypatch):
        config, out = write_fixture(tmp_path)
        assert cli.main(["prepare", "--config", str(config)]) == 0
        first = (out / "contexts.jsonl").read_bytes()
        to_row = cli._sample_row
        calls = []

        def failing_to_row(sample, index_of):
            calls.append(sample)
            if len(calls) == 3:
                raise OSError("No space left on device")
            return to_row(sample, index_of)

        monkeypatch.setattr(cli, "_sample_row", failing_to_row)
        assert cli.main(["prepare", "--config", str(config)]) == 2
        assert "No space left on device" in capsys.readouterr().err
        assert (out / "contexts.jsonl").read_bytes() == first
        assert sorted(p.name for p in out.iterdir()) == ["contexts.jsonl"]

    def test_cache_matches_samples_for_docs(self, tmp_path, capsys):
        config, out = write_fixture(tmp_path)
        assert cli.main(["prepare", "--config", str(config)]) == 0
        corpus = cp.load_corpus(str(tmp_path / "documents.jsonl"),
                                str(tmp_path / "opinions.tsv"))
        frame_lex = lx.load_frame_lexicon(str(tmp_path / "frames.tsv"))

        def fields(samples):
            return [(s.doc_id, s.sentence_idx, s.label, s.source_group,
                     s.target_group, s.terms.terms, s.terms.subj_pos,
                     s.terms.obj_pos)
                    for s in samples]

        # n=2 drops every context, n=3 crops the longer sentence.
        for n in (2, 3, 8):
            cached, cached_dropped = md.prepare_samples(
                cli.read_cache(str(out / "contexts.jsonl")), n)
            direct, direct_dropped = md.samples_for_docs(
                corpus.documents, corpus, frame_lex, n, tz.lemmatize)
            assert fields(cached) == fields(direct)
            assert cached_dropped == direct_dropped


def append_far_document(tmp_path):
    """Add to the fixture a fourth document whose participants stand 11
    terms apart, more than n = 8 can hold: its pair and the reverse
    neutral one drop."""
    far = {"doc_id": "doc3",
           "sentences": [["e1"] + ["слово"] * 10 + ["e2"]],
           "groups": [["g1", "e1"], ["g2", "e2"]],
           "mentions": [[0, 0, 1, "g1"], [0, 11, 12, "g2"]]}
    with open(tmp_path / "documents.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps(far, ensure_ascii=False) + "\n")
    with open(tmp_path / "opinions.tsv", "a", encoding="utf-8") as fh:
        fh.write("doc3\tg1\tg2\tpositive\n")


def prepared(tmp_path, capsys):
    config, out = write_fixture(tmp_path)
    assert cli.main(["prepare", "--config", str(config)]) == 0
    capsys.readouterr()
    return config, out


def spoil_second_line(path, junk=b"\xff"):
    """Put junk at the start of line 2 of path."""
    data = path.read_bytes()
    cut = data.index(b"\n") + 1
    path.write_bytes(data[:cut] + junk + data[cut:])


class TestUndecodableInput:
    @pytest.mark.parametrize("name", ["documents.jsonl", "frames.tsv",
                                      "opinions.tsv"])
    def test_prepare_exits_two(self, tmp_path, capsys, name):
        config, out = write_fixture(tmp_path)
        path = tmp_path / name
        spoil_second_line(path)
        assert cli.main(["prepare", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: %s:2: " % path)
        assert "UTF-8" in err

    @pytest.mark.parametrize("command,name", [
        ("eval", "manifest.tsv"),
        ("analyze", "sentiment.txt"),
        ("train", "out/contexts.jsonl"),
        ("analyze", "out/contexts.jsonl"),
        ("analyze", "out/vocab.txt"),
        ("eval", "out/model.ckpt"),
    ])
    def test_trained_run_exits_two(self, tmp_path, capsys, command, name):
        config, out = prepared(tmp_path, capsys)
        assert cli.main(["train", "--config", str(config),
                         "--mode", "traintest"]) == 0
        capsys.readouterr()
        path = tmp_path / name
        spoil_second_line(path)
        assert cli.main([command, "--config", str(config),
                         "--mode", "traintest"]) == 2
        assert capsys.readouterr().err.startswith(
            "data error: %s:2: " % path)

    def test_config_is_usage_error(self, tmp_path, capsys):
        config, out = write_fixture(tmp_path)
        spoil_second_line(config)
        assert cli.main(["prepare", "--config", str(config)]) == 1
        assert "%s:2: " % config in capsys.readouterr().err


class TestRunawayNesting:
    NESTED = b"[" * 5000 + b"\n"

    def test_documents(self, tmp_path, capsys):
        config, out = write_fixture(tmp_path)
        path = tmp_path / "documents.jsonl"
        spoil_second_line(path, self.NESTED)
        assert cli.main(["prepare", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(
            "data error: %s:2: invalid JSON: " % path)

    @pytest.mark.parametrize("command", ["train", "analyze"])
    def test_cache(self, tmp_path, capsys, command):
        config, out = prepared(tmp_path, capsys)
        path = out / "contexts.jsonl"
        spoil_second_line(path, self.NESTED)
        assert cli.main([command, "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(
            "data error: %s:2: invalid JSON: " % path)


class TestStaleCache:
    """train, eval and analyze refuse a cache whose input files changed
    after prepare; the cache's first line holds the inputs' sha256."""

    RUN = ["--mode", "traintest"]

    def refused(self, capsys, config, out,
                commands=("train", "eval", "analyze")):
        for command in commands:
            capsys.readouterr()
            assert cli.main([command, "--config", str(config)]
                            + self.RUN) == 2
            assert capsys.readouterr().err == (
                "data error: %s:1: cache was prepared from other inputs; "
                "run prepare again\n" % (out / "contexts.jsonl"))

    def trained(self, tmp_path, capsys):
        config, out = prepared(tmp_path, capsys)
        assert cli.main(["train", "--config", str(config)] + self.RUN) == 0
        return config, out

    def test_swapped_frame_words(self, tmp_path, capsys):
        config, out = self.trained(tmp_path, capsys)
        documents = tmp_path / "documents.jsonl"
        text = documents.read_text(encoding="utf-8")
        documents.write_text(text.replace("хвалит", "@")
                             .replace("осудил", "хвалит")
                             .replace("@", "осудил"), encoding="utf-8")
        self.refused(capsys, config, out)
        assert cli.main(["prepare", "--config", str(config)]) == 0
        for command in ("train", "eval", "analyze"):
            assert cli.main([command, "--config", str(config)]
                            + self.RUN) == 0

    @pytest.mark.parametrize("name,old,new", [
        ("opinions.tsv", "doc2\tg1\tg3\tnegative\n", ""),
        ("frames.tsv", "осудил\tneg", "осудил\tpos"),
        ("run.conf", "opinions = ", "# opinions = "),
    ])
    def test_changed_or_unset_input(self, tmp_path, capsys, name, old, new):
        config, out = self.trained(tmp_path, capsys)
        path = tmp_path / name
        text = path.read_text(encoding="utf-8")
        assert old in text
        path.write_text(text.replace(old, new), encoding="utf-8")
        self.refused(capsys, config, out)

    def test_cache_without_header(self, tmp_path, capsys):
        config, out = self.trained(tmp_path, capsys)
        cache = out / "contexts.jsonl"
        lines = cache.read_text(encoding="utf-8").splitlines(keepends=True)
        header = json.loads(lines[0])
        assert list(header) == ["inputs_sha256", "format", "terms"]
        assert len(header["inputs_sha256"]) == 64
        assert header["format"] == 2
        cache.write_text("".join(lines[1:]), encoding="utf-8")
        self.refused(capsys, config, out)

    def test_parent_format_cache(self, tmp_path, capsys):
        # The format before the term table: a header holding only the
        # sha256, then one JSON object per term in each record.
        config, out = self.trained(tmp_path, capsys)
        cache = out / "contexts.jsonl"
        header = json.loads(cache.read_text(encoding="utf-8").splitlines()[0])
        lines = [json.dumps({"inputs_sha256": header["inputs_sha256"]})]
        for sample in cli.read_cache(str(cache)):
            terms = [{key: value for key, value in (
                ("kind", t.kind), ("lemma", t.lemma),
                ("polarity", t.polarity), ("token", t.token_kind))
                if value is not None} for t in sample.terms.terms]
            lines.append(json.dumps(
                {"doc_id": sample.doc_id,
                 "sentence_idx": sample.sentence_idx,
                 "label": sample.label, "source": sample.source_group,
                 "target": sample.target_group,
                 "subj_pos": sample.terms.subj_pos,
                 "obj_pos": sample.terms.obj_pos, "terms": terms},
                ensure_ascii=False, sort_keys=True, separators=(",", ":")))
        cache.write_text("".join(line + "\n" for line in lines),
                         encoding="utf-8")
        self.refused(capsys, config, out)

    @pytest.mark.parametrize("version", [None, 1, 3, "2", True])
    def test_other_format_version(self, tmp_path, capsys, version):
        config, out = self.trained(tmp_path, capsys)
        cache = out / "contexts.jsonl"
        lines = cache.read_text(encoding="utf-8").splitlines(keepends=True)
        header = json.loads(lines[0])
        if version is None:
            del header["format"]
        else:
            header["format"] = version
        lines[0] = json.dumps(header, ensure_ascii=False) + "\n"
        cache.write_text("".join(lines), encoding="utf-8")
        self.refused(capsys, config, out)

    def documents_directory(self, tmp_path, capsys):
        """The fixture with documents naming the directory that holds
        documents.jsonl and opinions.tsv, and opinions unset; prepare,
        train and analyze all run on it."""
        config, out = write_fixture(tmp_path)
        text = config.read_text(encoding="utf-8")
        config.write_text(
            text.replace("documents = %s" % (tmp_path / "documents.jsonl"),
                         "documents = %s" % tmp_path)
            .replace("opinions = ", "# opinions = "), encoding="utf-8")
        for command in ("prepare", "train", "analyze"):
            assert cli.main([command, "--config", str(config)]
                            + ([] if command == "prepare" else self.RUN)) == 0
        return config, out

    def test_documents_directory(self, tmp_path, capsys):
        self.documents_directory(tmp_path, capsys)

    def test_opinions_found_in_documents_directory(self, tmp_path, capsys):
        # The sha256 covers the opinions file that load_corpus picks up.
        config, out = self.documents_directory(tmp_path, capsys)
        opinions = tmp_path / "opinions.tsv"
        text = opinions.read_text(encoding="utf-8")
        opinions.write_text(text.replace("doc2\tg1\tg3\tnegative\n", ""),
                            encoding="utf-8")
        self.refused(capsys, config, out)

    def test_line_endings_and_blank_lines_do_not_count(self, tmp_path,
                                                       capsys):
        # The sha256 covers the lines that read_lines yields.
        config, out = self.trained(tmp_path, capsys)
        documents = tmp_path / "documents.jsonl"
        text = documents.read_text(encoding="utf-8")
        documents.write_bytes(("\n" + text.replace("\n", "\r\n\n"))
                              .encode("utf-8"))
        for command in ("train", "analyze"):
            assert cli.main([command, "--config", str(config)]
                            + self.RUN) == 0

    @pytest.mark.parametrize("command", ["train", "analyze"])
    def test_documents_setting_is_required(self, tmp_path, capsys, command):
        config, out = self.trained(tmp_path, capsys)
        text = config.read_text(encoding="utf-8")
        config.write_text(text.replace("documents = ", "# documents = "),
                          encoding="utf-8")
        capsys.readouterr()
        assert cli.main([command, "--config", str(config)]) == 1
        assert "requires the 'documents' setting" in capsys.readouterr().err


class TestTrain:
    def test_artifacts_and_echo(self, tmp_path, capsys):
        config, out = prepared(tmp_path, capsys)
        assert cli.main(["train", "--config", str(config)]) == 0
        pairs = stdout_pairs(capsys)
        assert pairs["seed"] == "0"
        assert (out / "model.ckpt").exists()
        assert (out / "vocab.txt").exists()
        lines = (out / "history.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_f1,loss"
        epochs = [int(l.split(",")[0]) for l in lines[1:]]
        assert epochs == [10 * (i + 1) for i in range(len(epochs))]

    def test_neutral_ratio_that_keeps_nothing_fails(self, tmp_path, capsys):
        # No annotated opinion: every context is a neutral pair, and a
        # neutral cap of twice the sentiment count, 0, drops them all.
        config, out = write_fixture(tmp_path)
        (tmp_path / "opinions.tsv").write_text("", encoding="utf-8")
        with open(config, "a", encoding="utf-8") as fh:
            fh.write("neutral_ratio = 2.0\n")
        assert cli.main(["prepare", "--config", str(config)]) == 0
        assert stdout_pairs(capsys)["contexts_neutral"] == "12"
        assert cli.main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: neutral_ratio ")
        assert err.count("\n") == 1
        assert not (out / "model.ckpt").exists()
        assert not (out / "history.csv").exists()

    def test_train_without_cache_fails(self, tmp_path, capsys):
        config, out = write_fixture(tmp_path)
        assert cli.main(["train", "--config", str(config)]) == 2

    def test_rerun_byte_identical(self, tmp_path, capsys):
        config, out = prepared(tmp_path, capsys)
        assert cli.main(["train", "--config", str(config)]) == 0
        first = ((out / "model.ckpt").read_bytes(),
                 (out / "history.csv").read_bytes())
        assert cli.main(["train", "--config", str(config)]) == 0
        second = ((out / "model.ckpt").read_bytes(),
                  (out / "history.csv").read_bytes())
        assert first == second

    def test_flag_overrides_config_encoder(self, tmp_path, capsys):
        config, out = prepared(tmp_path, capsys)
        assert cli.main(["train", "--config", str(config),
                         "--encoder", "cnn"]) == 0
        names = set(tg.load_checkpoint(str(out / "model.ckpt")))
        assert any(name.startswith("cnn.") for name in names)
        assert not any(name.startswith("attblstm.") for name in names)

    def test_traintest_mode_trains_on_train_docs_only(self, tmp_path, capsys):
        config, out = prepared(tmp_path, capsys)
        assert cli.main(["train", "--config", str(config),
                         "--mode", "traintest"]) == 0
        pairs = stdout_pairs(capsys)
        all_samples = cli.read_cache(str(out / "contexts.jsonl"))
        train_count = sum(1 for s in all_samples if s.doc_id != "doc2")
        assert int(pairs["contexts"]) == train_count

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_manifest_that_misses_a_document_is_data_error(
            self, tmp_path, capsys, command):
        # train and eval split the configured documents by the same
        # manifest check, so both reject it with the same message.
        config, out = prepared(tmp_path, capsys)
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("doc0\ttrain\ndoc2\ttest\ndoc9\ttrain\n",
                            encoding="utf-8")
        assert cli.main([command, "--config", str(config),
                         "--mode", "traintest"]) == 2
        assert capsys.readouterr().err == (
            "data error: %s: manifest missing doc_id 'doc1'\n" % manifest)
        assert not (out / "model.ckpt").exists()

    def test_traintest_agrees_with_run_train_test(self, tmp_path, capsys):
        # The CLI's prepare, train and eval and the library's
        # run_train_test build, train and score the same model.
        config, out = write_synth_fixture(tmp_path)
        run = ["--config", str(config), "--mode", "traintest"]
        for command in ("prepare", "train", "eval"):
            assert cli.main([command] + run) == 0
        evaluated = stdout_pairs(capsys)

        corpus = cp.load_corpus(str(tmp_path / "documents.jsonl"),
                                str(tmp_path / "opinions.tsv"))
        manifest = cp.load_split_manifest(str(tmp_path / "manifest.tsv"))
        res = md.run_train_test(
            corpus, manifest, synth.encoder_config("att-blstm"),
            synth.train_config(SYNTH_SEED),
            frame_lexicon=lx.load_frame_lexicon(str(tmp_path / "frames.tsv")),
            embed_options=synth.embed_options())
        assert 0.0 < res.f1 < 1.0
        arrays = tg.load_checkpoint(str(out / "model.ckpt"))
        params = res.model.parameters()
        assert list(arrays) == [p.name for p in params]
        for p in params:
            assert np.array_equal(arrays[p.name], p.data), p.name
        rows = (out / "history.csv").read_text().splitlines()[1:]
        assert [(int(e), float(f1), float(loss))
                for e, f1, loss in (row.split(",") for row in rows)] \
            == res.history.rows
        assert evaluated["f1_per_document"] == repr(res.f1)


class TestEval:
    def test_eval_after_train(self, tmp_path, capsys):
        config, out = prepared(tmp_path, capsys)
        assert cli.main(["train", "--config", str(config),
                         "--mode", "traintest"]) == 0
        capsys.readouterr()
        assert cli.main(["eval", "--config", str(config),
                         "--mode", "traintest"]) == 0
        pairs = stdout_pairs(capsys)
        assert pairs["test_documents"] == "1"
        for key in ("f1_per_document", "f1_collection"):
            assert 0.0 <= float(pairs[key]) <= 1.0

    def test_eval_requires_traintest(self, tmp_path, capsys):
        config, out = prepared(tmp_path, capsys)
        assert cli.main(["eval", "--config", str(config)]) == 1

    def test_eval_without_checkpoint_fails(self, tmp_path, capsys):
        config, out = prepared(tmp_path, capsys)
        assert cli.main(["eval", "--config", str(config),
                         "--mode", "traintest"]) == 2

    def test_mismatched_checkpoint_is_data_error(self, tmp_path, capsys):
        config, out = prepared(tmp_path, capsys)
        assert cli.main(["train", "--config", str(config),
                         "--mode", "traintest"]) == 0
        assert cli.main(["eval", "--config", str(config),
                         "--mode", "traintest", "--encoder", "cnn"]) == 2

    def test_eval_reads_the_cache(self, tmp_path, capsys, monkeypatch):
        config, out = prepared(tmp_path, capsys)
        run = ["--config", str(config), "--mode", "traintest"]
        assert cli.main(["train"] + run) == 0
        capsys.readouterr()
        assert cli.main(["eval"] + run) == 0
        expected = capsys.readouterr().out

        def extract(*args):
            raise AssertionError("eval extracted contexts")

        monkeypatch.setattr(cp, "extract_contexts", extract)
        assert cli.main(["eval"] + run) == 0
        assert capsys.readouterr().out == expected

    def test_test_side_cropped_out(self, tmp_path, capsys):
        # A test side without a context that fits n scores F1 0; it is no
        # data error, unlike a cache that train or analyze cannot use.
        config, out = write_fixture(tmp_path)
        append_far_document(tmp_path)
        (tmp_path / "manifest.tsv").write_text(
            "doc0\ttrain\ndoc1\ttrain\ndoc2\ttrain\ndoc3\ttest\n",
            encoding="utf-8")
        run = ["--config", str(config), "--mode", "traintest"]
        for command in ("prepare", "train", "eval"):
            assert cli.main([command] + run) == 0
        pairs = stdout_pairs(capsys)
        assert pairs["test_documents"] == "1"
        assert pairs["test_contexts"] == "0"
        assert pairs["dropped"] == "2"
        assert pairs["f1_per_document"] == "0.0"


class TestCv:
    def test_folds_csv_and_determinism(self, tmp_path, capsys):
        config, out = write_fixture(tmp_path)
        assert cli.main(["cv", "--config", str(config)]) == 0
        pairs = stdout_pairs(capsys)
        assert pairs["seed"] == "0"
        lines = (out / "folds.csv").read_text().splitlines()
        assert lines[0] == "fold,f1"
        assert len(lines) == 4
        for fold in range(3):
            assert (out / ("history_fold%d.csv" % fold)).exists()
        first = (out / "folds.csv").read_bytes()
        assert cli.main(["cv", "--config", str(config)]) == 0
        assert (out / "folds.csv").read_bytes() == first

    def test_fewer_documents_than_folds_is_data_error(self, tmp_path,
                                                       capsys):
        config, out = write_fixture(tmp_path)
        path = tmp_path / "documents.jsonl"
        path.write_text("".join(json.dumps(d) + "\n" for d in DOCS[:2]),
                        encoding="utf-8")
        (tmp_path / "opinions.tsv").write_text(
            "".join("\t".join(row) + "\n" for row in OPINIONS
                    if row[0] != "doc2"), encoding="utf-8")
        assert cli.main(["cv", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(
            "data error: %s: cv needs at least 3 documents, got 2" % path)
        assert not out.exists()

    def test_seed_flag_overrides_default(self, tmp_path, capsys):
        config, out = write_fixture(tmp_path)
        assert cli.main(["cv", "--config", str(config),
                         "--seed", "5"]) == 0
        pairs = stdout_pairs(capsys)
        assert pairs["seed"] == "5"
        assert (out / "folds.csv").exists()


    def test_dropped_counts_each_cropped_out_context_once(self, tmp_path,
                                                         capsys):
        config, _ = write_fixture(tmp_path)
        append_far_document(tmp_path)
        corpus = cp.load_corpus(str(tmp_path / "documents.jsonl"),
                                str(tmp_path / "opinions.tsv"))
        _, dropped = md.samples_for_docs(
            corpus.documents, corpus,
            lx.load_frame_lexicon(str(tmp_path / "frames.tsv")), 8,
            tz.lemmatize)
        assert dropped > 0
        assert cli.main(["cv", "--config", str(config)]) == 0
        assert stdout_pairs(capsys)["dropped"] == str(dropped)


def cv_in_subprocess(config, cpus):
    """`attex cv --config config` in a new interpreter that sees `cpus`
    usable CPUs, its stdout a pipe: (exit code, stdout, stderr)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import os, sys; os.sched_getaffinity = lambda pid: set(range(%d))"
            "; from attex import cli; sys.exit(cli.main(sys.argv[1:]))" % cpus)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)  # stdout, a pipe, is buffered
    done = subprocess.run(
        [sys.executable, "-c", code, "cv", "--config", str(config)],
        capture_output=True, text=True, timeout=300, env=env)
    return done.returncode, done.stdout, done.stderr


class TestCvProcesses:
    """`attex cv` gives the same files and stdout at any CPU count."""

    def test_outputs_identical(self, tmp_path):
        config, out = write_fixture(tmp_path)
        runs = []
        for cpus in (1, 3):
            code, stdout, _ = cv_in_subprocess(config, cpus)
            assert code == 0
            keys = [line.split("\t")[0] for line in stdout.splitlines()]
            assert keys == ["seed", "dropped", "fold0_f1", "fold1_f1",
                            "fold2_f1", "mean_f1"]
            runs.append((stdout, {path.name: path.read_bytes()
                                  for path in sorted(out.iterdir())}))
        assert runs[0] == runs[1]
        assert sorted(runs[0][1]) == ["folds.csv", "history_fold0.csv",
                                      "history_fold1.csv",
                                      "history_fold2.csv"]

    def test_numeric_failure_exits_3_once(self, tmp_path):
        config, out = write_fixture(tmp_path)
        config.write_text(config.read_text(encoding="utf-8").replace(
            "learning_rate = 0.02", "learning_rate = inf")
            + "optimizer = sgd\n", encoding="utf-8")
        failures = []
        for cpus in (1, 3):
            code, stdout, stderr = cv_in_subprocess(config, cpus)
            assert code == 3
            assert stdout == ""
            # One line, with no numpy warning before it.
            assert stderr.startswith("numeric failure: ")
            assert stderr.count("\n") == 1 and stderr.endswith("\n")
            failures.append(stderr)
        assert failures[0] == failures[1]
        assert not out.exists()


class TestPerDirectionCheckpoint:
    @pytest.mark.parametrize("command", ["eval", "analyze"])
    def test_refused(self, tmp_path, capsys, command):
        # A checkpoint that stores one (w, u, b) cell per LSTM direction,
        # as attex did before `enc.Lstm`, no longer loads.
        config, out = prepared(tmp_path, capsys)
        run = ["--config", str(config), "--mode", "traintest"]
        assert cli.main(["train"] + run) == 0
        capsys.readouterr()
        arrays = tg.load_checkpoint(str(out / "model.ckpt"))
        lstm = [arrays.pop("attblstm." + k) for k in "wub"]
        params = [tg.Parameter(a, name) for name, a in arrays.items()]
        for d, side in enumerate(("fwd", "bwd")):
            w, u, b = pc.cell_views(*lstm, d)
            name = "attblstm.%s." % side
            params += [tg.Parameter(w.reshape(len(w), -1), name + "w"),
                       tg.Parameter(u, name + "u"),
                       tg.Parameter(b.reshape(-1), name + "b")]
        tg.save_checkpoint(str(out / "model.ckpt"), params)
        assert cli.main([command] + run) == 2
        assert capsys.readouterr() == (
            "", "data error: checkpoint is missing parameter 'attblstm.w'\n")


class TestPretrainedVectors:
    def test_eval_and_analyze_do_not_read_them(self, tmp_path, capsys,
                                                monkeypatch):
        config, out = prepared(tmp_path, capsys)
        vectors = tmp_path / "vectors.txt"
        vectors.write_text("хвалит 0.5 -0.5 0.25 1\n", encoding="utf-8")
        with open(config, "a", encoding="utf-8") as fh:
            fh.write("embeddings = %s\n" % vectors)
        run = ["--config", str(config), "--mode", "traintest"]
        assert cli.main(["train"] + run) == 0
        capsys.readouterr()
        expected = {}
        for command in ("eval", "analyze"):
            assert cli.main([command] + run) == 0
            expected[command] = capsys.readouterr().out

        def unreadable(path, m):
            raise OSError("pretrained vectors were read again")

        monkeypatch.setattr(cli.enc, "load_word_vectors", unreadable)
        for command in ("eval", "analyze"):
            assert cli.main([command] + run) == 0
            assert capsys.readouterr().out == expected[command]


class TestAnalyze:
    def test_artifacts(self, tmp_path, capsys):
        config, out = prepared(tmp_path, capsys)
        assert cli.main(["train", "--config", str(config)]) == 0
        capsys.readouterr()
        assert cli.main(["analyze", "--config", str(config)]) == 0
        pairs = stdout_pairs(capsys)
        assert pairs["seed"] == "0"
        dist = (out / "distributions.csv").read_text().splitlines()
        assert dist[0] == "group,label_class,grid_point,density"
        means = (out / "means.csv").read_text().splitlines()
        assert means[0] == "group,mean_N,mean_S"
        assert len(means) == 4
        heat = (out / "heatmap.tsv").read_text().splitlines()
        assert heat[0] == "position\tterm\tgroup\tnormalized_weight"
        assert "mean_S_FRAMES" in pairs

    def test_non_finite_checkpoint_is_data_error(self, tmp_path, capsys):
        config, out = prepared(tmp_path, capsys)
        assert cli.main(["train", "--config", str(config)]) == 0
        lines = (out / "model.ckpt").read_text().splitlines()
        lines[1] = "nan " + lines[1].split(" ", 1)[1]
        (out / "model.ckpt").write_text("\n".join(lines) + "\n")
        assert cli.main(["analyze", "--config", str(config)]) == 2

    def test_non_attentive_encoder_fails(self, tmp_path, capsys):
        config, out = prepared(tmp_path, capsys)
        assert cli.main(["train", "--config", str(config),
                         "--encoder", "pcnn"]) == 0
        assert cli.main(["analyze", "--config", str(config),
                         "--encoder", "pcnn"]) == 1


class TestGradcheck:
    def test_passing_run(self, tmp_path, capsys):
        config = tmp_path / "g.conf"
        config.write_text("gradcheck_trials = 1\n")
        assert cli.main(["gradcheck", "--config", str(config)]) == 0
        pairs = stdout_pairs(capsys)
        from attex import encoders as enc
        for kind in enc.ENCODER_KINDS:
            assert float(pairs[kind]) < 1e-4

    def test_failure_exits_three(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli.md, "gradient_suite",
                            lambda trials, seed: {"cnn": 1.0})
        assert cli.main(["gradcheck"]) == 3


class TestNumericFailureExit:
    def test_train_numeric_failure_maps_to_three(self, tmp_path, capsys,
                                                 monkeypatch):
        from attex.errors import NumericError

        def explode(*args, **kwargs):
            raise NumericError("non-finite loss")

        config, out = prepared(tmp_path, capsys)
        monkeypatch.setattr(cli.md, "train", explode)
        assert cli.main(["train", "--config", str(config)]) == 3
