"""End-to-end tests for the command-line interface."""

import json
import os

import numpy as np
import pytest

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

    def test_missing_lexicon_fails_before_work(self, tmp_path, capsys):
        config, out = write_fixture(tmp_path)
        text = config.read_text().replace(
            "frames = %s" % (tmp_path / "frames.tsv"),
            "frames = %s" % (tmp_path / "missing.tsv"))
        config.write_text(text)
        assert cli.main(["prepare", "--config", str(config)]) == 2
        assert not (out / "contexts.jsonl").exists()

    def test_cache_matches_samples_for_docs(self, tmp_path, capsys):
        config, out = write_fixture(tmp_path)
        assert cli.main(["prepare", "--config", str(config)]) == 0
        corpus = cp.load_corpus(str(tmp_path / "documents.jsonl"),
                                str(tmp_path / "opinions.tsv"))
        frame_lex = lx.load_frame_lexicon(str(tmp_path / "frames.tsv"))

        def fields(samples):
            return [(s.doc_id, s.sentence_idx, s.label, s.source_group,
                     s.target_group, s.terms.terms, s.subj_pos, s.obj_pos)
                    for s in samples]

        # n=2 drops every context, n=3 crops the longer sentence.
        for n in (2, 3, 8):
            cached, cached_dropped = md.prepare_samples(
                cli.read_cache(str(out / "contexts.jsonl")), n)
            direct, direct_dropped = md.samples_for_docs(
                corpus.documents, corpus, frame_lex, n, tz.lemmatize)
            assert fields(cached) == fields(direct)
            assert cached_dropped == direct_dropped


class TestUndecodableInput:
    @pytest.mark.parametrize("name", ["documents.jsonl", "frames.tsv"])
    def test_prepare_exits_two(self, tmp_path, capsys, name):
        config, out = write_fixture(tmp_path)
        path = tmp_path / name
        path.write_bytes(path.read_bytes() + b"\xff\n")
        assert cli.main(["prepare", "--config", str(config)]) == 2
        assert "data error" in capsys.readouterr().err


def prepared(tmp_path, capsys):
    config, out = write_fixture(tmp_path)
    assert cli.main(["prepare", "--config", str(config)]) == 0
    capsys.readouterr()
    return config, out


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

    def test_seed_flag_overrides_default(self, tmp_path, capsys):
        config, out = write_fixture(tmp_path)
        assert cli.main(["cv", "--config", str(config),
                         "--seed", "5"]) == 0
        pairs = stdout_pairs(capsys)
        assert pairs["seed"] == "5"
        assert (out / "folds.csv").exists()


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
