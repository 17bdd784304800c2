"""Command-line entry point: prepare, train, cv, eval, analyze, gradcheck.

Settings come from a key=value config file; the command-line flags
--encoder/--features/--mode/--seed/--out override file values.
`prepare` writes the masked contexts to a cache that `train`, `eval`
and `analyze` read; `cv` extracts them in memory. The cache's first line
holds the sha256 of the inputs it was extracted from and the table of
distinct terms, and `train`, `eval` and `analyze` refuse a cache whose
inputs have changed since.
Every input file is UTF-8 text whose blank lines are skipped. Every
output file is written beside its target and moved onto it, so an
interrupted run leaves the previous file whole.
Exit codes: 0 success, 1 usage or configuration error (a config file
included), 2 data error (a malformed line or byte of an input file,
reported as `path:line:`, a cache prepared from other inputs, or fewer
than 3 documents for `cv`), 3 numeric failure.
"""

import argparse
import collections
import hashlib
import itertools
import json
import os
import sys

from . import analysis as an
from . import corpus as cp
from . import encoders as enc
from . import lexicons as lx
from . import model as md
from . import tensorgrad as tg
from . import termizer as tz
from .errors import (DataError, NumericError, read_json_lines, read_lines,
                     write_lines)

MODES = ("cv3", "traintest")
CV_FOLDS = 3

GRADCHECK_TOLERANCE = 1e-4

_CACHE_FORMAT = 2
_JSON = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"))


class UsageError(Exception):
    pass


def _boolean(text):
    return {"true": True, "yes": True, "1": True,
            "false": False, "no": False, "0": False}[text.lower()]


# What a value that a parser rejects should have been.
_NEEDS = {int: "an integer", float: "a number", _boolean: "true/false"}

# A config key's parser and, when it sets an argument of an encoder,
# embedder or training object, that object and the argument's name (the
# key's own unless given).
Setting = collections.namedtuple("Setting", "parse target argument",
                                 defaults=(None, None))

_PATH_KEYS = ("documents", "opinions", "frames", "sentiment", "prepositions",
              "embeddings", "manifest")
SETTINGS = {
    **dict.fromkeys(_PATH_KEYS + ("mode", "scope", "out", "cache"),
                    Setting(str)),
    "gradcheck_trials": Setting(int),
    "encoder": Setting(str, enc.EncoderConfig, "kind"),
    "features": Setting(str, enc.EncoderConfig, "feature_mode"),
    **dict.fromkeys(("n", "h", "filters", "window", "k"),
                    Setting(int, enc.EncoderConfig)),
    **dict.fromkeys(("m", "polarity_dim", "position_dim", "max_distance"),
                    Setting(int, enc.Embedder)),
    "use_position": Setting(_boolean, enc.Embedder),
    **dict.fromkeys(("max_epochs", "eval_period", "batch_size", "seed"),
                    Setting(int, md.TrainConfig)),
    **dict.fromkeys(("stop_threshold", "learning_rate", "neutral_ratio"),
                    Setting(float, md.TrainConfig)),
    "optimizer": Setting(str, md.TrainConfig),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def load_config_file(path):
    """Parse `key = value` lines; # starts a comment."""
    values = {}
    try:
        lines = list(read_lines(path))
    except (OSError, DataError) as exc:
        raise UsageError("cannot read config file: %s" % exc)
    for lineno, raw in lines:
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError("%s:%d: expected key=value" % (path, lineno))
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SETTINGS:
            raise UsageError("%s:%d: unknown key %r" % (path, lineno, key))
        if key in values:
            raise UsageError("%s:%d: duplicate key %r" % (path, lineno, key))
        values[key] = value
    return values


class ExperimentConfig:
    """Validated settings for one invocation of `command`."""

    def __init__(self, command, values):
        self.command = command
        self.values = {}
        for key, raw in values.items():
            if key not in SETTINGS:
                raise UsageError("unknown setting %r" % (key,))
            parse = SETTINGS[key].parse
            try:
                self.values[key] = parse(raw)
            except (KeyError, ValueError):
                raise UsageError("key %r needs %s, got %r"
                                 % (key, _NEEDS[parse], raw))
        self.seed = self.values.get("seed", 0)
        if self.seed < 0:
            raise UsageError("seed must be non-negative, got %d" % self.seed)
        self.mode = self.values.get("mode", "cv3")
        if self.mode not in MODES:
            raise UsageError("mode must be one of %s" % (MODES,))
        self.out = self.values.get("out", ".")
        self.cache = self.values.get("cache",
                                     os.path.join(self.out, "contexts.jsonl"))
        self.scope = self.values.get("scope", md.SCOPE_DOCUMENT)
        if self.scope not in md.SCOPES:
            raise UsageError("scope must be one of %s" % (md.SCOPES,))
        for key in _PATH_KEYS:
            path = self.values.get(key)
            if path is not None and not os.path.exists(path):
                raise DataError("missing %s file" % key, path=path)

    def get(self, key):
        """The key's value; unset, it is a usage error of the command."""
        if key not in self.values:
            raise UsageError("%s requires the %r setting"
                             % (self.command, key))
        return self.values[key]

    def _arguments(self, target):
        """The set keys' values that are arguments of `target`, by name."""
        return {setting.argument or key: self.values[key]
                for key, setting in SETTINGS.items()
                if setting.target is target and key in self.values}

    def encoder_config(self):
        self.get("encoder")
        return enc.EncoderConfig(**self._arguments(enc.EncoderConfig))

    def embed_options(self, pretrained=True):
        """Embedder settings; `pretrained` adds the embeddings file's rows."""
        options = self._arguments(enc.Embedder)
        path = self.values.get("embeddings")
        if pretrained and path is not None:
            options["pretrained"] = enc.load_word_vectors(
                path, options.get("m", enc.WORD_DIM))
        return options

    def train_config(self):
        return md.TrainConfig(**self._arguments(md.TrainConfig))

    def load(self, key, loader):
        """What `loader` reads from the key's file, or None when unset."""
        path = self.values.get(key)
        return None if path is None else loader(path)

    def load_corpus(self):
        return cp.load_corpus(self.get("documents"),
                              self.values.get("opinions"))


def _sample_row(sample, index_of):
    """A sample's cache line: its fields, then its terms' table ids."""
    seq = sample.terms
    return _JSON.encode([sample.doc_id, sample.sentence_idx, sample.label,
                         sample.source_group, sample.target_group,
                         seq.subj_pos, seq.obj_pos,
                         [index_of[t] for t in seq.terms]])


def _row_sample(row, table):
    doc_id, sentence, label, source, target, subj_pos, obj_pos, ids = row
    if not all(isinstance(v, str) for v in (doc_id, source, target)):
        raise ValueError("doc_id, source and target must be strings")
    if type(sentence) is not int:
        raise ValueError("sentence_idx must be an integer")
    if type(subj_pos) is not int or type(obj_pos) is not int:
        raise ValueError("subj_pos and obj_pos must be integers")
    if not all(type(i) is int and 0 <= i < len(table) for i in ids):
        raise ValueError("term ids must be integers below %d" % len(table))
    seq = tz.TermSequence([table[i] for i in ids], subj_pos, obj_pos)
    return cp.ContextSample(doc_id, sentence, seq, label, source, target)


def _inputs_sha256(cfg):
    """sha256 of the files that the cache's contexts are extracted from:
    the documents and opinions files that load_corpus reads, then the
    frames file. Each counts as the list of lines that read_lines yields,
    or null when absent; documents must be set."""
    paths = cp.corpus_paths(cfg.get("documents"),
                            cfg.values.get("opinions"))
    paths += (cfg.values.get("frames"),)
    digest = hashlib.sha256()
    for path in paths:
        lines = None if path is None else [line for _, line in read_lines(path)]
        digest.update(json.dumps(lines, ensure_ascii=False).encode("utf-8"))
    return digest.hexdigest()


def write_cache(samples, path, sha256):
    """A header line holding the inputs' sha256, the format and the table
    of distinct terms in first-seen order; then one line per sample with
    its terms' table ids.
    """
    index_of = {t: i for i, t in enumerate(dict.fromkeys(
        t for sample in samples for t in sample.terms.terms))}
    header = {"inputs_sha256": sha256, "format": _CACHE_FORMAT,
              "terms": [[t.kind, t.lemma, t.polarity, t.token_kind]
                        for t in index_of]}
    write_lines(path, itertools.chain(
        [_JSON.encode(header)],
        (_sample_row(sample, index_of) for sample in samples)))


def read_cache(path, sha256=None):
    """The samples of a cache. A first line that is no header of this
    format or, given the sha256 of the current inputs, holds another one
    is a data error, as is a bad term table (line 1) or record."""
    records = read_json_lines(path)
    _, header = next(records, (1, None))
    header = header if isinstance(header, dict) else {}
    found = header.get("inputs_sha256")
    if (found is None or header.get("format") != _CACHE_FORMAT
            or (sha256 is not None and found != sha256)):
        raise DataError("cache was prepared from other inputs; "
                        "run prepare again", path=path, line=1)
    lineno, samples = 1, []
    try:
        entries = header["terms"]
        if not all(isinstance(e, list) and len(e) == 4 for e in entries):
            raise ValueError("a term is not [kind, lemma, polarity, token]")
        table = [tz.Term(*entry) for entry in entries]
        for lineno, row in records:
            samples.append(_row_sample(row, table))
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError("bad cache record: %s" % exc, path=path, line=lineno)
    return samples


def _write_vocab(vocab, path):
    write_lines(path, vocab.tokens()[len(enc.SPECIALS):])


def _read_vocab(path):
    return enc.Vocab([line for _, line in read_lines(path)])


def _checkpoint_path(cfg):
    return os.path.join(cfg.out, "model.ckpt")


def _vocab_path(cfg):
    return os.path.join(cfg.out, "vocab.txt")


def _echo(pairs):
    for key, value in pairs:
        sys.stdout.write("%s\t%s\n" % (key, value))


def cmd_prepare(cfg):
    corpus = cfg.load_corpus()
    samples = md.extract_samples(corpus.documents, corpus,
                                 cfg.load("frames", lx.load_frame_lexicon))
    gold = md.opinion_gold(corpus.documents, corpus)
    # A neutral opinion is an augmented pair.
    augmented = sum(label == lx.NEUTRAL for label in gold.values())
    write_cache(samples, cfg.cache, _inputs_sha256(cfg))
    by_label = {label: 0 for label in lx.POLARITIES}
    for sample in samples:
        by_label[sample.label] += 1
    _echo([("seed", cfg.seed),
           ("documents", len(corpus.documents)),
           ("opinions_annotated", len(gold) - augmented),
           ("opinions_augmented", augmented),
           ("contexts", len(samples))]
          + [("contexts_" + label, count)
             for label, count in by_label.items()]
          + [("cache", cfg.cache)])
    return 0


def _manifest_split(cfg, corpus):
    """(train, test) documents of the manifest; a manifest that does not
    list exactly the corpus documents is a data error."""
    manifest = cp.load_split_manifest(cfg.get("manifest"))
    try:
        return cp.train_test_split(corpus.documents, manifest)
    except ValueError as exc:
        raise DataError(str(exc), path=cfg.get("manifest"))


def _cached_samples(cfg, n, doc_ids=None, allow_empty=False):
    """prepare's cache, cut to doc_ids when given and cropped to n terms.

    Returns (kept, dropped). A cache prepared from other inputs than the
    configured ones is a data error, and so, unless allow_empty, is one
    with no usable context.
    """
    sha256 = _inputs_sha256(cfg)
    if not os.path.exists(cfg.cache):
        raise DataError("run prepare first: missing cache", path=cfg.cache)
    samples = read_cache(cfg.cache, sha256)
    if doc_ids is not None:
        samples = [s for s in samples if s.doc_id in doc_ids]
    kept, dropped = md.prepare_samples(samples, n)
    if not kept and not allow_empty:
        raise DataError("no usable contexts in cache", path=cfg.cache)
    return kept, dropped


def cmd_train(cfg):
    encoder_cfg = cfg.encoder_config()
    train_ids = None
    if cfg.mode == "traintest":
        train_docs, _ = _manifest_split(cfg, cfg.load_corpus())
        train_ids = {doc.doc_id for doc in train_docs}
    kept, dropped = _cached_samples(cfg, encoder_cfg.n, train_ids)
    model, history = md.fit(kept, encoder_cfg, cfg.train_config(),
                            cfg.embed_options())
    tg.save_checkpoint(_checkpoint_path(cfg), model.parameters())
    _write_vocab(model.embedder.vocab, _vocab_path(cfg))
    history.to_csv(os.path.join(cfg.out, "history.csv"))
    _echo([("seed", cfg.seed),
           ("contexts", len(kept)),
           ("dropped", dropped),
           ("epochs", history.epochs()[-1] if history.rows else 0),
           ("train_f1", history.final_f1()),
           ("checkpoint", _checkpoint_path(cfg))])
    return 0


def cmd_cv(cfg):
    corpus = cfg.load_corpus()
    if len(corpus.documents) < CV_FOLDS:
        raise DataError("cv needs at least %d documents, got %d"
                        % (CV_FOLDS, len(corpus.documents)),
                        path=cfg.get("documents"))
    encoder_cfg = cfg.encoder_config()
    result = md.run_cv(corpus, encoder_cfg, cfg.train_config(),
                       frame_lexicon=cfg.load("frames", lx.load_frame_lexicon),
                       embed_options=cfg.embed_options(), k=CV_FOLDS,
                       scope=cfg.scope)
    result.to_csv(os.path.join(cfg.out, "folds.csv"))
    for fold, history in enumerate(result.histories):
        history.to_csv(os.path.join(cfg.out, "history_fold%d.csv" % fold))
    # Every split covers the whole corpus, so each holds the same total.
    _echo([("seed", cfg.seed), ("dropped", result.splits[0].dropped)]
          + [("fold%d_f1" % fold, repr(f1))
             for fold, f1 in enumerate(result.per_fold)]
          + [("mean_f1", repr(result.mean))])
    return 0


def _restore_model(cfg, encoder_cfg):
    for path in (_checkpoint_path(cfg), _vocab_path(cfg)):
        if not os.path.exists(path):
            raise DataError("run train first: missing %s"
                            % os.path.basename(path), path=path)
    vocab = _read_vocab(_vocab_path(cfg))
    # Every parameter is overwritten from the checkpoint.
    model = md.build_model(vocab, encoder_cfg,
                           cfg.embed_options(pretrained=False))
    arrays = tg.load_checkpoint(_checkpoint_path(cfg))
    tg.restore_parameters(model.parameters(), arrays)
    return model


def cmd_eval(cfg):
    if cfg.mode != "traintest":
        raise UsageError("eval requires mode=traintest with a manifest")
    corpus = cfg.load_corpus()
    _, test_docs = _manifest_split(cfg, corpus)
    encoder_cfg = cfg.encoder_config()
    # A test side whose contexts are all cropped out scores F1 0.
    test_samples, dropped = _cached_samples(
        cfg, encoder_cfg.n, {doc.doc_id for doc in test_docs},
        allow_empty=True)
    model = _restore_model(cfg, encoder_cfg)
    gold = md.opinion_gold(test_docs, corpus)
    predictions = md.predict_opinions(model, test_samples)
    _echo([("seed", cfg.seed),
           ("test_documents", len(test_docs)),
           ("test_contexts", len(test_samples)),
           ("dropped", dropped),
           ("f1_per_document",
            repr(md.macro_f1(predictions, gold, md.SCOPE_DOCUMENT))),
           ("f1_collection",
            repr(md.macro_f1(predictions, gold, md.SCOPE_COLLECTION)))])
    return 0


def cmd_analyze(cfg):
    encoder_cfg = cfg.encoder_config()
    kept, dropped = _cached_samples(cfg, encoder_cfg.n)
    model = _restore_model(cfg, encoder_cfg)
    sentiment = cfg.load("sentiment", lx.load_lemma_set)
    prepositions = cfg.load("prepositions", lx.load_lemma_set)
    summaries = an.summarize_distributions(model, kept, sentiment,
                                           prepositions)
    an.write_distribution_csv(summaries,
                              os.path.join(cfg.out, "distributions.csv"))
    an.write_means_csv(summaries, os.path.join(cfg.out, "means.csv"))
    alpha = an.extract_alpha(model, kept[0])
    an.export_heatmap(kept[0], alpha, os.path.join(cfg.out, "heatmap.tsv"),
                      sentiment, prepositions)
    pairs = [("seed", cfg.seed), ("contexts", len(kept)),
             ("dropped", dropped)]
    for summary in summaries:
        for side, value in (("N", summary.mean_n), ("S", summary.mean_s)):
            shown = an.UNDEFINED if value is None else repr(value)
            pairs.append(("mean_%s_%s" % (side, summary.group), shown))
    _echo(pairs)
    return 0


def cmd_gradcheck(cfg):
    trials = cfg.values.get("gradcheck_trials", 20)
    worst = md.gradient_suite(trials=trials, seed=cfg.seed)
    _echo([("seed", cfg.seed)]
          + [(kind, "%.3g" % err) for kind, err in worst.items()])
    if any(err >= GRADCHECK_TOLERANCE for err in worst.values()):
        sys.stderr.write("gradient check exceeded tolerance %g\n"
                         % GRADCHECK_TOLERANCE)
        return 3
    return 0


COMMANDS = {
    "prepare": cmd_prepare,
    "train": cmd_train,
    "cv": cmd_cv,
    "eval": cmd_eval,
    "analyze": cmd_analyze,
    "gradcheck": cmd_gradcheck,
}


def build_parser():
    """One parser for every command; flags may come before or after it."""
    parser = _Parser(prog="attex", description=__doc__)
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config")
    parser.add_argument("--encoder", choices=enc.ENCODER_KINDS)
    parser.add_argument("--features", choices=enc.FEATURE_MODES)
    parser.add_argument("--mode", choices=MODES)
    parser.add_argument("--seed")
    parser.add_argument("--out")
    return parser


def merge_settings(args):
    """Config file values with command-line flags taking precedence."""
    values = {}
    if args.config is not None:
        values.update(load_config_file(args.config))
    for key, flag in vars(args).items():
        if key in SETTINGS and flag is not None:
            values[key] = flag
    return values


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command](
            ExperimentConfig(args.command, merge_settings(args)))
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return 1
    except (DataError, OSError) as exc:
        sys.stderr.write("data error: %s\n" % exc)
        return 2
    except (ValueError, KeyError) as exc:
        sys.stderr.write("configuration error: %s\n" % exc)
        return 1
    except NumericError as exc:
        sys.stderr.write("numeric failure: %s\n" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
