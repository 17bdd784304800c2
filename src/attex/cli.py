"""Command-line entry point: prepare, train, cv, eval, analyze, gradcheck.

Settings come from a key=value config file; the command-line flags
--encoder/--features/--mode/--seed/--out override file values.
`prepare` writes the masked contexts to a cache that `train` and
`analyze` read; `cv` and `eval` extract the contexts again.
Exit codes: 0 success, 1 usage or configuration error, 2 data error
(including input that is not valid UTF-8), 3 numeric failure.
"""

import argparse
import json
import os
import sys
from collections import Counter

import numpy as np

from . import analysis as an
from . import corpus as cp
from . import encoders as enc
from . import lexicons as lx
from . import model as md
from . import tensorgrad as tg
from . import termizer as tz
from .errors import DataError, NumericError

MODES = ("cv3", "traintest")

GRADCHECK_TOLERANCE = 1e-4

_PATH_KEYS = ("documents", "opinions", "frames", "sentiment", "prepositions",
              "embeddings", "manifest")
_INT_KEYS = ("n", "h", "filters", "window", "k", "m", "polarity_dim",
             "position_dim", "max_distance", "max_epochs", "eval_period",
             "batch_size", "seed", "gradcheck_trials")
_FLOAT_KEYS = ("stop_threshold", "learning_rate", "neutral_ratio")
_BOOL_KEYS = ("use_position",)
_STR_KEYS = ("encoder", "features", "mode", "optimizer", "scope", "out",
             "cache")
_ALL_KEYS = _PATH_KEYS + _INT_KEYS + _FLOAT_KEYS + _BOOL_KEYS + _STR_KEYS


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def load_config_file(path):
    """Parse `key = value` lines; # starts a comment."""
    values = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError("cannot read config file: %s" % exc)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError("%s:%d: expected key=value" % (path, lineno))
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _ALL_KEYS:
            raise UsageError("%s:%d: unknown key %r" % (path, lineno, key))
        if key in values:
            raise UsageError("%s:%d: duplicate key %r" % (path, lineno, key))
        values[key] = value
    return values


def _parse_value(key, value):
    if key in _INT_KEYS:
        try:
            return int(value)
        except ValueError:
            raise UsageError("key %r needs an integer, got %r" % (key, value))
    if key in _FLOAT_KEYS:
        try:
            return float(value)
        except ValueError:
            raise UsageError("key %r needs a number, got %r" % (key, value))
    if key in _BOOL_KEYS:
        lowered = value.lower()
        if lowered in ("true", "yes", "1"):
            return True
        if lowered in ("false", "no", "0"):
            return False
        raise UsageError("key %r needs true/false, got %r" % (key, value))
    return value


class ExperimentConfig:
    """Validated settings for one command invocation."""

    def __init__(self, values):
        self.values = {}
        for key, raw in values.items():
            if key not in _ALL_KEYS:
                raise UsageError("unknown setting %r" % (key,))
            self.values[key] = (raw if not isinstance(raw, str)
                                else _parse_value(key, raw))
        self.seed = self.values.get("seed", 0)
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

    def path(self, key, required_by=None):
        value = self.values.get(key)
        if value is None and required_by:
            raise UsageError("%s requires the %r setting" % (required_by, key))
        return value

    def encoder_config(self, required_by):
        kind = self.values.get("encoder")
        if kind is None:
            raise UsageError("%s requires the 'encoder' setting" % required_by)
        kwargs = {}
        for key in ("n", "h", "filters", "window", "k"):
            if key in self.values:
                kwargs[key] = self.values[key]
        if "features" in self.values:
            kwargs["feature_mode"] = self.values["features"]
        return enc.EncoderConfig(kind, **kwargs)

    def embed_options(self):
        options = {}
        for key in ("m", "polarity_dim", "use_position", "position_dim",
                    "max_distance"):
            if key in self.values:
                options[key] = self.values[key]
        path = self.values.get("embeddings")
        if path is not None:
            m = options.get("m", 50)
            options["pretrained"] = enc.load_word_vectors(path, m)
        return options

    def train_config(self):
        kwargs = {"seed": self.seed}
        for key in ("max_epochs", "eval_period", "stop_threshold",
                    "learning_rate", "optimizer", "batch_size",
                    "neutral_ratio"):
            if key in self.values:
                kwargs[key] = self.values[key]
        return md.TrainConfig(**kwargs)

    def frame_lexicon(self):
        path = self.values.get("frames")
        return None if path is None else lx.load_frame_lexicon(path)

    def sentiment_lexicon(self):
        path = self.values.get("sentiment")
        return None if path is None else lx.load_sentiment_lexicon(path)

    def preposition_list(self):
        path = self.values.get("prepositions")
        return None if path is None else lx.load_preposition_list(path)

    def load_corpus(self, required_by):
        documents = self.path("documents", required_by)
        return cp.load_corpus(documents, self.values.get("opinions"))

    def ensure_out(self):
        os.makedirs(self.out, exist_ok=True)
        return self.out


def _term_to_obj(term):
    obj = {"kind": term.kind}
    if term.lemma is not None:
        obj["lemma"] = term.lemma
    if term.polarity is not None:
        obj["polarity"] = term.polarity
    if term.token_kind is not None:
        obj["token"] = term.token_kind
    return obj


def _term_from_obj(obj):
    return tz.Term(obj["kind"], lemma=obj.get("lemma"),
                   polarity=obj.get("polarity"),
                   token_kind=obj.get("token"))


def _sample_to_line(sample):
    obj = {
        "doc_id": sample.doc_id,
        "sentence_idx": sample.sentence_idx,
        "label": sample.label,
        "source": sample.source_group,
        "target": sample.target_group,
        "subj_pos": sample.terms.subj_pos,
        "obj_pos": sample.terms.obj_pos,
        "terms": [_term_to_obj(t) for t in sample.terms.terms],
    }
    return json.dumps(obj, ensure_ascii=False, sort_keys=True,
                      separators=(",", ":"))


def _sample_from_obj(obj, path, lineno):
    try:
        terms = [_term_from_obj(t) for t in obj["terms"]]
        seq = tz.TermSequence(terms, obj["subj_pos"], obj["obj_pos"])
        return cp.ContextSample(obj["doc_id"], obj["sentence_idx"], seq,
                                obj["label"], obj["source"], obj["target"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError("bad cache record: %s" % exc, path=path, line=lineno)


def write_cache(samples, path):
    with open(path, "w", encoding="utf-8") as fh:
        for sample in samples:
            fh.write(_sample_to_line(sample) + "\n")


def read_cache(path):
    samples = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError("invalid JSON: %s" % exc, path=path,
                                line=lineno)
            samples.append(_sample_from_obj(obj, path, lineno))
    return samples


def _write_vocab(vocab, path):
    with open(path, "w", encoding="utf-8") as fh:
        for token in vocab.tokens()[len(enc.SPECIALS):]:
            fh.write(token + "\n")


def _read_vocab(path):
    with open(path, encoding="utf-8") as fh:
        return enc.Vocab([line.rstrip("\n") for line in fh if line.strip()])


def _checkpoint_path(cfg):
    return os.path.join(cfg.out, "model.ckpt")


def _vocab_path(cfg):
    return os.path.join(cfg.out, "vocab.txt")


def _echo(pairs):
    for key, value in pairs:
        sys.stdout.write("%s\t%s\n" % (key, value))


def cmd_prepare(cfg):
    corpus = cfg.load_corpus("prepare")
    samples, opinions = md.extract_samples(corpus.documents, corpus,
                                           cfg.frame_lexicon())
    provenance = Counter(o.provenance for o in opinions.values())
    cfg.ensure_out()
    write_cache(samples, cfg.cache)
    by_label = {label: 0 for label in md.LABELS}
    for sample in samples:
        by_label[sample.label] += 1
    _echo([("seed", cfg.seed),
           ("documents", len(corpus.documents)),
           ("opinions_annotated", provenance[cp.ANNOTATED]),
           ("opinions_augmented", provenance[cp.AUGMENTED]),
           ("contexts", len(samples))]
          + [("contexts_" + label, count)
             for label, count in by_label.items()]
          + [("cache", cfg.cache)])
    return 0


def _cached_samples(cfg, n, doc_ids=None):
    """prepare's cache, cut to doc_ids when given and cropped to n terms.

    Returns (kept, dropped); a cache with no usable context is a data error.
    """
    if not os.path.exists(cfg.cache):
        raise DataError("run prepare first: missing cache", path=cfg.cache)
    samples = read_cache(cfg.cache)
    if doc_ids is not None:
        samples = [s for s in samples if s.doc_id in doc_ids]
    kept, dropped = md.prepare_samples(samples, n)
    if not kept:
        raise DataError("no usable contexts in cache", path=cfg.cache)
    return kept, dropped


def cmd_train(cfg):
    encoder_cfg = cfg.encoder_config("train")
    train_ids = None
    if cfg.mode == "traintest":
        manifest = cp.load_split_manifest(cfg.path("manifest", "train"))
        train_ids = {d for d, side in manifest.items() if side == "train"}
    kept, dropped = _cached_samples(cfg, encoder_cfg.n, train_ids)
    vocab = enc.build_vocab(kept)
    model = md.build_model(vocab, encoder_cfg, cfg.embed_options(),
                           rng=np.random.default_rng([cfg.seed, 0]))
    history = md.train(model, kept, cfg.train_config(),
                       rng=np.random.default_rng([cfg.seed, 0, 1]))
    cfg.ensure_out()
    tg.save_checkpoint(_checkpoint_path(cfg), model.parameters())
    _write_vocab(vocab, _vocab_path(cfg))
    history.to_csv(os.path.join(cfg.out, "history.csv"))
    _echo([("seed", cfg.seed),
           ("contexts", len(kept)),
           ("dropped", dropped),
           ("epochs", history.epochs()[-1] if history.rows else 0),
           ("train_f1", history.final_f1()),
           ("checkpoint", _checkpoint_path(cfg))])
    return 0


def cmd_cv(cfg):
    corpus = cfg.load_corpus("cv")
    encoder_cfg = cfg.encoder_config("cv")
    result = md.run_cv(corpus, encoder_cfg, cfg.train_config(),
                       frame_lexicon=cfg.frame_lexicon(),
                       embed_options=cfg.embed_options(), k=3,
                       scope=cfg.scope)
    cfg.ensure_out()
    result.to_csv(os.path.join(cfg.out, "folds.csv"))
    for fold, history in enumerate(result.histories):
        history.to_csv(os.path.join(cfg.out, "history_fold%d.csv" % fold))
    _echo([("seed", cfg.seed)]
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
    model = md.build_model(vocab, encoder_cfg, cfg.embed_options(),
                           rng=np.random.default_rng([cfg.seed, 0]))
    arrays = tg.load_checkpoint(_checkpoint_path(cfg))
    tg.restore_parameters(model.parameters(), arrays)
    return model


def cmd_eval(cfg):
    if cfg.mode != "traintest":
        raise UsageError("eval requires mode=traintest with a manifest")
    corpus = cfg.load_corpus("eval")
    manifest = cp.load_split_manifest(cfg.path("manifest", "eval"))
    encoder_cfg = cfg.encoder_config("eval")
    model = _restore_model(cfg, encoder_cfg)
    _, test_docs = cp.train_test_split(corpus.documents, manifest)
    gold = {}
    test_samples, dropped = md.samples_for_docs(
        test_docs, corpus, cfg.frame_lexicon(), encoder_cfg.n, tz.lemmatize,
        gold)
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
    encoder_cfg = cfg.encoder_config("analyze")
    kept, dropped = _cached_samples(cfg, encoder_cfg.n)
    model = _restore_model(cfg, encoder_cfg)
    sentiment = cfg.sentiment_lexicon()
    prepositions = cfg.preposition_list()
    summaries = an.summarize_distributions(model, kept, sentiment,
                                           prepositions)
    cfg.ensure_out()
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
    parser = _Parser(prog="attex", description=__doc__)
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sub = subparsers.add_parser(name)
        sub.add_argument("--config")
        sub.add_argument("--encoder", choices=enc.ENCODER_KINDS)
        sub.add_argument("--features", choices=enc.FEATURE_MODES)
        sub.add_argument("--mode", choices=MODES)
        sub.add_argument("--seed", type=int)
        sub.add_argument("--out")
    return parser


def merge_settings(args):
    """Config file values with command-line flags taking precedence."""
    values = {}
    if args.config is not None:
        values.update(load_config_file(args.config))
    for key in ("encoder", "features", "mode", "seed", "out"):
        flag = getattr(args, key)
        if flag is not None:
            values[key] = flag
    return values


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return 1
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    try:
        cfg = ExperimentConfig(merge_settings(args))
        return COMMANDS[args.command](cfg)
    except UsageError as exc:
        sys.stderr.write("usage error: %s\n" % exc)
        return 1
    except (DataError, OSError, UnicodeDecodeError) as exc:
        # UnicodeDecodeError is a ValueError, so this comes first.
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
