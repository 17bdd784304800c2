"""One workload run in its own process; started by run.py.

Usage (from the root of a checkout):
    python3 perfbench/workload.py --workload NAME --seed N --seconds S
        --trace 0|1 --out DIR

It writes DIR/result.json, and with --trace 1 also DIR/spans.json.
Untraced, it sets up repeatedly, for SETUP_SECONDS and at least
MIN_SETUPS times, then runs whole units of the workload in a closed loop
(one at a time, each starting when the last ends) for as long as the
next unit is expected to fit in S seconds, at least once, and then sets
up repeatedly once more. Traced, it
installs the stage clock, sets up once and runs one unit as the
reference, then installs the tracer and runs one set-up and one unit
under it.

Each unit's outcome is also compared with that of every earlier run of
the same workload and seed on the same code, through a file under
.perfbench_out/same-seed/.
"""

import argparse
import contextlib
import glob
import hashlib
import io
import json
import math
import os
import platform
import statistics
import sys
import time
from collections import Counter, defaultdict

ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import numpy as np  # noqa: E402

import synth  # noqa: E402
from attex import analysis as an  # noqa: E402
from attex import cli  # noqa: E402
from attex import corpus as cp  # noqa: E402
from attex import encoders as enc  # noqa: E402
from attex import lexicons as lx  # noqa: E402
from attex import model as md  # noqa: E402
from attex import tensorgrad as tg  # noqa: E402
from attex import termizer as tz  # noqa: E402
from attex.errors import DataError  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
from tracer import Tracer  # noqa: E402

MODULES = (cp, lx, tz, enc, tg, md, an, cli)

# Untraced runs time set-up for at least this long and this many times,
# before the units and again after them, and report the median of both.
# The host's speed swings over seconds, so two windows apart average out
# more of it than one window twice as long.
SETUP_SECONDS = 1.5
MIN_SETUPS = 2

# Floor on the mean held-out F1 of each encoder; the lower of the two
# acceptance-test floors. Only encoders that reach the stop threshold
# within EPOCH_CAP epochs are held to it: att-blstm needs 20 to 60, and
# after 10 epochs its F1 is below that of the untrained model, because
# it first learns the neutral majority. Its learning check is the loss
# (see prior_loss).
F1_FLOOR = 0.75
FLOORED_KINDS = ("pcnn", "att-cnn")
ALPHA_SUM_TOLERANCE = 1e-9
SAME_SEED_DIR = os.path.join(ROOT, ".perfbench_out", "same-seed")


class Checks:
    """Every operation and output check; failures feed error_rate."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    @property
    def failed(self):
        return len(self.failures)


class EpochMarks:
    """Stands in for train()'s random generator and stamps the clock at
    each per-epoch `permutation` draw; every other call goes to the real
    generator, so the draws and the training are unchanged."""

    def __init__(self, rng):
        self._rng = rng
        self.marks = []

    def permutation(self, *args, **kwargs):
        self.marks.append(time.perf_counter())
        return self._rng.permutation(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class StageClock:
    """Wall time and item counts of a few coarse stages, as pieces.

    A piece is one call of a stage function: one extraction of a fold's
    documents (`prepare`), one held-out evaluation (`eval`), one attention
    study (`analyze`), or one training epoch (`epoch`, stamped through
    EpochMarks; the last epoch of a run also holds its final train-F1
    evaluation, so it is left out). Installed in traced runs only; its
    wrappers run a few times per fold.
    """

    def __init__(self):
        self.records = defaultdict(list)  # stage -> [(seconds, items)]
        self._training = 0
        self._patches = []

    def _wrap(self, owner, attr, make):
        original = getattr(owner, attr)
        wrapper = make(original)
        wrapper.__name__ = original.__name__
        wrapper.__qualname__ = original.__qualname__
        wrapper.__module__ = original.__module__
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def _timed(self, owner, attr, stage, items):
        def make(original):
            def wrapper(*args, **kwargs):
                start = time.perf_counter()
                result = original(*args, **kwargs)
                if not self._training:
                    self.records[stage].append(
                        (time.perf_counter() - start,
                         items(args, result)))
                return result
            return wrapper
        self._wrap(owner, attr, make)

    def _train(self, original):
        def wrapper(model, samples, cfg, rng=None):
            marks = EpochMarks(np.random.default_rng(cfg.seed)
                               if rng is None else rng)
            self._training += 1
            try:
                history = original(model, samples, cfg, rng=marks)
            finally:
                self._training -= 1
            stamps = marks.marks
            self.records["epoch/" + model.encoder.kind].extend(
                (b - a, 1) for a, b in zip(stamps, stamps[1:]))
            return history
        return wrapper

    def install(self):
        self._wrap(md, "train", self._train)
        self._timed(md, "samples_for_docs", "prepare",
                    lambda a, result: len(result[0]) + result[1])
        self._timed(md, "evaluate_on_samples", "eval", lambda a, r: len(a[1]))
        self._timed(an, "summarize_distributions", "analyze",
                    lambda a, r: len(a[1]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self):
        records, self.records = self.records, defaultdict(list)
        return records


def pooled(records):
    """Merge stage records of several set-ups or units."""
    merged = defaultdict(list)
    for record in records:
        for stage, pieces in record.items():
            merged[stage].extend(pieces)
    return merged


def rate(pieces):
    """Items per second over all pieces."""
    return sum(items for _, items in pieces) / sum(sec for sec, _ in pieces)


def median_time(pieces):
    """Median seconds per item of the pieces."""
    return statistics.median(seconds / items for seconds, items in pieces)


def run_cli(argv):
    """attex.cli.main in this process; returns (exit code, stdout pairs)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    pairs = {}
    for line in buf.getvalue().splitlines():
        key, sep, value = line.partition("\t")
        if sep:
            pairs[key] = value
    return code, pairs


def history_follows_protocol(history, cfg):
    """Rows at eval_period, 2*eval_period, ... ending at the first row
    where the stop rule holds."""
    epochs = history.epochs()
    expected = [cfg.eval_period * (i + 1) for i in range(len(epochs))]
    stops = [f1 > cfg.stop_threshold or epoch >= cfg.max_epochs
             for epoch, f1, _ in history.rows]
    return (bool(epochs) and epochs == expected and stops[-1]
            and not any(stops[:-1]))


def _finite_unit_interval(value):
    return value is not None and math.isfinite(value) and 0.0 <= value <= 1.0


def check_summaries(summaries, checks, where):
    checks.check([s.group for s in summaries] == list(an.REPORT_GROUPS),
                 "%s: summaries cover %s" % (where, an.REPORT_GROUPS))
    for s in summaries:
        for mean in (s.mean_n, s.mean_s):
            checks.check(mean is None or _finite_unit_interval(mean),
                         "%s: mean group weight %r in [0, 1]" % (where, mean))


def check_alpha(alpha, checks, where):
    checks.check(bool(np.all(alpha >= 0.0))
                 and abs(float(alpha.sum()) - 1.0) <= ALPHA_SUM_TOLERANCE,
                 "%s: attention weights sum to 1" % where)


def prior_loss(samples, neutral_ratio):
    """Cross-entropy of the best constant guess, the label shares, on the
    training contexts as train() downsamples them. A model that has
    learned more than the label shares has a lower loss."""
    counts = Counter(s.label for s in samples)
    if neutral_ratio is not None:
        sentiment = len(samples) - counts[lx.NEUTRAL]
        counts[lx.NEUTRAL] = min(counts[lx.NEUTRAL],
                                 int(round(neutral_ratio * sentiment)))
    total = sum(counts.values())
    return -sum(c / total * math.log(c / total)
                for c in counts.values() if c)


def prepare_folds(corpus, encoder_cfg, train_cfg, frames, k=3):
    """What run_cv builds for each fold before training, through the same
    attex calls: the fold split, the training and held-out contexts and
    the vocabulary. Returns, per fold, what the checks compare run_cv's
    result with."""
    folds = cp.split_folds(corpus.documents, k=k, seed=train_cfg.seed)
    prepared = []
    for fold in range(k):
        train_docs = [d for d in corpus.documents
                      if folds.fold_of_doc[d.doc_id] != fold]
        test_docs = [d for d in corpus.documents
                     if folds.fold_of_doc[d.doc_id] == fold]
        train, _ = md.samples_for_docs(train_docs, corpus, frames,
                                       encoder_cfg.n, tz.lemmatize)
        test, _ = md.samples_for_docs(test_docs, corpus, frames,
                                      encoder_cfg.n, tz.lemmatize)
        prepared.append({
            "prior_loss": prior_loss(train, train_cfg.neutral_ratio),
            "test_contexts": len(test),
            "vocab": len(enc.build_vocab(train)),
        })
    return prepared


def _code_digest():
    """Digest of the program and benchmark sources, so that outcomes are
    only compared between runs of the same code."""
    digest = hashlib.sha256()
    paths = sorted(glob.glob(os.path.join(ROOT, "src", "attex", "*.py"))
                   + glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
                   + [os.path.join(ROOT, "tests", "synth.py")])
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(os.path.relpath(path, ROOT).encode())
            digest.update(fh.read())
    return digest.hexdigest()[:16]


class SameSeed:
    """Checks that every unit of a workload and seed has the same
    outcome: within a run, and across runs on the same code through a
    file that the first run writes."""

    def __init__(self, workload, seed):
        self.path = os.path.join(SAME_SEED_DIR, _code_digest(),
                                 "%s-seed%d.json" % (workload, seed))
        self.first = None

    def check(self, fingerprint, checks, what):
        text = json.dumps(fingerprint, sort_keys=True)
        if self.first is None:
            self.first = text
            if os.path.exists(self.path):
                with open(self.path, encoding="utf-8") as fh:
                    checks.check(fh.read() == text,
                                 "%s equal to an earlier run's" % what)
            else:
                os.makedirs(os.path.dirname(self.path), exist_ok=True)
                with open(self.path + ".tmp", "w", encoding="utf-8") as fh:
                    fh.write(text)
                os.replace(self.path + ".tmp", self.path)
        else:
            checks.check(text == self.first,
                         "%s equal to this run's first unit" % what)


class CvWorkload:
    """3-fold CV of each encoder kind on the 60-document synthetic corpus
    (acceptance config, EPOCH_CAP epochs), then the attention study on the
    held-out contexts of every fold of the attentive kinds. Set-up builds
    the corpus and, per kind, the folds' contexts and vocabularies."""

    def __init__(self, name, kinds, seed):
        self.kinds = kinds
        self.seed = seed
        self.same_seed = SameSeed(name, seed)

    def setup(self):
        self.corpus = synth.build_corpus(seed=self.seed)
        self.frames = synth.frame_lexicon()
        self.sentiment = synth.sentiment_lexicon()
        self.prepositions = synth.preposition_list()
        self.train_cfg = inputs.train_config(self.seed)
        self.prepared = {
            kind: prepare_folds(self.corpus, synth.encoder_config(kind),
                                self.train_cfg, self.frames)
            for kind in self.kinds}

    def describe(self):
        return inputs.describe(self.corpus, self.frames,
                               synth.encoder_config(self.kinds[0]).n)

    def unit(self):
        outcome = {}
        for kind in self.kinds:
            result = md.run_cv(self.corpus, synth.encoder_config(kind),
                               self.train_cfg, frame_lexicon=self.frames,
                               embed_options=synth.embed_options(), k=3)
            summaries = []
            if result.splits[0].model.encoder.attentive:
                summaries = [an.summarize_distributions(
                    split.model, split.test_samples, self.sentiment,
                    self.prepositions) for split in result.splits]
            outcome[kind] = (result, summaries)
        return outcome

    def check(self, outcome, checks):
        fingerprint = {}
        for kind, (result, summaries) in outcome.items():
            checks.check(len(result.per_fold) == 3
                         and all(map(_finite_unit_interval, result.per_fold)),
                         "%s: three fold F1 values in [0, 1]" % kind)
            for fold, (split, prepared) in enumerate(
                    zip(result.splits, self.prepared[kind])):
                where = "%s fold %d" % (kind, fold)
                history = split.history
                checks.check(history_follows_protocol(history, self.train_cfg),
                             "%s: history follows the stop protocol" % where)
                loss = history.rows[0][2] if history.rows else math.inf
                checks.check(loss < prepared["prior_loss"],
                             "%s: loss %.3f below the label-share loss %.3f"
                             % (where, loss, prepared["prior_loss"]))
                checks.check(len(split.test_samples)
                             == prepared["test_contexts"]
                             and len(split.model.embedder.vocab)
                             == prepared["vocab"],
                             "%s: held-out contexts and vocabulary as in "
                             "set-up" % where)
            if kind in FLOORED_KINDS:
                checks.check(result.mean >= F1_FLOOR,
                             "%s: mean F1 %.3f >= %.2f"
                             % (kind, result.mean, F1_FLOOR))
            for fold, (split, fold_summaries) in enumerate(
                    zip(result.splits, summaries)):
                where = "%s fold %d" % (kind, fold)
                check_summaries(fold_summaries, checks, where)
                check_alpha(an.extract_alpha(split.model,
                                             split.test_samples[0]),
                            checks, where)
            fingerprint[kind] = (result.per_fold,
                                 [h.rows for h in result.histories],
                                 [[(s.mean_n, s.mean_s) for s in fs]
                                  for fs in summaries])
        self.same_seed.check(fingerprint, checks,
                             "fold F1, histories and study means")

    def f1_mean(self, outcome):
        return statistics.mean(f for result, _ in outcome.values()
                               for f in result.per_fold)

    def stage_metrics(self, units, setup_records):
        pieces = pooled(u["stages"] for u in units)
        return {
            "epoch_s": sum(median_time(pieces["epoch/" + kind])
                           for kind in self.kinds),
            "prepare_contexts_per_s": rate(pieces["prepare"]),
            "eval_contexts_per_s": rate(pieces["eval"]),
            "analyze_contexts_per_s": rate(pieces["analyze"]),
        }


class CliWorkload:
    """`attex prepare`, `eval --mode traintest` and `analyze` on a
    synthetic corpus written to files, with an att-blstm checkpoint that
    set-up trains with `attex train`."""

    commands = ("prepare", "eval", "analyze")

    def __init__(self, name, seed, workdir):
        self.seed = seed
        self.workdir = os.path.join(workdir, "cli")
        self.same_seed = SameSeed(name, seed)

    def setup(self):
        self.corpus = synth.build_corpus(seed=self.seed,
                                         n_docs=inputs.CLI_DOCS)
        self.config = inputs.write_cli_inputs(self.corpus, self.workdir,
                                              self.seed)
        self.setup_codes = [run_cli([command, "--config", self.config])[0]
                            for command in ("prepare", "train")]

    def describe(self):
        return inputs.describe(self.corpus, synth.frame_lexicon(),
                               synth.encoder_config("att-blstm").n)

    def unit(self):
        outcome = {}
        for command in self.commands:
            start = time.perf_counter()
            code, pairs = run_cli([command, "--config", self.config])
            outcome[command] = (code, pairs, time.perf_counter() - start)
        return outcome

    def _out(self, name):
        return os.path.join(self.workdir, "out", name)

    def check(self, outcome, checks):
        checks.check(self.setup_codes == [0, 0],
                     "set-up prepare and train exit with code 0")
        for command, (code, _, _) in outcome.items():
            checks.check(code == 0, "%s exits with code 0" % command)
        prep, ev, anl = (outcome[c][1] for c in self.commands)
        try:
            self._check_outputs(prep, ev, anl, checks)
        except (OSError, DataError, KeyError, ValueError, IndexError) as exc:
            checks.check(False, "outputs unreadable: %r" % (exc,))

        fingerprint = (ev.get("f1_per_document"),
                       {k: v for k, v in anl.items() if k.startswith("mean_")})
        self.same_seed.check(fingerprint, checks,
                             "eval F1 and analysis means")

    def _check_outputs(self, prep, ev, anl, checks):
        test_ids = {doc.doc_id for i, doc in enumerate(self.corpus.documents)
                    if inputs.manifest_side(i) == "test"}
        cached = cli.read_cache(self._out("contexts.jsonl"))
        checks.check(int(prep["documents"]) == inputs.CLI_DOCS
                     and int(prep["contexts"]) == len(cached),
                     "prepare counts match the cache")
        checks.check(int(anl["contexts"]) + int(anl["dropped"])
                     == int(prep["contexts"]),
                     "analyze contexts + dropped == prepare contexts")
        checks.check(int(ev["test_contexts"]) + int(ev["dropped"])
                     == sum(s.doc_id in test_ids for s in cached),
                     "eval contexts + dropped == cached test contexts")
        checks.check(_finite_unit_interval(float(ev["f1_per_document"])),
                     "eval F1 in [0, 1]")

        with open(self._out("distributions.csv"), encoding="utf-8") as fh:
            groups = {line.split(",")[0] for line in list(fh)[1:]}
        checks.check(groups == set(an.REPORT_GROUPS),
                     "distributions.csv holds all report groups")
        with open(self._out("means.csv"), encoding="utf-8") as fh:
            groups = [line.split(",")[0] for line in list(fh)[1:]]
        checks.check(groups == list(an.REPORT_GROUPS),
                     "means.csv holds all report groups")

        model = self._restore_model()
        first = md.prepare_samples(cached, model.embedder.n)[0][0]
        alpha = an.extract_alpha(model, first)
        check_alpha(alpha, checks, "heatmap context")
        with open(self._out("heatmap.tsv"), encoding="utf-8") as fh:
            shown = [float(line.rstrip("\n").split("\t")[3])
                     for line in list(fh)[1:]]
        checks.check(np.allclose(shown, alpha / alpha.max(), rtol=0,
                                 atol=1e-12),
                     "heatmap.tsv matches the attention weights")

    def _restore_model(self):
        with open(self._out("vocab.txt"), encoding="utf-8") as fh:
            vocab = enc.Vocab([line.rstrip("\n") for line in fh
                               if line.strip()])
        model = md.build_model(vocab, synth.encoder_config("att-blstm"),
                               synth.embed_options())
        tg.restore_parameters(model.parameters(),
                              tg.load_checkpoint(self._out("model.ckpt")))
        return model

    def f1_mean(self, outcome):
        return float(outcome["eval"][1]["f1_per_document"])

    def stage_metrics(self, units, setup_records):
        def pieces(command, key):
            return [(u["outcome"][command][2],
                     int(u["outcome"][command][1][key])) for u in units]

        return {
            "epoch_s": median_time(pooled(setup_records)["epoch/att-blstm"]),
            "prepare_contexts_per_s": rate(pieces("prepare", "contexts")),
            "eval_contexts_per_s": rate(pieces("eval", "test_contexts")),
            "analyze_contexts_per_s": rate(pieces("analyze", "contexts")),
        }


WORKLOADS = {
    "cv-att-blstm": lambda name, seed, out: CvWorkload(
        name, ("att-blstm",), seed),
    "cv-conv": lambda name, seed, out: CvWorkload(
        name, ("pcnn", "att-cnn"), seed),
    "cli-analyze": lambda name, seed, out: CliWorkload(name, seed, out),
}


def environment():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def timed_setups(workload):
    """Set-up times of repeated set-ups, for at least SETUP_SECONDS and
    MIN_SETUPS times."""
    times = []
    begin = time.perf_counter()
    while (len(times) < MIN_SETUPS
           or time.perf_counter() - begin < SETUP_SECONDS):
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return times


def timed_unit(workload, clock=None):
    start = time.perf_counter()
    outcome = workload.unit()
    return {"wall": time.perf_counter() - start,
            "stages": clock.take() if clock else None, "outcome": outcome}


def run_untraced(workload, checks, seconds):
    setup_times = timed_setups(workload)
    units = []
    start = time.perf_counter()
    while True:
        units.append(timed_unit(workload))
        workload.check(units[-1]["outcome"], checks)
        if time.perf_counter() - start + units[-1]["wall"] > seconds:
            break
    setup_times += timed_setups(workload)
    metrics = {"setup_s": statistics.median(setup_times),
               "wall_s": statistics.median(u["wall"] for u in units)}
    info = {"units": len(units), "unit_walls": [u["wall"] for u in units],
            "setup_times": setup_times,
            "f1_mean": workload.f1_mean(units[0]["outcome"])}
    return metrics, info


def run_traced(workload, checks, out_dir):
    clock = StageClock()
    clock.install()
    workload.setup()
    setup_records = [clock.take()]
    reference = timed_unit(workload, clock)
    workload.check(reference["outcome"], checks)

    tracer = Tracer()
    layers.observe(tracer)
    tracer.install(MODULES)
    try:
        tracer.begin_run("setup")
        workload.setup()
        tracer.begin_run("unit")
        start = time.perf_counter()
        outcome = workload.unit()
        traced = time.perf_counter() - start
    finally:
        tracer.uninstall()
    clock.uninstall()
    workload.check(outcome, checks)
    tracer.write(os.path.join(out_dir, "spans.json"))
    metrics = layers.per_layer(tracer, f1_mean=workload.f1_mean(outcome),
                               overhead=traced / reference["wall"] - 1.0)
    metrics.update({"stage." + name: value for name, value in
                    workload.stage_metrics([reference],
                                           setup_records).items()})
    return metrics, {"units": 1, "reference_wall_s": reference["wall"],
                     "traced_wall_s": traced}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.workload, args.seed, args.out)
    checks = Checks()
    if args.trace:
        metrics, info = run_traced(workload, checks, args.out)
    else:
        metrics, info = run_untraced(workload, checks, args.seconds)
    described = workload.describe()
    for failure in checks.failures:
        sys.stderr.write("check failed: %s\n" % failure)
    with open(os.path.join(args.out, "result.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"metrics": metrics, "attempted": checks.attempted,
                   "failed": checks.failed, "failures": checks.failures,
                   "inputs": described, "run": info,
                   "environment": environment()}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
