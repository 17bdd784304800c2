"""Classifier head, training loop with the train-F1 stop rule,
document-level opinion aggregation, macro-F1, and experiment drivers.

Training runs mini-batch gradient descent on mean cross-entropy; each
mini-batch is one forward and one backward pass over (B, ...) arrays,
and inference runs the same batched forward in chunks. Every
`eval_period` epochs the train macro-F1 is measured; the run stops when
it exceeds `stop_threshold` (strictly) or the epoch cap is reached.
Evaluation averages per-context probabilities into one label per
(document, source group, target group) and scores macro-F1 of the
positive and negative classes, averaged per document by default.
Cross-validation and the train/test protocol run one routine that
extracts the corpus once and splits its contexts and gold by document;
it trains the splits at once, in up to 2c - 1 processes on c usable CPUs.
"""

import os
import pickle
import signal
import sys
from collections import defaultdict

import numpy as np

from . import corpus as cp
from . import encoders as enc
from . import lexicons as lx
from . import tensorgrad as tg
from . import termizer as tz
from .errors import DataError, NumericError, write_lines

SCOPE_DOCUMENT = "per-document-averaged"
SCOPE_COLLECTION = "collection"
SCOPES = (SCOPE_DOCUMENT, SCOPE_COLLECTION)


class ClassifierHead(enc.Module):
    """Linear readout over tanh(s) to 3 class logits per row."""

    def __init__(self, z, rng):
        self.w_r = enc._glorot(rng, (z, len(lx.POLARITIES)), "head.w_r")
        self.b_r = tg.Parameter(np.zeros(len(lx.POLARITIES)), "head.b_r")
        self.z = z

    def forward(self, s):
        """s (B, z) -> logits (B, 3)."""
        return tg.tanh_affine(s, self.w_r, self.b_r)


class AttitudeModel:
    """Embedder + encoder + head trained as one parameter set."""

    def __init__(self, embedder, encoder, head):
        if head.z != encoder.z:
            raise ValueError("head size %d does not match encoder z=%d"
                             % (head.z, encoder.z))
        self.embedder = embedder
        self.encoder = encoder
        self.head = head
        # Every parameter is a view into this one; the optimizer steps it.
        self.flat = tg.Parameter.packed(self.parameters())

    def __reduce__(self):
        # A copy packs its own buffer from copies of the parts' parameters.
        return AttitudeModel, (self.embedder, self.encoder, self.head)

    def parameters(self):
        # By hand: flat is a Parameter too, so an enc.Module would list it.
        return (self.embedder.parameters() + self.encoder.parameters()
                + self.head.parameters())

    def compile(self, samples):
        """The samples' contexts as one Batch for this model."""
        cfg = self.encoder.cfg
        return enc.compile_sequences([s.terms for s in samples],
                                     self.embedder.vocab, self.embedder.n,
                                     cfg.k, cfg.feature_mode)

    def forward(self, tape, batch):
        """Batch of B contexts -> (logits (B, 3), alpha): alpha (B, n) is
        the encoder's attention weights, exactly 0 on padding, or None for
        a kind without attention."""
        s, alpha = self.encoder.encode(self.embedder.embed(tape, batch), batch)
        return self.head.forward(s), alpha


def build_model(vocab, encoder_cfg, embed_options=None, rng=None):
    """Wire an embedder, encoder, and head for one training run."""
    if rng is None:
        rng = np.random.default_rng(0)
    options = dict(embed_options or {})
    options.setdefault("use_position", enc.default_use_position(encoder_cfg.kind))
    embedder = enc.Embedder(vocab, n=encoder_cfg.n, rng=rng, **options)
    encoder = enc.build_encoder(encoder_cfg, embedder.row_width, rng)
    head = ClassifierHead(encoder.z, rng)
    return AttitudeModel(embedder, encoder, head)


class TrainConfig:
    __slots__ = ("max_epochs", "eval_period", "stop_threshold", "learning_rate",
                 "optimizer", "batch_size", "seed", "neutral_ratio")

    def __init__(self, max_epochs=150, eval_period=10, stop_threshold=0.85,
                 learning_rate=1e-3, optimizer="adam", batch_size=32, seed=0,
                 neutral_ratio=None):
        if max_epochs < 0:
            raise ValueError("max_epochs must be non-negative")
        if eval_period < 1:
            raise ValueError("eval_period must be positive")
        if max_epochs % eval_period != 0:
            raise ValueError("eval_period must divide max_epochs")
        if not 0.0 <= stop_threshold < 1.0:
            raise ValueError("stop_threshold must lie in [0, 1)")
        if optimizer not in OPTIMIZERS:
            raise ValueError("unknown optimizer: %r" % (optimizer,))
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        if neutral_ratio is not None and not 0 < neutral_ratio < np.inf:
            raise ValueError("neutral_ratio must be positive and finite")
        if not 0 < learning_rate < np.inf:
            raise ValueError("learning_rate must be positive and finite")
        self.max_epochs = max_epochs
        self.eval_period = eval_period
        self.stop_threshold = stop_threshold
        self.learning_rate = learning_rate
        self.optimizer = optimizer
        self.batch_size = batch_size
        self.seed = seed
        self.neutral_ratio = neutral_ratio


def should_stop(epoch, train_f1, cfg):
    """Stop strictly above the threshold or at the epoch cap."""
    return train_f1 > cfg.stop_threshold or epoch >= cfg.max_epochs


class RunHistory:
    """(epoch, train_f1, loss) rows at measurement epochs."""

    def __init__(self, eval_period):
        self.eval_period = eval_period
        self.rows = []

    def add(self, epoch, train_f1, loss):
        if epoch % self.eval_period != 0:
            raise ValueError("epoch %d not a measurement epoch" % epoch)
        self.rows.append((epoch, float(train_f1), float(loss)))

    def epochs(self):
        return [row[0] for row in self.rows]

    def final_f1(self):
        return self.rows[-1][1] if self.rows else None

    def to_csv(self, path):
        write_lines(path, ["epoch,train_f1,loss"]
                    + ["%d,%s,%s" % (epoch, repr(f1), repr(loss))
                       for epoch, f1, loss in self.rows])


class Sgd:
    """Gradient descent on one parameter, the model's flat buffer."""

    def __init__(self, param, learning_rate):
        self.param = param
        self.learning_rate = learning_rate

    def step(self):
        self.param.data -= self.learning_rate * self.param.grad


class Adam:
    """Adam on one parameter, the model's flat buffer."""

    def __init__(self, param, learning_rate):
        self.param = param
        self.learning_rate = learning_rate
        self.t = 0
        self.m = np.zeros_like(param.data)
        self.v = np.zeros_like(param.data)

    def step(self):
        self.t += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        p, m, v = self.param, self.m, self.v
        # In place, with the values of m = b1*m + (1-b1)*g, v likewise and
        # p -= lr * m_hat / (sqrt(v_hat) + eps).
        m *= b1
        m += (1 - b1) * p.grad
        v *= b2
        v += (1 - b2) * np.square(p.grad)
        step = m / (1 - b1 ** self.t) * self.learning_rate
        step /= np.sqrt(v / (1 - b2 ** self.t)) + eps
        p.data -= step


OPTIMIZERS = {"sgd": Sgd, "adam": Adam}


def prepare_samples(samples, n):
    """Crop sample term sequences to n; drop pairs that cannot fit."""
    kept = []
    dropped = 0
    for sample in samples:
        try:
            seq = tz.crop_to_window(sample.terms, n)
        except tz.ContextDropped:
            dropped += 1
            continue
        if seq is sample.terms:
            kept.append(sample)
        else:
            kept.append(cp.ContextSample(sample.doc_id, sample.sentence_idx, seq,
                                         sample.label, sample.source_group,
                                         sample.target_group))
    return kept, dropped


def downsample_neutral(samples, ratio, rng):
    """Cap neutral samples at ratio times the sentiment sample count."""
    sentiment = sum(1 for s in samples if s.label != lx.NEUTRAL)
    neutral_idx = [i for i, s in enumerate(samples) if s.label == lx.NEUTRAL]
    cap = int(round(ratio * sentiment))
    if len(neutral_idx) <= cap:
        return list(samples)
    keep = set(rng.choice(neutral_idx, size=cap, replace=False).tolist())
    return [s for i, s in enumerate(samples)
            if s.label != lx.NEUTRAL or i in keep]


def opinion_labels(keys, probabilities):
    """{key: label} from the mean of each opinion key's probability rows.

    keys[i] is the (doc_id, source_group, target_group) key of row i of
    probabilities (N, 3); keys keep their first-seen order. The label is
    the argmax of the key's mean; an exact tie for the maximum goes
    neutral.
    """
    index = {}
    rows = np.array([index.setdefault(key, len(index)) for key in keys],
                    dtype=np.intp)
    sums = np.zeros((len(index), len(lx.POLARITIES)))
    np.add.at(sums, rows, probabilities)
    means = sums / np.bincount(rows, minlength=len(index))[:, None]
    winners = means == means.max(axis=1, keepdims=True)
    best = np.where(winners.sum(axis=1) == 1, means.argmax(axis=1),
                    lx.POLARITY_INDEX[lx.NEUTRAL])
    return {key: lx.POLARITIES[i] for key, i in zip(index, best.tolist())}


def _confusion_f1(labels, cls):
    """F1 of one class over (predicted, gold) label pairs."""
    tp = fp = fn = 0
    for p, g in labels:
        if p == cls and g == cls:
            tp += 1
        elif p == cls:
            fp += 1
        elif g == cls:
            fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _class_macro(labels):
    scores = [_confusion_f1(labels, cls) for cls in (lx.POSITIVE, lx.NEGATIVE)]
    return sum(scores) / len(scores)


def macro_f1(predicted, gold, scope=SCOPE_DOCUMENT):
    """Macro-F1 of positive and negative labels; both dicts map opinion
    keys to labels.

    Keys missing from `predicted` count as neutral predictions. The
    document scope averages per-document class-macro values; the
    collection scope pools confusion counts over all keys first.
    """
    if scope not in SCOPES:
        raise ValueError("unknown scope: %r" % (scope,))
    keys = sorted(set(predicted) | set(gold))
    if not keys:
        return 0.0
    labels = [(predicted.get(key, lx.NEUTRAL), gold.get(key, lx.NEUTRAL))
              for key in keys]
    if scope == SCOPE_COLLECTION:
        return _class_macro(labels)
    by_doc = defaultdict(list)
    for key, pair in zip(keys, labels):
        by_doc[key[0]].append(pair)
    per_doc = [_class_macro(doc_labels)
               for _, doc_labels in sorted(by_doc.items())]
    return sum(per_doc) / len(per_doc)


# Contexts per inference forward pass; bounds the memory of inference.
INFERENCE_CHUNK = 64


def infer(model, samples, compiled=None):
    """(probabilities (N, 3), attention weights (N, n) or None) of the
    samples, from forward passes over chunks of INFERENCE_CHUNK contexts.

    `compiled` is model.compile(samples) when the caller already has it.
    """
    if compiled is None:
        compiled = model.compile(samples)
    probabilities = np.empty((len(compiled), len(lx.POLARITIES)))
    alphas = (np.empty((len(compiled), model.embedder.n))
              if model.encoder.attentive else None)
    for start in range(0, len(compiled), INFERENCE_CHUNK):
        rows = slice(start, start + INFERENCE_CHUNK)
        logits, alpha = model.forward(tg.Tape(record=False),
                                      compiled.take(rows))
        probabilities[rows] = tg._softmax_rows(logits.data)
        if alphas is not None:
            alphas[rows] = alpha
    return probabilities, alphas


def predict_opinions(model, samples, compiled=None):
    """{opinion key: label} over the samples (see opinion_labels)."""
    probabilities, _ = infer(model, samples, compiled)
    return opinion_labels([s.opinion_key() for s in samples], probabilities)


def evaluate_on_samples(model, samples, gold, scope=SCOPE_DOCUMENT,
                        compiled=None):
    return macro_f1(predict_opinions(model, samples, compiled), gold, scope)


def train(model, samples, cfg, rng):
    """Mini-batch gradient descent under the measurement protocol."""
    if not samples:
        raise ValueError("no training samples")
    if cfg.neutral_ratio is not None:
        samples = downsample_neutral(samples, cfg.neutral_ratio, rng)
        if not samples:
            raise ValueError("neutral_ratio keeps no training samples: "
                             "none is positive or negative")
    optimizer = OPTIMIZERS[cfg.optimizer](model.flat, cfg.learning_rate)
    history = RunHistory(cfg.eval_period)
    gold = {s.opinion_key(): s.label for s in samples}
    labels = np.array([lx.POLARITY_INDEX[s.label] for s in samples])
    compiled = model.compile(samples)

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(samples))
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            tape = tg.Tape()
            logits, _ = model.forward(tape, compiled.take(rows))
            loss = tg.softmax_cross_entropy(logits, labels[rows])
            if not np.isfinite(loss.data):
                raise NumericError(
                    "non-finite loss %r at epoch %d" % (float(loss.data), epoch))
            tape.backward(loss)
            # A step that overflows is reported by the check below, once,
            # not also as a numpy warning on stderr.
            with np.errstate(invalid="ignore", over="ignore"):
                optimizer.step()
            if not np.isfinite(model.flat.data).all():
                bad = next(p for p in model.parameters()
                           if not np.isfinite(p.data).all())
                raise NumericError(
                    "parameter %r is not finite after a step of epoch %d"
                    % (bad.name, epoch))
            model.flat.zero_grad()
            epoch_losses.append(float(loss.data))
        if epoch % cfg.eval_period == 0:
            f1 = evaluate_on_samples(model, samples, gold, SCOPE_DOCUMENT,
                                     compiled)
            history.add(epoch, f1, float(np.mean(epoch_losses)))
            if should_stop(epoch, f1, cfg):
                break
    return history


def opinion_gold(docs, corpus):
    """{opinion key: label} of docs: each document's annotated opinions,
    then its augmented neutral pairs; keyed like ContextSample.opinion_key().
    """
    return {(doc.doc_id,) + o.pair(): o.label for doc in docs
            for o in cp.augment_neutral(doc, corpus.opinions(doc.doc_id))}


def extract_samples(docs, corpus, frame_lexicon, lemmatizer=tz.lemmatize):
    """Uncropped contexts of docs, in document order; each document's
    neutral pairs are augmented once."""
    return [sample for doc in docs for sample in cp.extract_contexts(
        doc, cp.augment_neutral(doc, corpus.opinions(doc.doc_id)),
        frame_lexicon, lemmatizer)]


def samples_for_docs(docs, corpus, frame_lexicon, n, lemmatizer):
    """Contexts of docs cropped to n terms: (kept, dropped count)."""
    return prepare_samples(
        extract_samples(docs, corpus, frame_lexicon, lemmatizer), n)


class SplitResult:
    __slots__ = ("f1", "history", "model", "test_samples", "dropped")

    def __init__(self, f1, history, model, test_samples, dropped):
        self.f1 = f1
        self.history = history
        self.model = model
        self.test_samples = test_samples
        self.dropped = dropped


def fit(train_samples, encoder_cfg, train_cfg, embed_options=None, split=0):
    """Vocabulary, model and training of one split: (model, history).

    The model is built from default_rng([seed, split]) and trained with
    default_rng([seed, split, 1]), seed being train_cfg.seed; the CV fold
    index or 0 for a train/test manifest is the split.
    """
    model = build_model(enc.build_vocab(train_samples), encoder_cfg,
                        embed_options,
                        rng=np.random.default_rng([train_cfg.seed, split]))
    history = train(model, train_samples, train_cfg,
                    rng=np.random.default_rng([train_cfg.seed, split, 1]))
    return model, history


def _split_sides(samples, gold, test_split, k):
    """(train samples, test samples, test gold) of each split 0..k-1."""
    return [([s for s in samples if test_split.get(s.doc_id) != split],
             [s for s in samples if test_split.get(s.doc_id) == split],
             {key: label for key, label in gold.items()
              if test_split.get(key[0]) == split}) for split in range(k)]


def _until_failure(run, splits):
    """run(split) of each split in turn; an error ends the list."""
    outcomes = []
    try:
        for split in splits:
            outcomes.append(run(split))
    except Exception as exc:
        outcomes.append(exc)
    return outcomes


def _in_processes(run, k):
    """[run(split) for split in range(k)]. Split i runs in process i mod
    P, P = min(k, 2c - 1) for c usable CPUs, 0 being this one, so that
    the kernel time-shares the CPUs among the splits; the splits of a
    process that cannot be forked run in this one. The first failed
    split raises its error, as in one process."""
    count = (min(k, 2 * len(os.sched_getaffinity(0)) - 1)
             if hasattr(os, "sched_getaffinity") else 1)
    workers = {}  # first split: (pid, read end of its pipe), until reaped
    try:
        for first in range(1, count):
            try:
                workers[first] = _forked(run, range(first, k, count))
            except OSError:  # say, no process to spare: its splits run here
                pass
        mine = [split for split in range(k) if split % count not in workers]
        done = dict(zip(mine, _until_failure(run, mine)))
        for first in list(workers):
            pid, pipe = workers[first]
            with pipe:
                data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del workers[first]
            sent = pickle.loads(data) if data else [RuntimeError(
                "the process of split %d exited with code %d" % (first, code))]
            done.update(zip(range(first, k, count), sent))
        # A split missing from done comes after a failed one of its process.
        for split in range(k):
            if isinstance(done[split], Exception):
                raise done[split]
        return [done[split] for split in range(k)]
    finally:
        for pid, pipe in workers.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _forked(run, splits):
    """Fork a process that runs the splits, writes their pickled outcome
    list to a pipe and exits: (its pid, the pipe's read end)."""
    read, write = os.pipe()
    sys.stderr.flush()  # the forked process flushes it if it fails
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:  # never returns: the caller's stack is not this process's
        code = 1
        try:
            os.close(read)
            sent = pickle.dumps(_until_failure(run, splits))
            with os.fdopen(write, "wb") as pipe:
                pipe.write(sent)
            code = 0
        except BaseException:  # say why, as no other process can
            sys.excepthook(*sys.exc_info())
        finally:
            sys.stderr.flush()
            os._exit(code)
    os.close(write)
    return pid, os.fdopen(read, "rb")


def _run_splits(corpus, test_split, k, encoder_cfg, train_cfg, frame_lexicon,
                embed_options, scope):
    """SplitResults of splits 0..k-1. The corpus is extracted once; split
    i trains on the documents whose test_split.get(doc_id) is not i and
    scores the others, each side in corpus order. It returns the model
    it trained, its history and its F1; a forked process pickles them
    back. Its `dropped` is the corpus total, as its two sides cover it.
    A split with no training context is a DataError, raised before any
    trains."""
    samples, dropped = samples_for_docs(corpus.documents, corpus,
                                        frame_lexicon, encoder_cfg.n,
                                        tz.lemmatize)
    gold = opinion_gold(corpus.documents, corpus)
    sides = _split_sides(samples, gold, test_split, k)
    for split, (train_samples, _, _) in enumerate(sides):
        if not train_samples:
            raise DataError("split %d has no training context" % split)

    def run(split):
        model, history = fit(sides[split][0], encoder_cfg, train_cfg,
                             embed_options, split)
        return model, history, evaluate_on_samples(
            model, *sides[split][1:], scope)

    outcomes = _in_processes(run, k)
    return [SplitResult(f1, history, model, sides[split][1], dropped)
            for split, (model, history, f1) in enumerate(outcomes)]


class CvResult:
    """The SplitResult of each fold, and the fold assignment."""

    __slots__ = ("splits", "folds")

    def __init__(self, splits, folds):
        self.splits = list(splits)
        self.folds = folds

    @property
    def per_fold(self):
        return [split.f1 for split in self.splits]

    @property
    def histories(self):
        return [split.history for split in self.splits]

    @property
    def mean(self):
        return sum(self.per_fold) / len(self.splits)

    def to_csv(self, path):
        write_lines(path, ["fold,f1"]
                    + ["%d,%s" % (fold, repr(f1))
                       for fold, f1 in enumerate(self.per_fold)])


def run_cv(corpus, encoder_cfg, train_cfg, frame_lexicon=None,
           embed_options=None, k=3, scope=SCOPE_DOCUMENT):
    """k-fold cross-validation over sentence-balanced document folds."""
    folds = cp.split_folds(corpus.documents, k=k, seed=train_cfg.seed)
    return CvResult(_run_splits(corpus, folds.fold_of_doc, k, encoder_cfg,
                                train_cfg, frame_lexicon, embed_options,
                                scope), folds)


def run_train_test(corpus, manifest, encoder_cfg, train_cfg,
                   frame_lexicon=None, embed_options=None,
                   scope=SCOPE_DOCUMENT):
    """Train on the manifest's train documents, score its test ones.

    It trains the model that `attex train --mode traintest` writes (both
    call `fit` with split 0) and scores it as `attex eval` does, in
    memory: the attention-discrepancy acceptance test studies that model
    and its held-out contexts without files.
    """
    _, test_docs = cp.train_test_split(corpus.documents, manifest)
    return _run_splits(corpus, {doc.doc_id: 0 for doc in test_docs}, 1,
                       encoder_cfg, train_cfg, frame_lexicon, embed_options,
                       scope)[0]


def _suite_sample(rng, n_real, participants, row):
    """A context of n_real random words and frames around two participants."""
    subj, obj = (int(p) for p in participants)
    terms = [tz.Term.word("w%d" % int(rng.integers(0, 6)))
             for _ in range(n_real)]
    for pos in range(n_real):
        if pos not in (subj, obj) and rng.random() < 0.4:
            terms[pos] = tz.Term.frame("f%d" % pos,
                                       str(rng.choice(lx.POLARITIES)))
    terms[subj] = tz.Term.entity_subj()
    terms[obj] = tz.Term.entity_obj()
    return cp.ContextSample("d", row, tz.TermSequence(terms, subj, obj),
                            lx.NEUTRAL, "a", "b")


def gradient_suite(trials, seed):
    """Gradient-check every encoder kind composed with the head and loss.

    Each trial checks one mini-batch of three contexts of mixed lengths:
    one fills all n terms; one is shorter, with its participants adjacent
    at its end, so a pcnn segment is empty; one has a random length. The
    <pad> rows take part in the check, so padding that reached the loss
    would show as a finite difference that the tape does not have.

    Returns {kind: max relative error over trials}.
    """
    if trials < 1:
        raise ValueError("the gradient check needs at least 1 trial, got %d"
                         % trials)
    worst = {}
    for kind_idx, kind in enumerate(enc.ENCODER_KINDS):
        rng = np.random.default_rng([seed, kind_idx])
        kind_worst = 0.0
        for _ in range(trials):
            n = int(rng.integers(4, 7))
            cfg = enc.EncoderConfig(
                kind, n=n, h=int(rng.integers(2, 4)),
                filters=int(rng.integers(2, 4)),
                window=int(rng.integers(1, 4)), k=3,
                feature_mode=str(rng.choice(enc.FEATURE_MODES)))
            short = int(rng.integers(2, n))
            adjacent = [short - 2, short - 1]
            rng.shuffle(adjacent)
            free = int(rng.integers(2, n + 1))
            samples = [
                _suite_sample(rng, n, rng.choice(n, 2, replace=False), 0),
                _suite_sample(rng, short, adjacent, 1),
                _suite_sample(rng, free, rng.choice(free, 2, replace=False), 2),
            ]
            embed_options = {"m": 2, "polarity_dim": 2, "position_dim": 1}
            model = build_model(enc.build_vocab(samples), cfg, embed_options,
                                rng=rng)
            # Redraw parameters at O(1) scale: in the near-linear regime of
            # fresh tiny weights, shift parameters have structurally tiny
            # gradients that central differences cannot resolve.
            for p in model.parameters():
                p.data[...] = rng.normal(0.0, 0.5, p.data.shape)
            batch = model.compile(samples)
            gold = rng.integers(0, 3, size=len(samples))

            def f(tape):
                logits, _ = model.forward(tape, batch)
                # The 1e-3 factor keeps central-difference cancellation
                # noise below the relative-error floor; coordinates whose
                # true gradient is ~1e-9 are uncertifiable otherwise.
                return tg.scale(tg.softmax_cross_entropy(logits, gold), 1e-3)

            err = tg.gradient_check(f, model.parameters())
            kind_worst = max(kind_worst, err)
        worst[kind] = kind_worst
    return worst
