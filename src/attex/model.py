"""Classifier head, training loop with the train-F1 stop rule,
document-level opinion aggregation, macro-F1, and experiment drivers.

Training runs mini-batch gradient descent on mean cross-entropy. Every
`eval_period` epochs the train macro-F1 is measured; the run stops when
it exceeds `stop_threshold` (strictly) or the epoch cap is reached.
Evaluation aggregates per-context probabilities into one prediction per
(document, source group, target group) and scores macro-F1 of the
positive and negative classes, averaged per document by default.
"""

from collections import defaultdict

import numpy as np

from . import corpus as cp
from . import encoders as enc
from . import lexicons as lx
from . import tensorgrad as tg
from . import termizer as tz
from .errors import NumericError

LABELS = lx.POLARITIES
LABEL_INDEX = {label: i for i, label in enumerate(LABELS)}

SCOPE_DOCUMENT = "per-document-averaged"
SCOPE_COLLECTION = "collection"
SCOPES = (SCOPE_DOCUMENT, SCOPE_COLLECTION)

OPTIMIZERS = ("sgd", "adam")


class Prediction:
    """Probability vector with argmax label; exact ties go neutral."""

    __slots__ = ("probabilities",)

    def __init__(self, probabilities):
        self.probabilities = np.asarray(probabilities, dtype=float)
        if self.probabilities.shape != (len(LABELS),):
            raise ValueError("expected %d probabilities" % len(LABELS))

    @property
    def predicted(self):
        p = self.probabilities
        best = p.max()
        winners = np.flatnonzero(p == best)
        if len(winners) != 1:
            return lx.NEUTRAL
        return LABELS[winners[0]]


class ClassifierHead:
    """Linear readout over tanh(s) followed by softmax, 3 classes."""

    def __init__(self, z, rng):
        limit = np.sqrt(6.0 / (z + len(LABELS)))
        self.w_r = tg.Parameter(rng.uniform(-limit, limit, (z, len(LABELS))),
                                "head.w_r")
        self.b_r = tg.Parameter(np.zeros(len(LABELS)), "head.b_r")
        self.z = z

    def parameters(self):
        return [self.w_r, self.b_r]

    def forward(self, tape, s):
        logits = tg.add(tg.matmul(tg.tanh(s), self.w_r), self.b_r)
        return tg.softmax(logits)


def head_forward(s, head):
    """Probabilities for a raw context vector."""
    tape = tg.Tape()
    probs = head.forward(tape, tape.constant(np.asarray(s, dtype=float)))
    return Prediction(probs.data.copy())


class AttitudeModel:
    """Embedder + encoder + head trained as one parameter set."""

    def __init__(self, embedder, encoder, head):
        if head.z != encoder.z:
            raise ValueError("head size %d does not match encoder z=%d"
                             % (head.z, encoder.z))
        self.embedder = embedder
        self.encoder = encoder
        self.head = head

    def parameters(self):
        return (self.embedder.parameters() + self.encoder.parameters()
                + self.head.parameters())

    def forward(self, tape, seq):
        ctx = self.embedder.embed(tape, seq)
        out = self.encoder.encode(tape, ctx)
        probs = self.head.forward(tape, out.s)
        return probs, out

    def predict(self, seq):
        probs, _ = self.forward(tg.Tape(), seq)
        return Prediction(probs.data.copy())


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
        if neutral_ratio is not None and neutral_ratio <= 0:
            raise ValueError("neutral_ratio must be positive when set")
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
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epoch,train_f1,loss\n")
            for epoch, f1, loss in self.rows:
                fh.write("%d,%s,%s\n" % (epoch, repr(f1), repr(loss)))


class Sgd:
    def __init__(self, params, learning_rate):
        self.params = list(params)
        self.learning_rate = learning_rate

    def step(self):
        for p in self.params:
            p.data -= self.learning_rate * p.grad


class Adam:
    def __init__(self, params, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        lr = self.learning_rate
        for p, m, v in zip(self.params, self.m, self.v):
            m[...] = b1 * m + (1 - b1) * p.grad
            v[...] = b2 * v + (1 - b2) * p.grad ** 2
            m_hat = m / (1 - b1 ** self.t)
            v_hat = v / (1 - b2 ** self.t)
            p.data -= lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _make_optimizer(cfg, params):
    if cfg.optimizer == "sgd":
        return Sgd(params, cfg.learning_rate)
    return Adam(params, cfg.learning_rate)


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


def _label_of(value):
    return value.predicted if isinstance(value, Prediction) else value


def aggregate_opinions(context_predictions):
    """Mean probability vector per opinion key.

    context_predictions: iterable of (key, probability vector) where key
    is (doc_id, source_group, target_group).
    """
    grouped = defaultdict(list)
    for key, probs in context_predictions:
        grouped[key].append(np.asarray(probs, dtype=float))
    return {key: Prediction(np.mean(vectors, axis=0))
            for key, vectors in grouped.items()}


def _confusion_f1(keys, predicted, gold, cls):
    tp = fp = fn = 0
    for key in keys:
        p = _label_of(predicted.get(key, lx.NEUTRAL))
        g = _label_of(gold.get(key, lx.NEUTRAL))
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


def _class_macro(keys, predicted, gold):
    scores = [_confusion_f1(keys, predicted, gold, cls)
              for cls in (lx.POSITIVE, lx.NEGATIVE)]
    return sum(scores) / len(scores)


def macro_f1(predicted, gold, scope=SCOPE_DOCUMENT):
    """Macro-F1 of positive and negative predictions.

    Keys missing from `predicted` count as neutral predictions. The
    document scope averages per-document class-macro values; the
    collection scope pools confusion counts over all keys first.
    """
    if scope not in SCOPES:
        raise ValueError("unknown scope: %r" % (scope,))
    keys = sorted(set(predicted) | set(gold))
    if not keys:
        return 0.0
    if scope == SCOPE_COLLECTION:
        return _class_macro(keys, predicted, gold)
    by_doc = defaultdict(list)
    for key in keys:
        by_doc[key[0]].append(key)
    per_doc = [_class_macro(doc_keys, predicted, gold)
               for _, doc_keys in sorted(by_doc.items())]
    return sum(per_doc) / len(per_doc)


def _sample_gold(samples):
    return {s.opinion_key(): s.label for s in samples}


def predict_opinions(model, samples):
    """One aggregated prediction per opinion key of the samples."""
    return aggregate_opinions((s.opinion_key(),
                               model.predict(s.terms).probabilities)
                              for s in samples)


def evaluate_on_samples(model, samples, gold, scope=SCOPE_DOCUMENT):
    return macro_f1(predict_opinions(model, samples), gold, scope)


def train(model, samples, cfg, rng=None):
    """Mini-batch gradient descent under the measurement protocol."""
    if not samples:
        raise ValueError("no training samples")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    if cfg.neutral_ratio is not None:
        samples = downsample_neutral(samples, cfg.neutral_ratio, rng)
    params = model.parameters()
    optimizer = _make_optimizer(cfg, params)
    history = RunHistory(cfg.eval_period)
    gold = _sample_gold(samples)
    labels = [LABEL_INDEX[s.label] for s in samples]

    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(samples))
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            tape = tg.Tape()
            total = None
            for idx in batch:
                probs, _ = model.forward(tape, samples[idx].terms)
                loss = tg.cross_entropy(probs, labels[idx])
                total = loss if total is None else tg.add(total, loss)
            total = tg.scale(total, 1.0 / len(batch))
            if not np.isfinite(total.data):
                raise NumericError(
                    "non-finite loss %r at epoch %d" % (float(total.data), epoch))
            tape.backward(total)
            optimizer.step()
            for p in params:
                p.zero_grad()
            epoch_losses.append(float(total.data))
        if epoch % cfg.eval_period == 0:
            f1 = evaluate_on_samples(model, samples, gold, SCOPE_DOCUMENT)
            history.add(epoch, f1, float(np.mean(epoch_losses)))
            if should_stop(epoch, f1, cfg):
                break
    return history


def extract_samples(docs, corpus, frame_lexicon, lemmatizer=tz.lemmatize):
    """Uncropped contexts of docs and the opinions behind them.

    Each document's neutral pairs are augmented once. Returns (samples,
    opinions), opinions keyed like ContextSample.opinion_key().
    """
    samples = []
    opinions = {}
    for doc in docs:
        augmented = cp.augment_neutral(doc, corpus.opinions(doc.doc_id))
        for opinion in augmented:
            opinions[(doc.doc_id,) + opinion.pair()] = opinion
        samples.extend(cp.extract_contexts(doc, augmented, frame_lexicon,
                                           lemmatizer))
    return samples, opinions


def samples_for_docs(docs, corpus, frame_lexicon, n, lemmatizer, gold=None):
    """Contexts of docs cropped to n terms: (kept, dropped count).

    A `gold` dict also receives the label of every opinion of docs.
    """
    samples, opinions = extract_samples(docs, corpus, frame_lexicon,
                                        lemmatizer)
    if gold is not None:
        gold.update((key, o.label) for key, o in opinions.items())
    return prepare_samples(samples, n)


def gold_for_docs(docs, corpus):
    """Label of every opinion of docs, augmented neutral pairs included."""
    _, opinions = extract_samples(docs, corpus, None)
    return {key: o.label for key, o in opinions.items()}


class SplitResult:
    __slots__ = ("f1", "history", "model", "test_samples", "dropped")

    def __init__(self, f1, history, model, test_samples, dropped):
        self.f1 = f1
        self.history = history
        self.model = model
        self.test_samples = test_samples
        self.dropped = dropped


def _run_split(train_docs, test_docs, corpus, encoder_cfg, train_cfg,
               frame_lexicon, embed_options, scope, split_seed):
    train_samples, dropped_train = samples_for_docs(
        train_docs, corpus, frame_lexicon, encoder_cfg.n, tz.lemmatize)
    gold = {}
    test_samples, dropped_test = samples_for_docs(
        test_docs, corpus, frame_lexicon, encoder_cfg.n, tz.lemmatize, gold)
    vocab = enc.build_vocab(train_samples)
    model = build_model(vocab, encoder_cfg, embed_options,
                        rng=np.random.default_rng(split_seed))
    history = train(model, train_samples, train_cfg,
                    rng=np.random.default_rng(split_seed + [1]))
    f1 = evaluate_on_samples(model, test_samples, gold, scope)
    return SplitResult(f1, history, model, test_samples,
                       dropped_train + dropped_test)


class CvResult:
    __slots__ = ("per_fold", "histories", "folds", "splits")

    def __init__(self, per_fold, histories, folds, splits=None):
        self.per_fold = list(per_fold)
        self.histories = list(histories)
        self.folds = folds
        self.splits = list(splits) if splits is not None else None

    @property
    def mean(self):
        return sum(self.per_fold) / len(self.per_fold)

    def to_csv(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("fold,f1\n")
            for fold, f1 in enumerate(self.per_fold):
                fh.write("%d,%s\n" % (fold, repr(f1)))


def run_cv(corpus, encoder_cfg, train_cfg, frame_lexicon=None,
           embed_options=None, k=3, scope=SCOPE_DOCUMENT):
    """k-fold cross-validation over sentence-balanced document folds."""
    folds = cp.split_folds(corpus.documents, k=k, seed=train_cfg.seed)
    results = []
    for fold in range(k):
        train_docs = [d for d in corpus.documents
                      if folds.fold_of_doc[d.doc_id] != fold]
        test_docs = [d for d in corpus.documents
                     if folds.fold_of_doc[d.doc_id] == fold]
        results.append(_run_split(train_docs, test_docs, corpus, encoder_cfg,
                                  train_cfg, frame_lexicon, embed_options,
                                  scope, split_seed=[train_cfg.seed, fold]))
    return CvResult([r.f1 for r in results], [r.history for r in results],
                    folds, results)


def run_train_test(corpus, manifest, encoder_cfg, train_cfg,
                   frame_lexicon=None, embed_options=None,
                   scope=SCOPE_DOCUMENT):
    """Train on the manifest's train documents, score its test ones."""
    train_docs, test_docs = cp.train_test_split(corpus.documents, manifest)
    return _run_split(train_docs, test_docs, corpus, encoder_cfg, train_cfg,
                      frame_lexicon, embed_options, scope,
                      split_seed=[train_cfg.seed, 0])


def gradient_suite(trials=20, seed=0, n_max=10, h_max=8, filters_max=6):
    """Gradient-check every encoder kind composed with the head.

    Returns {kind: max relative error over trials}.
    """
    worst = {}
    for kind_idx, kind in enumerate(enc.ENCODER_KINDS):
        rng = np.random.default_rng([seed, kind_idx])
        kind_worst = 0.0
        for _ in range(trials):
            n_real = int(rng.integers(3, 7))
            n = min(n_max, n_real + int(rng.integers(0, 2)))
            cfg = enc.EncoderConfig(
                kind, n=n, h=int(rng.integers(2, min(h_max, 3) + 1)),
                filters=int(rng.integers(2, min(filters_max, 3) + 1)),
                window=int(rng.integers(1, 4)), k=3,
                feature_mode=str(rng.choice(enc.FEATURE_MODES)))
            subj, obj = [int(v) for v in rng.choice(n_real, 2, replace=False)]
            frame_positions = [i for i in range(n_real)
                               if i not in (subj, obj) and rng.random() < 0.4]
            terms = [tz.Term.word("w%d" % int(rng.integers(0, 6)))
                     for _ in range(n_real)]
            for pos in frame_positions:
                terms[pos] = tz.Term.frame("f%d" % pos,
                                           str(rng.choice(lx.POLARITIES)))
            terms[subj] = tz.Term.entity_subj()
            terms[obj] = tz.Term.entity_obj()
            seq = tz.TermSequence(terms, subj, obj)
            vocab = enc.build_vocab(
                [cp.ContextSample("d", 0, seq, "neutral", "a", "b")])
            embed_options = {"m": 2, "polarity_dim": 2,
                             "use_position": enc.default_use_position(kind),
                             "position_dim": 1}
            model = build_model(vocab, cfg, embed_options, rng=rng)
            # Redraw parameters at O(1) scale: in the near-linear regime of
            # fresh tiny weights, shift parameters have structurally tiny
            # gradients that central differences cannot resolve.
            for p in model.parameters():
                p.data[...] = rng.normal(0.0, 0.5, p.data.shape)
            gold = int(rng.integers(0, 3))

            def f(tape):
                probs, _ = model.forward(tape, seq)
                # The 1e-3 factor keeps central-difference cancellation
                # noise below the relative-error floor; coordinates whose
                # true gradient is ~1e-9 are uncertifiable otherwise.
                return tg.scale(tg.cross_entropy(probs, gold), 1e-3)

            err = tg.gradient_check(f, model.parameters())
            kind_worst = max(kind_worst, err)
        worst[kind] = kind_worst
    return worst
