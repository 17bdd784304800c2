"""Span tracing of the attex modules, installed from outside the package.

`Tracer.install` replaces every public function of a module, and every
public method of the classes it defines, with a wrapper that records a
span (name, start, end, parent span, run id) in memory. Tensor ops run
millions of times per workload unit, so their wrappers only count calls.
The per-term helpers in UNWRAPPED are left alone: they run as often and
no metric needs them. Their time, like that of the ops, is part of their
callers' self time. `uninstall` puts every original back.

A span's self time is its duration minus the time its child spans cover.
"""

import functools
import inspect
import json
import time
from collections import Counter

TENSORGRAD_NON_OPS = ("gradient_check", "save_checkpoint", "load_checkpoint",
                      "restore_parameters")

UNWRAPPED = {
    "tensorgrad.Tape.constant", "tensorgrad.Tape.zeros",
    "tensorgrad.Parameter.zero_grad",
    "encoders.LstmCell.step", "encoders.Vocab.id_of",
    "encoders.Vocab.id_of_term", "encoders.default_use_position",
    "termizer.lemmatize", "termizer.classify_token", "termizer.group_of",
    "termizer.Term.display",
    "lexicons.apply_negation", "lexicons.in_sentiment_lexicon",
    "lexicons.is_preposition", "lexicons.FrameLexicon.polarity_of",
    "corpus.ContextSample.opinion_key", "corpus.Opinion.pair",
    "model.should_stop", "analysis.label_class",
}


def short_module_name(module):
    return module.__name__.rsplit(".", 1)[-1]


def is_tensor_op(name):
    module, _, attr = name.partition(".")
    return (module == "tensorgrad" and "." not in attr
            and attr not in TENSORGRAD_NON_OPS)


class Tracer:
    """In-memory spans and call counts for the wrapped functions."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # [name id, start ns, end ns, parent index, run id]
        self.counts = Counter()
        self.peaks = Counter()
        self._calls = {}
        self.runs = []
        self._run = -1
        self._stack = [-1]
        self._patches = []
        self._observers = {}

    def begin_run(self, label):
        self.runs.append(label)
        self._run = len(self.runs) - 1

    def observe(self, name, fn):
        """Call fn(args, result) after each successful call of `name`, or
        fn(args, exception) when it raises."""
        self._observers[name] = fn

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, name):
        observer = self._observers.get(name)
        if is_tensor_op(name):
            calls = self._calls.setdefault(name, [0])

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[0] += 1
                return fn(*args, **kwargs)
            return counted

        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            record = [name_id, 0, 0, stack[-1], self._run]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                record[2] = clock()
                stack.pop()
                if observer is not None:
                    observer(args, exc)
                raise
            record[2] = clock()
            stack.pop()
            if observer is not None:
                observer(args, result)
            return result
        return spanned

    def _patch(self, owner, attr, original, name):
        if name in UNWRAPPED:
            return original
        wrapper = self._wrap(original, name)
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        return wrapper

    def install(self, modules):
        for module in modules:
            short = short_module_name(module)
            replaced = {}
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) \
                        != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._patch(module, attr, obj,
                                                    "%s.%s" % (short, attr))
                elif inspect.isclass(obj):
                    for method, fn in list(vars(obj).items()):
                        if not method.startswith("_") and inspect.isfunction(fn):
                            self._patch(obj, method, fn, "%s.%s.%s"
                                        % (short, obj.__name__, method))
            # Dispatch tables such as cli.COMMANDS hold the functions
            # themselves, so their entries are swapped too.
            for table in vars(module).values():
                if isinstance(table, dict):
                    for key, value in list(table.items()):
                        if id(value) in replaced:
                            self._patches.append((table, key, value))
                            table[key] = replaced[id(value)]

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        for name, calls in self._calls.items():
            self.counts[name] += calls[0]
        self._calls.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "run"],
                       "names": self.names, "runs": self.runs,
                       "spans": self.spans, "counts": dict(self.counts),
                       "peaks": dict(self.peaks)}, fh)


class SpanIndex:
    """Queries over finished spans: inclusive, outermost and self times.

    A query names spans by a predicate on the span name."""

    def __init__(self, tracer):
        self.names = tracer.names
        self.spans = tracer.spans
        self.duration = [(s[2] - s[1]) * 1e-9 for s in self.spans]
        self.self_time = list(self.duration)
        for s, d in zip(self.spans, self.duration):
            if s[3] >= 0:
                self.self_time[s[3]] -= d

    def _hits(self, pred):
        """Whether each span's name satisfies pred."""
        by_name = [bool(pred(name)) for name in self.names]
        return [by_name[s[0]] for s in self.spans]

    def _under(self, hits):
        """Whether some ancestor of each span is a hit."""
        under = [False] * len(self.spans)
        for i, s in enumerate(self.spans):
            p = s[3]
            if p >= 0:
                under[i] = under[p] or hits[p]
        return under

    def select(self, pred, within=None, outside=None):
        """Indexes of outermost spans matching pred, optionally only those
        below (within) or not below (outside) a span matching another."""
        hits = self._hits(pred)
        keep = [h and not n for h, n in zip(hits, self._under(hits))]
        if within:
            keep = [k and u for k, u in
                    zip(keep, self._under(self._hits(within)))]
        if outside:
            keep = [k and not u for k, u in
                    zip(keep, self._under(self._hits(outside)))]
        return [i for i, k in enumerate(keep) if k]

    def total(self, pred, **kw):
        return sum(self.duration[i] for i in self.select(pred, **kw))

    def count(self, pred, **kw):
        return len(self.select(pred, **kw))

    def self_total(self, pred):
        return sum(t for hit, t in zip(self._hits(pred), self.self_time)
                   if hit)
