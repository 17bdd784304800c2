"""Workload inputs, all generated from the synthetic corpus of tests/synth.py.

The CV workloads use the in-memory corpus; the CLI workload gets the same
generator's output written as the files `attex` reads.
"""

import json
import os

import synth
from attex import corpus as cp
from attex import lexicons as lx
from attex import model as md

# The acceptance config with one measurement period: train F1 is measured
# and the stop rule applied at epoch 10, which is also the cap. The full
# protocol (cap 150) takes minutes per encoder and its stop epoch, hence
# its duration, varies several-fold with the seed.
EPOCH_CAP = 10

CLI_DOCS = 48
CLI_TRAIN_EVERY = 4  # every fourth document is on the train side

_POLARITY_TAG = {lx.POSITIVE: "pos", lx.NEGATIVE: "neg", lx.NEUTRAL: "neu"}


def train_config(seed):
    base = synth.train_config(seed)
    values = {slot: getattr(base, slot) for slot in base.__slots__}
    values["max_epochs"] = EPOCH_CAP
    return md.TrainConfig(**values)


def describe(corpus, frame_lexicon, n):
    """Documents, contexts, mean terms per context, neutral share and the
    contexts dropped by cropping to n terms."""
    samples = []
    for doc in corpus.documents:
        opinions = cp.augment_neutral(doc, corpus.opinions(doc.doc_id))
        samples.extend(cp.extract_contexts(doc, opinions, frame_lexicon))
    kept, dropped = md.prepare_samples(samples, n)
    return {
        "documents": len(corpus.documents),
        "contexts": len(samples),
        "mean_terms": sum(len(s.terms.terms) for s in kept) / len(kept),
        "neutral_share": sum(s.label == lx.NEUTRAL for s in samples)
        / len(samples),
        "dropped": dropped,
    }


def manifest_side(index):
    return "train" if index % CLI_TRAIN_EVERY == 0 else "test"


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(line + "\n" for line in lines)


def write_cli_inputs(corpus, directory, seed):
    """Write the corpus, lexicons, manifest and config; return the config
    path."""
    os.makedirs(directory, exist_ok=True)

    def path(name):
        return os.path.join(directory, name)

    documents = []
    for doc in corpus.documents:
        documents.append(json.dumps({
            "doc_id": doc.doc_id,
            "sentences": [s.tokens for s in doc.sentences],
            "groups": [[g.group_id] + list(g.surface_variants)
                       for g in doc.synonym_groups],
            "mentions": [[m.sentence_idx, m.token_span[0], m.token_span[1],
                          m.group_id] for m in doc.entity_mentions],
        }, ensure_ascii=False))
    _write_lines(path("documents.jsonl"), documents)
    _write_lines(path("opinions.tsv"), [
        "\t".join((doc.doc_id, o.source_group, o.target_group, o.label))
        for doc in corpus.documents for o in corpus.opinions(doc.doc_id)])
    _write_lines(path("frames.tsv"), [
        "%s\t%s" % (" ".join(e.lemmas), _POLARITY_TAG[e.polarity])
        for e in synth.frame_lexicon().entries])
    _write_lines(path("sentiment.txt"), synth.SENTIMENT_WORDS)
    _write_lines(path("prepositions.txt"), synth.PREPOSITIONS)
    _write_lines(path("manifest.tsv"), [
        "%s\t%s" % (doc.doc_id, manifest_side(i))
        for i, doc in enumerate(corpus.documents)])

    ecfg = synth.encoder_config("att-blstm")
    tcfg = train_config(seed)
    settings = {
        "documents": path("documents.jsonl"),
        "opinions": path("opinions.tsv"),
        "frames": path("frames.tsv"),
        "sentiment": path("sentiment.txt"),
        "prepositions": path("prepositions.txt"),
        "manifest": path("manifest.tsv"),
        "out": path("out"),
        "encoder": ecfg.kind,
        "features": ecfg.feature_mode,
        "mode": "traintest",
        "seed": seed,
    }
    for key in ("n", "h", "filters", "window", "k"):
        settings[key] = getattr(ecfg, key)
    for key, value in synth.embed_options().items():
        settings[key] = str(value).lower() if isinstance(value, bool) else value
    for key in tcfg.__slots__:
        if key != "seed":
            settings[key] = getattr(tcfg, key)
    _write_lines(path("experiment.conf"),
                 ["%s = %s" % item for item in settings.items()])
    return path("experiment.conf")
