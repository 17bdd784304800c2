"""Per-layer metrics of a traced run, one group per attex module.

Times are inclusive seconds of the outermost matching spans unless named
`self_s`, which is the module's total self time. Counts come from the
call counters and from the observers installed by `observe`.
"""

from tracer import SpanIndex, is_tensor_op

# Public tensor ops; each gets a tensorgrad.ops.<op> call count.
TENSOR_OPS = ("constant", "add", "mul", "scale", "matmul", "tanh", "sigmoid",
              "softmax", "concat", "stack", "narrow", "take_row", "transpose",
              "max_pool_over_time", "conv1d", "embedding_lookup",
              "cross_entropy")

MODULES = ("corpus", "lexicons", "termizer", "encoders", "tensorgrad",
           "model", "analysis", "cli")


def observe(tracer):
    """Counters that need a function's arguments or result."""
    counts, peaks = tracer.counts, tracer.peaks

    def contexts(args, result):
        if isinstance(result, list):
            counts["corpus.contexts"] += len(result)

    def dropped(args, result):
        if isinstance(result, Exception):
            counts["termizer.dropped"] += 1

    def neutral(args, result):
        if isinstance(result, list):
            counts["model.neutral_dropped"] += len(args[0]) - len(result)

    def epochs(args, result):
        if getattr(result, "rows", None):
            counts["model.epochs"] += result.epochs()[-1]

    def tape_size(args, result):
        records = getattr(args[0], "_records", ())
        peaks["tensorgrad.tape_records"] = max(
            peaks["tensorgrad.tape_records"], len(records))

    tracer.observe("corpus.extract_contexts", contexts)
    tracer.observe("termizer.crop_to_window", dropped)
    tracer.observe("model.downsample_neutral", neutral)
    tracer.observe("model.train", epochs)
    tracer.observe("tensorgrad.Tape.backward", tape_size)


def _named(*names):
    wanted = set(names)
    return lambda name: name in wanted


def _module(prefix):
    return lambda name: name.split(".", 1)[0] == prefix


def _encode(name):
    parts = name.split(".")
    return (len(parts) == 3 and parts[0] == "encoders"
            and parts[1].endswith("Encoder") and parts[2] == "encode")


def per_layer(tracer, f1_mean, overhead):
    idx = SpanIndex(tracer)
    counts = tracer.counts
    total = idx.total
    train = _named("model.train")
    ops_total = sum(n for name, n in counts.items() if is_tensor_op(name))
    forwards = idx.count(_named("model.AttitudeModel.forward"))
    encodes = idx.select(_encode)
    encode_s = sum(idx.duration[i] for i in encodes)

    metrics = {
        "corpus.load_s": total(_named("corpus.load_corpus")),
        "corpus.extract_s": total(_named("corpus.extract_contexts")),
        "corpus.contexts": counts["corpus.contexts"],
        "lexicons.load_s": total(_named(
            "lexicons.load_frame_lexicon", "lexicons.load_sentiment_lexicon",
            "lexicons.load_preposition_list")),
        "lexicons.match_frames_s": total(_named("lexicons.match_frames")),
        "termizer.build_s": total(_named("termizer.build_term_sequence")),
        "termizer.crop_s": total(_named("termizer.crop_to_window")),
        "termizer.dropped": counts["termizer.dropped"],
        "encoders.build_vocab_s": total(_named("encoders.build_vocab")),
        "encoders.embed_s": total(_named("encoders.Embedder.embed")),
        "encoders.encode_s": encode_s,
        "encoders.encode_ms_per_context":
            1e3 * encode_s / len(encodes) if encodes else 0.0,
        "tensorgrad.backward_s": total(_named("tensorgrad.Tape.backward")),
        "tensorgrad.peak_tape_records": tracer.peaks["tensorgrad.tape_records"],
        "tensorgrad.ops_total": ops_total,
        "tensorgrad.ops_per_context": ops_total / forwards if forwards else 0.0,
        "tensorgrad.checkpoint_save_s": total(_named(
            "tensorgrad.save_checkpoint")),
        "tensorgrad.checkpoint_load_s": total(_named(
            "tensorgrad.load_checkpoint", "tensorgrad.restore_parameters")),
        "model.head_s": total(_named("model.ClassifierHead.forward")),
        "model.optimizer_s": total(_named("model.Adam.step",
                                          "model.Sgd.step")),
        "model.train_loop_self_s": idx.self_total(train),
        "model.train_eval_s": total(_named("model.evaluate_on_samples"),
                                    within=train),
        "model.test_eval_s": total(_named("model.AttitudeModel.predict"),
                                   outside=train),
        "model.macro_f1_s": total(_named("model.macro_f1")),
        "model.epochs": counts["model.epochs"],
        "model.batches": idx.count(_named("tensorgrad.Tape.backward"),
                                   within=train),
        "model.neutral_dropped": counts["model.neutral_dropped"],
        "model.f1_mean": f1_mean,
        "analysis.extract_alpha_s": total(_named("analysis.extract_alpha")),
        "analysis.group_weight_s": total(_named(
            "analysis.context_group_weight")),
        "analysis.kde_s": total(_named("analysis.kde")),
        "analysis.export_s": total(_named(
            "analysis.export_heatmap", "analysis.write_distribution_csv",
            "analysis.write_means_csv")),
        "cli.cache_write_s": total(_named("cli.write_cache")),
        "cli.cache_read_s": total(_named("cli.read_cache")),
    }
    for command in ("prepare", "train", "eval", "analyze"):
        metrics["cli.%s_s" % command] = total(_named("cli.cmd_" + command))
    for op in TENSOR_OPS:
        metrics["tensorgrad.ops." + op] = counts["tensorgrad." + op]
    for module in MODULES:
        metrics[module + ".self_s"] = idx.self_total(_module(module))
    metrics["trace.overhead_pct"] = 100.0 * overhead
    metrics["trace.spans"] = len(idx.spans)
    return metrics
