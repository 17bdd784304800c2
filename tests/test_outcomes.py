"""Outcome pins: training, cross-validation, the attention study and one
CLI run give the values recorded in outcome_pins.json.

Every encoder kind runs 3-fold `md.run_cv` at seeds 1 and 2 on
`synth.build_corpus(seed)` with the synthetic benchmark's encoder, embedding
and training settings, training capped at EPOCH_CAP epochs (one measurement
period). Each split pins its F1, its stop epoch and each history row's
epoch and train F1 exactly; its history losses, its trained parameters
(their count, L2 norm and COORDINATES fixed coordinates of the flat
buffer) and, for the attentive kinds, the study's per-group mean_N and
mean_S and each group/class KDE curve (its sum and COORDINATES fixed
coordinates) on its held-out contexts within TOLERANCE. The CLI run
(prepare, train, eval and analyze in traintest mode on test_cli's fixture)
pins its stdout exactly with paths removed, except the study means it
prints, which like means.csv, the curves of distributions.csv and the
values of model.ckpt compare within TOLERANCE.

TOLERANCE is absolute. To choose it, the pins were written under
OPENBLAS_CORETYPE SkylakeX, Haswell, Sandybridge and Prescott (OpenBLAS
0.3.31 bundled with numpy 2.4.6, on an AVX-512 x86-64 CPU whose own
kernel is SkylakeX; the checked-in pins are SkylakeX's). Every F1, stop
epoch, history train F1 and stdout line agreed between the four, except
the `mean_*` lines of analyze's stdout, which print the study's means;
they are compared like means.csv. The pinned toleranced values were at most
1.6e-12 apart, and whole trained parameter buffers at most 3.0e-10 (ian,
seed 1, Prescott against SkylakeX); TOLERANCE = 1e-8 leaves a margin for
kernels not measured.

After a deliberate change of outcomes, rewrite the pins with

    PYTHONPATH=src python tests/test_outcomes.py

and review the diff of tests/outcome_pins.json.
"""

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import numpy as np
import pytest

import synth
from attex import analysis as an
from attex import cli
from attex import encoders as enc
from attex import model as md
from attex import tensorgrad as tg
from test_cli import write_fixture

PINS = pathlib.Path(__file__).with_name("outcome_pins.json")
SEEDS = (1, 2)
FOLDS = 3
EPOCH_CAP = 10
COORDINATES = 8
TOLERANCE = 1e-8


def train_config(seed):
    base = synth.train_config(seed)
    values = {slot: getattr(base, slot) for slot in base.__slots__}
    values["max_epochs"] = EPOCH_CAP
    return md.TrainConfig(**values)


def coordinates(flat):
    """COORDINATES evenly spaced values of a flat array, ends included."""
    picks = np.linspace(0, flat.size - 1, COORDINATES).round().astype(int)
    return flat[picks].tolist()


def parameter_pin(values):
    flat = np.asarray(values, dtype=float).reshape(-1)
    return {"count": flat.size, "norm": float(np.linalg.norm(flat)),
            "coordinates": coordinates(flat)}


def curve_pin(curve):
    curve = np.asarray(curve, dtype=float)
    return {"sum": float(curve.sum()), "coordinates": coordinates(curve)}


def cv_outcome(kind, seed):
    """The pinned values of every split of one CV run."""
    result = md.run_cv(synth.build_corpus(seed), synth.encoder_config(kind),
                       train_config(seed), synth.frame_lexicon(),
                       synth.embed_options(), k=FOLDS)
    splits = []
    for split in result.splits:
        rows = split.history.rows
        record = {
            "f1": repr(split.f1),
            "stop_epoch": rows[-1][0],
            "history": [[epoch, repr(f1)] for epoch, f1, _ in rows],
            "losses": [loss for _, _, loss in rows],
            "parameters": parameter_pin(split.model.flat.data),
        }
        if split.model.encoder.attentive:
            summaries = an.summarize_distributions(
                split.model, split.test_samples, synth.sentiment_lexicon(),
                synth.preposition_list())
            record["study"] = {s.group: [s.mean_n, s.mean_s]
                               for s in summaries}
            record["curves"] = {
                "%s/%s" % (s.group, cls): curve_pin(curve)
                for s in summaries
                for cls, curve in ((an.CLASS_NEUTRAL, s.kde_n),
                                   (an.CLASS_SENTIMENT, s.kde_s))
                if curve is not None}
        splits.append(record)
    return splits


def cli_outcome(directory, read_stdout):
    """Stdout of prepare, train, eval and analyze, paths removed, the
    values of means.csv and model.ckpt, and the pin of each curve in
    distributions.csv; read_stdout() returns what was written to stdout
    since its last call."""
    config, out = write_fixture(directory)
    stdout = {}
    for command in ("prepare", "train", "eval", "analyze"):
        assert cli.main([command, "--config", str(config),
                         "--mode", "traintest"]) == 0
        stdout[command] = read_stdout().replace(
            str(directory), "<dir>")
    means = (out / "means.csv").read_text(encoding="utf-8").splitlines()
    densities = {}
    for line in (out / "distributions.csv").read_text(
            encoding="utf-8").splitlines()[1:]:
        group, cls, _, density = line.split(",")
        densities.setdefault("%s/%s" % (group, cls), []).append(
            float(density))
    return {
        "stdout": stdout,
        "means": {group: [float(v) for v in values] for group, *values
                  in (line.split(",") for line in means[1:])},
        "checkpoint": {name: values.reshape(-1).tolist() for name, values
                       in tg.load_checkpoint(str(out / "model.ckpt")).items()},
        "curves": {key: curve_pin(values)
                   for key, values in densities.items()},
    }


def assert_close(actual, pinned, where):
    """Numbers within TOLERANCE, None where None is pinned."""
    if pinned is None:
        assert actual is None, where
    else:
        np.testing.assert_allclose(actual, pinned, rtol=0, atol=TOLERANCE,
                                   err_msg=where)


def assert_curves(actual, pinned, where):
    """The same group/class curves, each sum and coordinate within
    TOLERANCE."""
    assert list(actual) == list(pinned), where
    for key, pin in pinned.items():
        for field in ("sum", "coordinates"):
            assert_close(actual[key][field], pin[field],
                         "%s: curve %s %s" % (where, key, field))


@pytest.fixture(scope="module")
def pins():
    return json.loads(PINS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", enc.ENCODER_KINDS)
def test_cv_outcomes(pins, kind, seed):
    pinned = pins["cv"]["%s/%d" % (kind, seed)]
    actual = cv_outcome(kind, seed)
    assert len(actual) == len(pinned)
    for fold, (got, want) in enumerate(zip(actual, pinned)):
        where = "%s seed %d fold %d" % (kind, seed, fold)
        for key in ("f1", "stop_epoch", "history"):
            assert got[key] == want[key], "%s: %s" % (where, key)
        assert_close(got["losses"], want["losses"], where + ": losses")
        assert got["parameters"]["count"] == want["parameters"]["count"]
        for key in ("norm", "coordinates"):
            assert_close(got["parameters"][key], want["parameters"][key],
                         "%s: parameter %s" % (where, key))
        assert got.keys() == want.keys()
        for group, means in want.get("study", {}).items():
            for side, value, pinned_value in zip("NS", got["study"][group],
                                                 means):
                assert_close(value, pinned_value,
                             "%s: mean_%s %s" % (where, side, group))
        if "curves" in want:
            assert_curves(got["curves"], want["curves"], where)


def test_cli_outcome(pins, tmp_path, capsys):
    pinned = pins["cli"]
    actual = cli_outcome(tmp_path, lambda: capsys.readouterr().out)
    assert actual["stdout"].keys() == pinned["stdout"].keys()
    for command, text in pinned["stdout"].items():
        got = actual["stdout"][command].splitlines()
        want = text.splitlines()
        assert [line.split("\t")[0] for line in got] \
            == [line.split("\t")[0] for line in want], command
        for line, pinned_line in zip(got, want):
            key, _, value = line.partition("\t")
            if key.startswith("mean_"):
                assert_close(float(value), float(pinned_line.split("\t")[1]),
                             "%s stdout %s" % (command, key))
            else:
                assert line == pinned_line, command
    assert actual["means"].keys() == pinned["means"].keys()
    for group, values in pinned["means"].items():
        assert_close(actual["means"][group], values, "means.csv " + group)
    assert list(actual["checkpoint"]) == list(pinned["checkpoint"])
    for name, values in pinned["checkpoint"].items():
        assert_close(actual["checkpoint"][name], values, "model.ckpt " + name)
    assert_curves(actual["curves"], pinned["curves"], "distributions.csv")


def write_pins(path):
    pins = {"cv": {"%s/%d" % (kind, seed): cv_outcome(kind, seed)
                   for kind in enc.ENCODER_KINDS for seed in SEEDS}}
    buffer = io.StringIO()

    def read_stdout():
        text = buffer.getvalue()
        buffer.seek(0)
        buffer.truncate()
        return text

    with tempfile.TemporaryDirectory() as directory, \
            contextlib.redirect_stdout(buffer):
        pins["cli"] = cli_outcome(pathlib.Path(directory), read_stdout)
    pathlib.Path(path).write_text(json.dumps(pins, indent=1) + "\n",
                                  encoding="utf-8")


if __name__ == "__main__":
    write_pins(sys.argv[1] if len(sys.argv) > 1 else PINS)
