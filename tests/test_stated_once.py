"""Source guards: a model part's parameters come from its attributes, its
sizes are attributes, every Glorot limit comes from `_glorot`, and only
`Lstm` calls the LSTM op."""

import ast
import pathlib

import attex

PACKAGE = pathlib.Path(attex.__file__).parent


def _functions(node, prefix):
    """(qualified name, def node) of every function under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
            name = prefix + child.name
            if isinstance(child, ast.FunctionDef):
                yield name, child
            yield from _functions(child, name + ".")
        else:
            yield from _functions(child, prefix)


def functions():
    for source in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        yield from _functions(tree, source.name + ":")


def short_name(qualified):
    return qualified.replace(":", ".").rsplit(".", 1)[1]


def test_parameters_defined_only_by_module_and_attitude_model():
    defined = [name for name, _ in functions()
               if short_name(name) == "parameters"]
    assert defined == ["encoders.py:Module.parameters",
                       "model.py:AttitudeModel.parameters"]


def test_sizes_are_attributes():
    assert [name for name, _ in functions()
            if short_name(name) in ("z", "row_width")] == []


def texts():
    return {source.name: source.read_text(encoding="utf-8")
            for source in sorted(PACKAGE.glob("*.py"))}


def segment_of(qualified):
    """Source text and def node of one function, by qualified name."""
    node = next(node for name, node in functions() if name == qualified)
    return ast.get_source_segment(texts()[qualified.split(":")[0]], node), node


def test_glorot_limit_only_in_glorot():
    segment, glorot = segment_of("encoders.py:_glorot")
    assert segment.count("sqrt(6") == 1
    assert sum(text.count("sqrt(6") for text in texts().values()) == 1
    assert [arg.arg for arg in glorot.args.args] == ["rng", "shape", "name"]


def test_lstm_sequence_called_only_by_lstm_states():
    # One LSTM module owns the op's parameter layout.
    segment, _ = segment_of("encoders.py:Lstm.states")
    assert segment.count("lstm_sequence(") == 1
    # The op's own def, then that one call.
    assert sum(text.count("lstm_sequence(") for text in texts().values()) == 2
