"""Source guards: a model part's parameters come from its attributes, its
sizes are attributes, every Glorot limit comes from `_glorot`, only
`Lstm` calls the LSTM op, a term equals only itself, and the polarity
order is stated once."""

import ast
import pathlib

import attex
from attex import termizer as tz

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


def trees():
    return {source.name: ast.parse(source.read_text(encoding="utf-8"))
            for source in sorted(PACKAGE.glob("*.py"))}


def functions():
    for name, tree in trees().items():
        yield from _functions(tree, name + ":")


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


def test_a_term_equals_only_itself():
    # One instance per term value: sameness is identity, so Term states
    # no equality, hash or second constructor of its own.
    assert [name for name in ("__eq__", "__hash__", "_key", "shared")
            if name in vars(tz.Term)] == []
    fields = (tz.FRAME, "lemma", "positive", None)
    assert tz.Term(*fields) is tz.Term(*fields)


def test_terms_are_not_told_apart_by_id():
    calls = {name: [node.lineno for node in ast.walk(tree)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "id"]
             for name, tree in trees().items()
             if name in ("encoders.py", "cli.py", "analysis.py")}
    assert calls == {"encoders.py": [], "cli.py": [], "analysis.py": []}


POLARITY_NAMES = {"POSITIVE", "NEGATIVE", "NEUTRAL"}
POLARITY_VALUES = {"positive", "negative", "neutral"}


def _names(node):
    """The bare or dotted-tail names and string constants in a node."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.Constant) and isinstance(child.value, str):
            yield child.value


def test_polarity_order_stated_once():
    listed, indexed, bound = [], [], []
    for name, tree in trees().items():
        for node in ast.walk(tree):
            # A tuple or list naming all three polarities states the order.
            if isinstance(node, (ast.Tuple, ast.List)):
                named = {n for e in node.elts for n in _names(e)}
                if named >= POLARITY_NAMES or named >= POLARITY_VALUES:
                    listed.append(name)
            # So does numbering the polarities or labels.
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Name)
                    and node.func.id == "enumerate"
                    and {"POLARITIES", "LABELS"} & set(_names(node))):
                indexed.append(name)
            if ((isinstance(node, ast.Name) and node.id == "LABELS"
                 and isinstance(node.ctx, ast.Store))
                    or (isinstance(node, ast.alias)
                        and (node.asname or node.name) == "LABELS")):
                bound.append(name)
    assert listed == ["lexicons.py"]
    assert indexed == ["lexicons.py"]
    assert bound == []
