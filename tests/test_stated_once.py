"""Source guards: a model part's parameters come from its attributes, its
sizes are attributes, every Glorot limit comes from `_glorot`, only
`Lstm` calls the LSTM op, only `_attend` calls the softmax op, a term
and an opinion state no equality of their own, the polarity order is
stated once, every definition in the package is used somewhere, every
parameter is read, and a tensor is made one way."""

import ast
import pathlib
import re

import attex
from attex import corpus as cp
from attex import tensorgrad as tg
from attex import termizer as tz

PACKAGE = pathlib.Path(attex.__file__).parent
ROOT = PACKAGE.parent.parent


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


def _calls(tree, name):
    """Every call of name or of an attribute name (tg.name) under tree."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None),
                         getattr(node.func, "attr", None))]


def test_softmax_called_only_by_attend():
    # Attention weights are made one way: the masked softmax of _attend.
    _, attend = segment_of("encoders.py:_attend")
    calls = [(name, call.lineno) for name, tree in trees().items()
             for call in _calls(tree, "softmax")]
    assert len(calls) == 1
    assert calls == [("encoders.py", call.lineno)
                     for call in _calls(attend, "softmax")]


def test_a_term_equals_only_itself():
    # One instance per term value: sameness is identity, so Term states
    # no equality, hash or second constructor of its own.
    assert [name for name in ("__eq__", "__hash__", "_key", "shared")
            if name in vars(tz.Term)] == []
    fields = (tz.FRAME, "lemma", "positive", None)
    assert tz.Term(*fields) is tz.Term(*fields)


def test_an_opinion_states_no_equality():
    # Loading and augmentation compare opinion.pair() tuples.
    assert [name for name in ("_key", "__eq__", "__hash__")
            if name in vars(cp.Opinion)] == []


def _library_use():
    """README's "Library use" section, up to the next heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]


def test_every_definition_is_named_elsewhere():
    # A function, method or class of the package that only its own def
    # line names is dead: the package, the benchmark harness, the
    # synthetic corpus and the documented library use name all others.
    lines = [(source, number, line)
             for source in [*sorted(PACKAGE.glob("*.py")),
                            *sorted((ROOT / "perfbench").glob("*.py")),
                            ROOT / "tests" / "synth.py"]
             for number, line in enumerate(
                 source.read_text(encoding="utf-8").splitlines(), start=1)]
    lines += [(ROOT / "README.md", 0, line)
              for line in _library_use().splitlines()]
    unnamed = []
    for name, tree in trees().items():
        for node in ast.walk(tree):
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or re.fullmatch(r"__\w+__", node.name)):
                continue
            word = re.compile(r"\b%s\b" % re.escape(node.name))
            if not any(word.search(line) for source, number, line in lines
                       if (source, number) != (PACKAGE / name, node.lineno)):
                unnamed.append("%s:%d %s" % (name, node.lineno, node.name))
    assert unnamed == []


def test_every_parameter_is_read():
    # A parameter that its body never reads is one that every caller
    # passes for nothing.
    unread = []
    for name, node in functions():
        read = {child.id for statement in node.body
                for child in ast.walk(statement)
                if isinstance(child, ast.Name)
                and isinstance(child.ctx, ast.Load)}
        args = node.args
        arguments = args.posonlyargs + args.args + args.kwonlyargs
        unread += ["%s(%s)" % (name, arg.arg) for arg in arguments
                   if arg.arg not in ("self", "cls") and arg.arg not in read]
    assert unread == []


def test_one_way_to_make_a_tensor():
    # Tape._record alone makes and records an op's output, a leaf is
    # tg.Tensor(data, tape), and so every tensor belongs to one tape.
    tree = trees()["tensorgrad.py"]
    record = dict(_functions(tree, ""))["Tape._record"]
    calls = _calls(tree, "Tensor")
    assert len(calls) == 1 and calls == _calls(record, "Tensor")
    assert "constant" not in vars(tg.Tape)
    tapeless = ["%s:%d" % (name, call.lineno)
                for name, tree in trees().items()
                for call in _calls(tree, "Tensor")
                if len(call.args) + len(call.keywords) != 2]
    assert tapeless == []


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
