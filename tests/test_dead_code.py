"""Every function, class, method and attribute of the package is read in its code.

A reference is a name read in code, an attribute access or an imported
name; a word in a docstring or comment does not count.  Every parameter
with a default is also set by some call in the package.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gmspde"
ALLOWED = {
    # file-format readers kept for users of the outputs; the package only writes
    "io.read_snapshot", "io.read_trace_csv",
    # an override: argparse calls it on a usage error
    "cli._Parser.error",
    # the measured ensemble expectations behind the l1_ok, l2_ok and
    # l3_ok verdicts, kept on the report for callers that want the numbers
    "functionals.MembershipReport.mean_L1",
    "functionals.MembershipReport.mean_L2",
    "functionals.MembershipReport.sup_mean_L3",
    # the node a caller catching the error can look up on its grid
    "dynamics.FloorViolation.node_index",
    # the entry point: the console script calls it with no argument, and
    # argparse then reads sys.argv
    "cli.main(argv)",
}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _references(tree):
    """Names the code of ``tree`` refers to: reads, attributes, imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def _attributes(cls):
    """Names ``cls`` defines on its instances: fields and ``self.`` stores."""
    for node in cls.body:
        if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id
    for node in ast.walk(cls):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            yield node.attr


def test_no_definition_is_named_only_where_it_is_defined():
    trees = _trees()
    references = Counter(name for tree in trees.values()
                         for name in _references(tree))
    defined = []      # top-level functions and classes, non-dunder methods
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{m.name}", m.name)
                            for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("__")]
    unused = [qualified for qualified, name in defined
              if not references[name] and qualified not in ALLOWED]
    assert unused == []


def test_every_attribute_is_read_somewhere():
    """Each dataclass field and ``self.`` attribute is read as an attribute.

    Reads are counted by name, not by owner: ``config.p`` counts as a
    read of every attribute named ``p``, so an unread ``trace.p`` would
    pass while any other class reads its own ``p``.
    """
    trees = _trees()
    reads = Counter(node.attr for tree in trees.values()
                    for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load))
    unread = sorted({f"{module}.{cls.name}.{name}"
                     for module, tree in trees.items()
                     for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                     for name in _attributes(cls) if not reads[name]}
                    - ALLOWED)
    assert unread == []


def _defaulted(function, skip_first):
    """(name, position or None) of each defaulted parameter of ``function``.

    The position counts the positional parameters a call passes, so it
    leaves out ``self`` when ``skip_first``; a keyword-only parameter has
    none.
    """
    args = function.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        yield positional[index].arg, index - skip_first
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _functions(tree, module):
    """(qualified name, callee name, node, skip_first) of each function.

    A method is called by its own name and its first parameter, ``self``,
    is not passed; ``__init__`` is called by its class's name.
    """
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{module}.{node.name}", node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for method in node.body:
                if isinstance(method, ast.FunctionDef):
                    callee = (node.name if method.name == "__init__"
                              else method.name)
                    yield (f"{module}.{node.name}.{method.name}", callee,
                           method, 1)


def _set_by(call, name, position):
    """Whether ``call`` may set the parameter ``name`` at ``position``.

    A ``*args`` splat may set every position, and a ``**kwargs`` splat
    every name.
    """
    splat = any(isinstance(arg, ast.Starred) for arg in call.args)
    if position is not None and (splat or position < len(call.args)):
        return True
    return any(kw.arg in (name, None) for kw in call.keywords)


def test_every_defaulted_parameter_is_set_by_some_call():
    """A parameter with a default is passed by some call in ``src``.

    Calls are matched by the callee's name, not by its owner:
    ``x.record(v)`` counts as a call of every function named ``record``.
    """
    trees = _trees()
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                callee = node.func
                name = (callee.id if isinstance(callee, ast.Name) else
                        callee.attr if isinstance(callee, ast.Attribute)
                        else None)
                calls.setdefault(name, []).append(node)
    unset = sorted(
        f"{qualified}({name})"
        for module, tree in trees.items()
        for qualified, callee, function, skip in _functions(tree, module)
        for name, position in _defaulted(function, skip)
        if not any(_set_by(call, name, position)
                   for call in calls.get(callee, ()))
    )
    assert [entry for entry in unset if entry not in ALLOWED] == []
