"""Every function, class and method of the package is referenced in its code.

A reference is a name read in code, an attribute access or an imported
name; a word in a docstring or comment does not count.
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
    # the paper's map T with its user-facing checks; the Picard sweeps step
    # it through run_batch, and the sweep tests take it as their oracle
    "experiments.apply_T",
}


def _references(tree):
    """Names the code of ``tree`` refers to: reads, attributes, imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]


def test_no_definition_is_named_only_where_it_is_defined():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py"))}
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
