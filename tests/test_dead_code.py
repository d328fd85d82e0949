"""Every function, class, method and attribute of the package is read in its code.

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
    # the measured ensemble expectations behind the l1_ok, l2_ok and
    # l3_ok verdicts, kept on the report for callers that want the numbers
    "functionals.MembershipReport.mean_L1",
    "functionals.MembershipReport.mean_L2",
    "functionals.MembershipReport.sup_mean_L3",
    # the node a caller catching the error can look up on its grid
    "fields.FloorViolation.node_index",
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
