"""Every function, class and method of the package is named outside its def."""

import ast
import pathlib
import re
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gmspde"
# file-format readers kept for users of the outputs; the package only writes
ALLOWED = {"io.read_snapshot", "io.read_trace_csv"}


def test_no_definition_is_named_only_where_it_is_defined():
    texts = {path.stem: path.read_text(encoding="utf-8")
             for path in sorted(SRC.glob("*.py"))}
    words = Counter(re.findall(r"\w+", "\n".join(texts.values())))
    defined = []      # top-level functions and classes, non-dunder methods
    for module, text in texts.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined += [(f"{module}.{node.name}.{m.name}", m.name)
                            for m in node.body
                            if isinstance(m, ast.FunctionDef)
                            and not m.name.startswith("__")]
    unused = [qualified for qualified, name in defined
              if words[name] == 1 and qualified not in ALLOWED]
    assert unused == []
