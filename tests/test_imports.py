"""The library has no runtime dependencies: it imports only itself and the standard library."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "artinkit"


def test_library_imports_only_the_standard_library():
    allowed = set(sys.stdlib_module_names) | {"artinkit"}
    paths = sorted(SRC.glob("*.py"))
    assert paths
    outside = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in allowed]
    assert outside == []


def test_trusted_constructors_are_called_only_inside_the_library():
    # Word._of and GarsideNormalForm._built skip every check, and
    # GeneratorMap._with_evidence vouches for how a map was built; outside the
    # library, words, normal forms and maps come in through the checked constructors.
    root = SRC.parent.parent
    paths = sorted(p for d in ("tests", "bench", "demos") for p in (root / d).rglob("*.py"))
    assert paths
    calls = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("_of", "_built", "_with_evidence"):
                calls.append(f"{path.relative_to(root)}:{node.lineno} {node.attr}")
    assert calls == []
