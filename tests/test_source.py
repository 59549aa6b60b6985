"""Rules on the source of malkit itself."""

import ast
from pathlib import Path

import malkit


def test_no_bare_asserts():
    # python -O strips assert statements, so no check in the library may be one
    modules = sorted(Path(malkit.__file__).parent.glob("*.py"))
    assert "words.py" in {p.name for p in modules}
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
