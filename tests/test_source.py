"""Rules on the source of malkit itself."""

import ast
from pathlib import Path

import malkit


def _nodes():
    modules = sorted(Path(malkit.__file__).parent.glob("*.py"))
    assert "words.py" in {p.name for p in modules}
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def test_no_bare_asserts():
    # python -O strips assert statements, so no check in the library may be one
    found = [f"{path.name}:{node.lineno}" for path, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_no_numpy_or_scipy():
    # the library runs on the standard library alone
    found = []
    for path, node in _nodes():
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        found += [f"{path.name}:{node.lineno} {name}" for name in names
                  if name.split(".")[0] in ("numpy", "scipy")]
    assert found == []


def test_letters_encoded_only_in_words():
    # a word's code is built and validated once, where the word is built
    # from letters; every other module reads the code it carries
    found = []
    for path, node in _nodes():
        if path.name == "words.py":
            continue
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        found += [f"{path.name}:{node.lineno}" for name in names if name == "encode_letters"]
    assert found == []


def test_no_function_local_imports():
    # every module names what it depends on at its top, where an import
    # cycle shows at once
    found = [f"{path.name}:{inner.lineno}" for path, node in _nodes()
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for inner in ast.walk(node) if isinstance(inner, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_no_environment_reads():
    # every input is an option or a file, so inputs_digest covers it
    env = ("environ", "environb", "getenv", "getenvb")
    found = []
    for path, node in _nodes():
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            hit = node.value.id == "os" and node.attr in env
        elif isinstance(node, ast.ImportFrom):
            hit = node.module == "os" and any(alias.name in env for alias in node.names)
        else:
            continue
        if hit:
            found.append(f"{path.name}:{node.lineno}")
    assert found == []
