"""Names the documentation refers to exist: every backticked identifier
in a docstring or comment of `src/capsrel` or of the test oracles in
`tests/helpers.py` is a name that code uses, and every module path or
class attribute the README backticks resolves."""

import ast
import importlib
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [*sorted((ROOT / "src" / "capsrel").glob("*.py")),
           ROOT / "tests" / "helpers.py"]
IDENTIFIER = r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*"
BACKTICKED = re.compile(rf"`({IDENTIFIER})`")


def docstrings(tree: ast.Module) -> set[int]:
    """The first lines of the module, class and function docstrings."""
    return {node.body[0].lineno for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)
            and isinstance(node.body[0].value.value, str)}


def code_names_and_prose() -> tuple[set[str], list[tuple[str, str]]]:
    """Every name token and every word of a string literal other than a
    docstring in `SOURCES`; and every docstring and comment, with the
    place it starts."""
    names, prose = set(), []
    for path in SOURCES:
        text = path.read_text()
        docs = docstrings(ast.parse(text))
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            where = f"{path.name}:{tok.start[0]}"
            if tok.type == tokenize.NAME:
                names.add(tok.string)
            elif tok.type == tokenize.COMMENT or (
                    tok.type == tokenize.STRING and tok.start[0] in docs):
                prose.append((where, tok.string))
            elif tok.type in (tokenize.STRING,
                              getattr(tokenize, "FSTRING_MIDDLE", None)):
                names.update(re.findall(r"\w+", tok.string))
    return names, prose


def test_backticked_names_in_source_docs_exist_in_the_code():
    names, prose = code_names_and_prose()
    misses = [(where, ref) for where, text in prose
              for ref in BACKTICKED.findall(text)
              if not set(ref.split(".")) <= names]
    assert len(prose) > 100
    assert misses == []


def resolve(path: str):
    """The object a dotted path names: its longest importable prefix as a
    module, then one attribute per remaining part."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for part in parts[cut:]:
            obj = getattr(obj, part)
        return obj
    raise ModuleNotFoundError(path)


def test_readme_module_paths_and_class_attributes_resolve():
    readme = (ROOT / "README.md").read_text()
    paths = set(re.findall(rf"`(capsrel\.{IDENTIFIER})`", readme))
    paths |= {f"capsrel.{ref}" for ref in re.findall(
        r"\b((?:Model|Tensor|Adam|RunConfig)\.\w+)", readme)}
    assert len(paths) >= 17
    misses = []
    for path in sorted(paths):
        try:
            resolve(path)
        except (ImportError, AttributeError):
            misses.append(path)
    assert misses == []
