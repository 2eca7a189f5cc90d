"""Static checks on the sources, read with ast: no dead imports or private
definitions in src/bvcalc, and no oracle in tests/oracles.py that no test
names.  Paths are taken from this file, not the working directory.

It also holds the code-line yardstick, ``code_lines``.  Run as a script,
``python tests/test_hygiene.py``, it prints the code lines of each module
of src/bvcalc and their total, then tests/oracles.py apart from that total,
so a helper moved into the oracles shows on both sides."""

import ast
import collections
import io
import tokenize
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "bvcalc"

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path) -> int:
    """Lines of path holding a token other than a comment, less the lines of
    module, class and function docstrings; blank lines hold none."""
    text = Path(path).read_text(encoding="utf-8")
    docs = set()
    for node in ast.walk(ast.parse(text)):
        body = getattr(node, "body", None)
        if (isinstance(body, list) and body and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docs.update(range(body[0].lineno, body[0].end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docs)


def test_code_lines_counts_code_only(tmp_path):
    # docstrings, a comment line and a blank line count 0; a call spread
    # over three lines counts 3
    snippet = tmp_path / "snippet.py"
    snippet.write_text('"""Module\ndocstring."""\n\n'
                       'def f():\n    """Function\n    docstring."""\n'
                       '    # a comment\n\n'
                       '    return max(\n        1,\n        2)\n', encoding="utf-8")
    assert code_lines(snippet) == 4  # the def line and the three-line call


def refs(node) -> collections.Counter:
    """How often each name appears under node, as a name or an attribute."""
    return collections.Counter(
        [n.id for n in ast.walk(node) if isinstance(n, ast.Name)]
        + [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)])


def test_no_unused_imports_or_private_definitions():
    # every name a top-level import binds (bar __future__) must appear in
    # its module as a name or as the base of an attribute, and every
    # private function or class, top-level or a method of a top-level
    # class, must be named (called or read as an attribute) in its own
    # module outside its own body, or imported from that module by some
    # module of src/bvcalc; a same-named definition elsewhere vouches
    # for nothing
    bad, trees, imported = [], {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        trees[path] = tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                source = node.module.removeprefix("bvcalc.")
                imported.update((source, a.name) for a in node.names)
    assert trees
    for path, tree in trees.items():
        named = refs(tree)
        for node in tree.body:
            for d in [node] + (node.body if isinstance(node, ast.ClassDef) else []):
                if (isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                        and d.name.startswith("_") and not d.name.startswith("__")
                        and named[d.name] == refs(d)[d.name]
                        and (path.stem, d.name) not in imported):
                    bad.append(f"{path}:{d.lineno}: {d.name} is named nowhere in its "
                               f"module outside its body and imported from it by none")
        if path.name == "__init__.py":
            continue
        bound = {}
        for node in tree.body:
            if isinstance(node, ast.Import):
                for a in node.names:
                    bound[a.asname or a.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for a in node.names:
                    bound[a.asname or a.name] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        bad += [f"{path}:{line}: {name} imported but unused"
                for name, line in bound.items() if name not in used]
    assert not bad, "\n".join(bad)


def test_no_unexercised_oracles():
    # every top-level function or class of tests/oracles.py must be named
    # (called or read as an attribute) in some file under tests/ outside
    # its own body, so no oracle sits there that no test runs
    named = collections.Counter()
    for path in sorted(TESTS.rglob("*.py")):
        named += refs(ast.parse(path.read_text(encoding="utf-8")))
    oracles = TESTS / "oracles.py"
    bad = [f"{oracles}:{d.lineno}: {d.name} is named nowhere under tests/ outside its body"
           for d in ast.parse(oracles.read_text(encoding="utf-8")).body
           if isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
           and named[d.name] == refs(d)[d.name]]
    assert not bad, "\n".join(bad)


if __name__ == "__main__":
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        total += (n := code_lines(path))
        print(f"{n:6d}  {path.name}")
    print(f"{total:6d}  total")
    print(f"{code_lines(TESTS / 'oracles.py'):6d}  tests/oracles.py (not in the total)")
