"""Docs must not cite names that are gone.

The docstrings and comments of condmc name its private helpers
(`_placed_chunks`, `sde._step_jacobian`), README.md names module
attributes (`sde.CHUNK_BYTES`), and its examples call the public API
(`cm.kernel_loss_estimate(...)`).  A refactor that removes or renames one,
or changes a signature, leaves such a citation stale with nothing failing;
these checks fail instead.
"""

import ast
import importlib
import inspect
import io
import re
import tokenize
from pathlib import Path

import condmc

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "condmc").glob("*.py"))
MODULES = {path.stem: importlib.import_module(f"condmc.{path.stem}")
           for path in SOURCES if path.stem != "__main__"}

# a private name, bare or after a module name; not a math subscript such as
# X'_p, (db/dtheta)_i or [k])_s
PRIVATE = re.compile(r"(?<![\w)'\]}.])(?:(\w+)\.)?(_[A-Za-z]\w*)")
# `module.name` or `condmc.module` in README.md
CITED = re.compile(r"`(\w+)\.(\w+)`")
# the body of a python code block in README.md
PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def _known_private_names() -> set:
    """Every attribute of a condmc module and of a class defined in one."""
    names = set()
    for module in MODULES.values():
        names |= set(vars(module))
        names |= {a for v in vars(module).values() if isinstance(v, type) for a in vars(v)}
    return names


def _doc_text(path: Path):
    """(line, text) of every comment and string literal in a source file."""
    for token in tokenize.generate_tokens(io.StringIO(path.read_text()).readline):
        if token.type in (tokenize.COMMENT, tokenize.STRING):
            yield token.start[0], token.string


def test_private_names_in_source_docs_resolve():
    known = _known_private_names()
    stale = []
    for path in SOURCES:
        for line, text in _doc_text(path):
            for module, name in PRIVATE.findall(text):
                if module in MODULES:
                    ok = hasattr(MODULES[module], name)
                else:
                    ok = name in known
                if not ok:
                    stale.append(f"{path.name}:{line}: {module + '.' if module else ''}{name}")
    assert stale == []


def test_module_names_in_readme_resolve():
    text = (ROOT / "README.md").read_text()
    cited = [(m, n) for m, n in CITED.findall(text) if m == "condmc" or m in MODULES]
    assert cited  # the pattern still finds the README's citations
    stale = [f"{m}.{n}" for m, n in cited
             if not hasattr(condmc if m == "condmc" else MODULES[m], n)]
    assert stale == []


def _readme_api_calls():
    """(README.md line, call) of every cm.<name>(...) call in its python blocks."""
    text = (ROOT / "README.md").read_text()
    for block in PYTHON_BLOCK.finditer(text):
        first = text.count("\n", 0, block.start(1))
        for node in ast.walk(ast.parse(block.group(1))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "cm"):
                yield first + node.lineno, node


def test_readme_examples_call_the_api_as_it_is():
    # each call binds to its function's signature: as many positional
    # arguments, and keywords it takes
    calls = list(_readme_api_calls())
    assert calls  # the pattern still finds the README's examples
    stale = []
    for line, call in calls:
        try:
            inspect.signature(getattr(condmc, call.func.attr)).bind(
                *call.args, **{k.arg: k.value for k in call.keywords})
        except (AttributeError, TypeError) as exc:
            stale.append(f"README.md:{line}: cm.{call.func.attr}: {exc}")
    assert stale == []
