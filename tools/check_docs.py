#!/usr/bin/env python3
"""Docs symbol check: fail if docs reference code that does not exist.

Scans ``docs/*.md`` (and ``README.md``) for backtick-quoted code references
— plus the *module docstrings* of every runnable example under
``examples/*.py``, which are documentation in the same sense — and verifies
each against the source tree, so neither can silently rot as the code
evolves.  Checked reference shapes:

* ``repro.foo.bar`` / ``repro.foo.bar.Baz`` — the module path must resolve
  under ``src/``, and a trailing non-module component must be defined
  somewhere in it;
* ``SomeClass`` / ``SomeClass.method`` — a ``class SomeClass`` must exist in
  ``src/``, and the method must be defined somewhere in ``src/``;
* ``some_function()`` — a ``def some_function`` must exist in ``src/``;
* ``ALL_CAPS_CONSTANT`` — an assignment must exist in ``src/``.

It also holds the docs to the *curated public surface*: every
``from repro.spack[...] import X`` inside a fenced code block must name an
``X`` listed in that package's ``__all__`` (so the README can only teach
supported API), and every ``__all__`` entry must itself resolve in ``src/``
(so the export list cannot rot either).

And it holds them to the configuration objects and the front-ends that
take them: every keyword of a ``SessionConfig(...)`` or
``SolverConfig(...)`` call must name a field of that dataclass, and every
keyword of a ``ConcretizationSession(...)`` or ``ConcretizationService(...)``
call must name a parameter of its ``__init__``.  Both are read from
``src/`` with :mod:`ast`, so a removed knob
cannot linger in a doc.  Checked: fenced code blocks, example scripts
(whole), and backtick references of that shape; code that does not parse
as Python is skipped.

Everything else inside backticks (shell commands, flags, file paths, plain
words) is ignored.  Run from the repository root (CI does)::

    python tools/check_docs.py
"""

from __future__ import annotations

import ast
import builtins
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
DOC_FILES = sorted((REPO_ROOT / "docs").glob("*.md")) + [REPO_ROOT / "README.md"]
EXAMPLE_FILES = sorted((REPO_ROOT / "examples").glob("*.py"))

BACKTICK = re.compile(r"`([^`\n]+)`")
INLINE_CODE = re.compile(r"`([^`]+)`")
MODULE_PATH = re.compile(r"^repro(\.\w+)+$")
CLASS_REF = re.compile(r"^[A-Z][A-Za-z0-9]*(\.\w+)*$")
FUNCTION_CALL = re.compile(r"^[a-z_][a-z0-9_]*\(\)$")
CONSTANT = re.compile(r"^[A-Z][A-Z0-9_]+$")

#: Well-known names docs may reference that live in the standard library, not
#: in src/. Builtins (``None``, ``repr``, ...) are detected automatically.
STDLIB_ALLOWLIST = {
    "ThreadPoolExecutor",
    "OrderedDict",
    "Path",
}

#: Environment variables the docs may reference. They look like constants
#: but are read via ``os.environ``, so the assignment check cannot see them.
ENV_ALLOWLIST = {
    "PYTHONPATH",
}


def load_sources() -> str:
    """All Python source under src/, concatenated (grep corpus)."""
    chunks = []
    for path in sorted(SRC.rglob("*.py")):
        chunks.append(path.read_text(encoding="utf-8"))
    return "\n".join(chunks)


def module_exists(dotted: str) -> bool:
    parts = dotted.split(".")
    path = SRC.joinpath(*parts)
    return path.with_suffix(".py").is_file() or (path / "__init__.py").is_file()


def check_reference(token: str, corpus: str):
    """Return None if ``token`` resolves, else a reason string."""
    root = token.split(".")[0].rstrip("()")
    if root in STDLIB_ALLOWLIST or hasattr(builtins, root):
        return None
    if MODULE_PATH.match(token):
        parts = token.split(".")
        # longest prefix that is a module; the rest must be defined symbols
        for cut in range(len(parts), 0, -1):
            if module_exists(".".join(parts[:cut])):
                for symbol in parts[cut:]:
                    if not defined_in(symbol, corpus):
                        return f"symbol {symbol!r} not found in src/"
                return None
        return "module path does not resolve under src/"
    if FUNCTION_CALL.match(token):
        name = token[:-2]
        if not re.search(
            rf"^\s*(?:async )?def {re.escape(name)}\b", corpus, re.MULTILINE
        ):
            return f"no 'def {name}' in src/"
        return None
    if CLASS_REF.match(token):
        first, *rest = token.split(".")
        if not re.search(rf"^\s*class {re.escape(first)}\b", corpus, re.MULTILINE):
            return f"no 'class {first}' in src/"
        for symbol in rest:
            if not defined_in(symbol, corpus):
                return f"symbol {symbol!r} not found in src/"
        return None
    if CONSTANT.match(token):
        if token in ENV_ALLOWLIST:
            return None
        if not re.search(rf"^\s*{re.escape(token)}\s*[:=]", corpus, re.MULTILINE):
            return f"no assignment to {token} in src/"
        return None
    return None  # not a code reference shape we check


def defined_in(symbol: str, corpus: str) -> bool:
    pattern = (
        rf"^\s*(?:async def|def|class) {re.escape(symbol)}\b"
        rf"|^\s*(?:self\.)?{re.escape(symbol)}\s*[:=]"
        rf"|^\s*{re.escape(symbol)}\s*[:=]"
    )
    return re.search(pattern, corpus, re.MULTILINE) is not None


def scan_text(
    source: pathlib.Path,
    text: str,
    corpus: str,
    fields: dict,
    failures: list,
    first_line: int = 1,
) -> int:
    """Check every backtick-quoted reference in ``text`` (whose first line
    is line ``first_line`` of ``source``); returns the count of references
    that matched a checked shape."""
    # blank out fenced code blocks (they hold shell sessions and
    # pseudo-code), keeping their lines so reported line numbers hold
    text = re.sub(
        r"```.*?```", lambda m: "\n" * m.group(0).count("\n"), text, flags=re.DOTALL
    )
    checked = 0
    for match in INLINE_CODE.finditer(text):
        # an inline span may wrap lines, inside a blockquote too
        code = re.sub(r"\n\s*>?", " ", match.group(1)).strip()
        if any(f"{name}(" in code for name in fields):
            line = first_line + text.count("\n", 0, match.start())
            checked += check_config_calls(source, code, fields, failures, line)
    seen = set()
    for match in BACKTICK.finditer(text):
        # strip the Sphinx short-name marker (``~repro.spack.store.SolveCache``)
        token = match.group(1).strip().lstrip("~")
        if token in seen:
            continue
        seen.add(token)
        reason = check_reference(token, corpus)
        if reason is None:
            if MODULE_PATH.match(token) or FUNCTION_CALL.match(token) or \
                    CLASS_REF.match(token) or CONSTANT.match(token):
                checked += 1
        else:
            failures.append((source.relative_to(REPO_ROOT), token, reason))
    return checked


#: Packages whose ``__all__`` is the supported public surface; imports in
#: documentation code blocks must stay within it.
PUBLIC_PACKAGES = {
    "repro": SRC / "repro" / "__init__.py",
    "repro.spack": SRC / "repro" / "spack" / "__init__.py",
    "repro.spack.concretize": SRC / "repro" / "spack" / "concretize" / "__init__.py",
    "repro.spack.service": SRC / "repro" / "spack" / "service" / "__init__.py",
}

FENCED_BLOCK = re.compile(r"```[a-z]*\n(.*?)```", re.DOTALL)
FROM_IMPORT = re.compile(r"^\s*from\s+(repro[\w.]*)\s+import\s+([^#\n]+)", re.MULTILINE)


def load_exports() -> dict:
    """``{package: set(__all__)}`` for the curated public packages."""
    exports = {}
    for module, path in PUBLIC_PACKAGES.items():
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                names = set(ast.literal_eval(node.value))
        exports[module] = names
    return exports


def check_exports_resolve(exports: dict, corpus: str, failures: list) -> int:
    """Every ``__all__`` entry must be defined somewhere in src/."""
    checked = 0
    for module, names in exports.items():
        for name in sorted(names):
            checked += 1
            if not defined_in(name, corpus):
                failures.append(
                    (PUBLIC_PACKAGES[module].relative_to(REPO_ROOT), name,
                     f"exported by {module}.__all__ but not defined in src/")
                )
    return checked


def check_imports(source: pathlib.Path, text: str, exports: dict, failures: list) -> int:
    """Imports in fenced doc code blocks must stay inside ``__all__``.

    Example scripts (``.py``) are scanned whole: they are runnable docs.
    """
    checked = 0
    blocks = FENCED_BLOCK.findall(text) if source.suffix == ".md" else [text]
    for block in blocks:
        for module, imported in FROM_IMPORT.findall(block):
            if module not in exports:
                continue  # deep-module imports are checked as dotted paths
            for name in imported.replace("(", "").replace(")", "").split(","):
                name = name.split(" as ")[0].strip()
                if not name:
                    continue
                checked += 1
                if name not in exports[module]:
                    failures.append(
                        (source.relative_to(REPO_ROOT),
                         f"from {module} import {name}",
                         f"{name!r} is not in {module}.__all__")
                    )
    return checked


#: Configuration dataclasses whose call keywords docs and examples must keep
#: valid, and the module defining each.
CONFIG_CLASSES = {
    "SessionConfig": SRC / "repro" / "spack" / "concretize" / "config.py",
    "SolverConfig": SRC / "repro" / "asp" / "configs.py",
}

#: Front-end classes whose constructor keywords docs and examples must keep
#: valid, and the module defining each.
FRONT_END_CLASSES = {
    "ConcretizationSession": SRC / "repro" / "spack" / "concretize" / "session.py",
    "ConcretizationService": SRC / "repro" / "spack" / "service" / "app.py",
}


def find_class(path: pathlib.Path, name: str) -> ast.ClassDef:
    """The one class ``name`` in ``path`` (a class that moved fails here,
    instead of silently checking nothing)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    (cls,) = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == name]
    return cls


def load_config_fields() -> dict:
    """``{class name: set(keyword names)}``: the fields of
    :data:`CONFIG_CLASSES` and the constructor parameters of
    :data:`FRONT_END_CLASSES`."""
    fields = {}
    for name, path in CONFIG_CLASSES.items():
        fields[name] = {
            statement.target.id
            for statement in find_class(path, name).body
            if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)
        }
    for name, path in FRONT_END_CLASSES.items():
        (init,) = [
            n
            for n in find_class(path, name).body
            if isinstance(n, ast.FunctionDef) and n.name == "__init__"
        ]
        arguments = init.args.posonlyargs + init.args.args[1:] + init.args.kwonlyargs
        fields[name] = {argument.arg for argument in arguments}
    return fields


def check_config_calls(
    source: pathlib.Path, code: str, fields: dict, failures: list, first_line: int = 1
) -> int:
    """Every keyword of a config-class or front-end call in ``code`` (whose
    first line is line ``first_line`` of ``source``) must name one it
    accepts; returns the count of keywords checked (0 if ``code`` does not
    parse as Python)."""
    try:
        tree = ast.parse(code)
    except SyntaxError:
        return 0
    checked = 0
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        for keyword in node.keywords if name in fields else ():
            if keyword.arg is None:  # **options
                continue
            checked += 1
            if keyword.arg not in fields[name]:
                line = first_line + keyword.lineno - 1
                failures.append(
                    (f"{source.relative_to(REPO_ROOT)}:{line}",
                     f"{name}({keyword.arg}=...)",
                     f"{name} takes no keyword {keyword.arg!r}")
                )
    return checked


def example_docstring(path: pathlib.Path):
    """The module docstring of one example and the line it starts on
    (empty when absent/unparsable)."""
    try:
        module = ast.parse(path.read_text(encoding="utf-8"))
    except SyntaxError:
        return "", 1
    docstring = ast.get_docstring(module)
    if docstring is None:
        return "", 1
    return docstring, module.body[0].lineno


def main() -> int:
    corpus = load_sources()
    exports = load_exports()
    fields = load_config_fields()
    failures = []
    checked = check_exports_resolve(exports, corpus, failures)
    for doc in DOC_FILES:
        if not doc.is_file():
            continue
        text = doc.read_text(encoding="utf-8")
        checked += scan_text(doc, text, corpus, fields, failures)
        checked += check_imports(doc, text, exports, failures)
        for block in FENCED_BLOCK.finditer(text):
            line = text.count("\n", 0, block.start(1)) + 1
            checked += check_config_calls(doc, block.group(1), fields, failures, line)
    for example in EXAMPLE_FILES:
        source = example.read_text(encoding="utf-8")
        docstring, line = example_docstring(example)
        checked += scan_text(example, docstring, corpus, fields, failures, line)
        checked += check_imports(example, source, exports, failures)
        checked += check_config_calls(example, source, fields, failures)

    for doc, token, reason in failures:
        print(f"FAIL {doc}: `{token}` — {reason}", file=sys.stderr)
    print(f"checked {checked} code references across {len(DOC_FILES)} docs "
          f"and {len(EXAMPLE_FILES)} example docstrings, {len(failures)} stale")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
