"""Parser for the spec sigil syntax (Table I of the paper).

Supported sigils::

    hdf5                      package name
    @1.10.2   @1.0.7:  @:1.2  version constraints
    %gcc      %gcc@10.3.1     compiler (and compiler version)
    +mpi      ~mpi            boolean variants on / off
    api=default               key=value variants
    os=rhel7  target=skylake  special key=value attributes
    ^zlib@1.2.8:              constraints on a (transitive) dependency

Anonymous specs (used in ``when=`` clauses and ``conflicts``) omit the package
name and start directly with a sigil, e.g. ``"+mpi"`` or ``"@1.1.0:"``.
"""

from __future__ import annotations

import re
from typing import List, Optional

from repro.spack.errors import SpecSyntaxError, VersionError
from repro.spack.spec import Spec, normalize_variant_value
from repro.spack.version import parse_version_constraint

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]*")
_VERSION_RE = re.compile(r"[A-Za-z0-9_.\-,:]+")
_VALUE_RE = re.compile(r"[A-Za-z0-9_.\-,:*+~/]+")


class _SpecLexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def eof(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def skip_whitespace(self):
        while not self.eof() and self.text[self.pos].isspace():
            self.pos += 1

    def take(self, pattern: re.Pattern, what: str) -> str:
        match = pattern.match(self.text, self.pos)
        if not match:
            raise SpecSyntaxError(
                f"expected {what} at position {self.pos} in {self.text!r}"
            )
        self.pos = match.end()
        return match.group(0)


def parse_spec(text: str) -> Spec:
    """Parse a single spec string (possibly with ``^dependency`` constraints)."""
    if not text or not text.strip():
        raise SpecSyntaxError(f"empty spec string: {text!r}")
    specs = parse_specs(text)
    if len(specs) != 1:
        raise SpecSyntaxError(f"expected exactly one spec in {text!r}, found {len(specs)}")
    return specs[0]


def parse_specs(text: str) -> List[Spec]:
    """Parse a whitespace-separated list of specs (like a command line).

    Sigils that follow a name without whitespace bind to it; a new spec starts
    at a bare name that is not preceded by a sigil.  ``^dep`` constraints are
    attached to the *root* spec currently being parsed (Spack semantics).
    """
    lexer = _SpecLexer(text)
    roots: List[Spec] = []
    current_root: Optional[Spec] = None
    current_node: Optional[Spec] = None

    def ensure_node(anonymous_ok: bool = True) -> Spec:
        nonlocal current_root, current_node
        if current_node is None:
            current_node = Spec()
            current_root = current_node
            roots.append(current_node)
        return current_node

    while True:
        lexer.skip_whitespace()
        if lexer.eof():
            break
        char = lexer.peek()

        if char == "^":
            lexer.pos += 1
            lexer.skip_whitespace()
            if current_root is None:
                raise SpecSyntaxError(f"dangling '^' in {text!r}")
            name = lexer.take(_NAME_RE, "a dependency name")
            if name == current_root.name:
                raise SpecSyntaxError(f"{name!r} cannot depend on itself in {text!r}")
            dependency = current_root.dependencies.get(name)
            if dependency is None:
                dependency = Spec(name=name)
                current_root.dependencies[name] = dependency
            current_node = dependency
            continue

        if char == "@":
            lexer.pos += 1
            node = ensure_node()
            constraint = lexer.take(_VERSION_RE, "a version constraint")
            node.versions = node.versions.constrain(_parse_versions(constraint, text))
            continue

        if char == "%":
            lexer.pos += 1
            node = ensure_node()
            name = lexer.take(_NAME_RE, "a compiler name")
            if node.compiler is not None and node.compiler != name:
                raise SpecSyntaxError(f"two compilers for one spec in {text!r}")
            node.compiler = name
            if lexer.peek() == "@":
                lexer.pos += 1
                constraint = lexer.take(_VERSION_RE, "a compiler version")
                node.compiler_versions = node.compiler_versions.constrain(
                    _parse_versions(constraint, text)
                )
            continue

        if char in "+~":
            lexer.pos += 1
            node = ensure_node()
            name = lexer.take(_NAME_RE, "a variant name")
            if name in node.variants:
                raise SpecSyntaxError(
                    f"variant {name!r} assigned twice on one node in {text!r}"
                )
            node.variants[name] = "true" if char == "+" else "false"
            continue

        if _NAME_RE.match(char):
            word = lexer.take(_NAME_RE, "a name")
            if lexer.peek() == "=":
                lexer.pos += 1
                value = lexer.take(_VALUE_RE, "a value")
                node = ensure_node()
                _assign_keyvalue(node, word, value, text)
                continue
            # A bare word: the name of a (new) spec.
            if current_node is None or current_node.name is not None or current_node is not current_root:
                # start a new root spec
                current_node = Spec(name=word)
                current_root = current_node
                roots.append(current_node)
            else:
                current_node.name = word
            continue

        raise SpecSyntaxError(f"unexpected character {char!r} at position {lexer.pos} in {text!r}")

    return roots


def _parse_versions(constraint: str, text: str):
    """Parse one ``@...`` constraint, surfacing malformed input as a parse
    error (the version layer's :class:`VersionError` is an internal detail a
    caller feeding raw user strings should never see)."""
    try:
        return parse_version_constraint(constraint)
    except VersionError as exc:
        raise SpecSyntaxError(
            f"bad version constraint {constraint!r} in {text!r}: {exc}"
        ) from exc


def _assign_keyvalue(node: Spec, key: str, value: str, text: str = ""):
    """Fold one ``key=value`` sigil into ``node``.

    Duplicate assignments on the same node (``target=`` twice, ``+shared``
    then ``shared=false``, ``threads=none threads=openmp``) are rejected as
    syntax errors rather than silently last-one-wins: a user joining spec
    fragments almost certainly meant something else, and real Spack rejects
    them too.
    """
    where = f" in {text!r}" if text else ""
    if key == "target":
        if node.target is not None:
            raise SpecSyntaxError(f"'target' assigned twice on one node{where}")
        node.target = value
    elif key == "os":
        if node.os is not None:
            raise SpecSyntaxError(f"'os' assigned twice on one node{where}")
        node.os = value
    elif key == "arch":
        # arch=<platform>-<os>-<target>
        parts = value.split("-")
        if len(parts) != 3:
            raise SpecSyntaxError(f"arch must look like linux-rhel7-skylake, got {value!r}")
        if node.os is not None or node.target is not None:
            raise SpecSyntaxError(f"'arch' conflicts with an earlier os/target{where}")
        node.os = parts[1]
        node.target = parts[2]
    else:
        if key in node.variants:
            raise SpecSyntaxError(
                f"variant {key!r} assigned twice on one node{where}"
            )
        if "," in value:
            node.variants[key] = normalize_variant_value(tuple(value.split(",")))
        else:
            node.variants[key] = normalize_variant_value(value)
