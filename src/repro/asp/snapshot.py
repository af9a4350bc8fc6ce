"""Flat, mmap-able snapshots of grounded :class:`PreparedProgram` bases.

The persistent ground cache pickles prepared programs, which is compact but
forces every process to rebuild the whole object graph before it can serve a
single solve.  Since the grounder runs entirely over interned symbols
(:mod:`repro.asp.symbols`), the ground state is really a handful of integer
tables — so this module serializes it as one: a tagged symbol-value blob plus
contiguous ``int64`` buffers for the atom table, fact set, rule/constraint/
choice/minimize streams, possible/certain relations, and the grounder's
incremental-layering registries.

A reader *attaches* the file read-only via :func:`mmap.mmap` — O(1), no
parsing beyond the small JSON header — and *materializes* a fully functional
:class:`~repro.asp.control.PreparedProgram` lazily on first use, decoding the
buffers in a few C-speed passes (``memoryview.cast('q')``, bulk ``set`` /
``zip`` construction) instead of a general pickle walk.  The derived
registries that guard incremental grounding (rule/constraint/minimize dedup
keys) are rebuilt from the decoded ground program, and the stratified
component plan is recomputed from the reparsed source text
(:meth:`~repro.asp.grounder.Grounder.restore_setup`), so forking per-spec
deltas off a snapshot-restored base does *zero* base grounding work.

File layout::

    magic (8 bytes)  |  header length (uint64 LE)  |  JSON header
    symbol blob (JSON list, or pickle for exotic values)
    padding to 8-byte alignment
    int64 payload (native byte order; sections indexed by the header)

The header carries a caller-chosen ``key`` (the cache token, which already
encodes content hash and cache format version) and a payload SHA-256 that is
verified on materialize — attach stays O(1), while truncation or bit rot
surfaces as :class:`SnapshotError` and the caller degrades to a cold ground.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import pickle
import struct
import sys
from array import array
from dataclasses import asdict
from typing import Dict, List, Optional

from repro.asp.configs import SolverConfig
from repro.asp.control import PreparedProgram, parse_program_cached
from repro.asp.ground import (
    GroundChoice,
    GroundConstraint,
    GroundMinimizeLiteral,
    GroundProgram,
    GroundRule,
)
from repro.asp.grounder import Grounder, _AtomDatabase, _Relation
from repro.asp.stats import PhaseTimer
from repro.asp.symbols import SymbolTable

__all__ = ["GroundSnapshot", "SnapshotError", "snapshot_bytes", "SNAPSHOT_FORMAT"]

SNAPSHOT_MAGIC = b"RASNAP01"
#: version of the binary layout itself; bump together with
#: ``repro.spack.store.CACHE_FORMAT_VERSION`` when the encoding changes
SNAPSHOT_FORMAT = 1

_HEADER_LEN = struct.Struct("<Q")
_SCALAR_TYPES = (str, int, bool)


class SnapshotError(Exception):
    """The prepared program cannot be snapshotted, or the file is unusable
    (wrong magic/version/key, truncated, checksum mismatch).  Callers treat
    this exactly like a cache miss and fall back to grounding cold.

    ``kind`` mirrors the disk-cache load classification: ``"miss"`` for
    expected situations (absent file, version skew, foreign key/byte order)
    and ``"corrupt"`` for damaged files, so cache layers can keep their
    miss vs load-error counters honest.
    """

    def __init__(self, message: str, kind: str = "corrupt"):
        super().__init__(message)
        self.kind = kind


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


def snapshot_bytes(prepared: PreparedProgram, *, key: str = "") -> bytes:
    """Encode a grounded prepared program into the flat snapshot form.

    ``key`` is an opaque caller token (the ground-cache key) echoed in the
    header and checked by :meth:`GroundSnapshot.attach`, so a snapshot can
    never be applied to the wrong catalog or cache format version.

    Raises :class:`SnapshotError` when the program is not snapshot-capable:
    the source text must be available for the attaching process to reparse.
    """
    grounder = prepared._base
    text = getattr(prepared, "text", None)
    if not isinstance(text, str):
        raise SnapshotError("prepared program has no source text")
    if array("q").itemsize != 8:
        raise SnapshotError("platform has no 64-bit array type")

    symbols = grounder.symbols
    intern = symbols.intern
    ground = grounder.ground_program

    out: List[int] = []
    sections: Dict[str, List[int]] = {}
    counts: Dict[str, int] = {}

    def section(name: str, count: int, body) -> None:
        start = len(out)
        body()
        sections[name] = [start, len(out)]
        counts[name] = count

    # atom table: per-atom interned id-keys ((pred sid, *arg sids)), stored
    # as an offsets array plus one flat data array.  Every atom enters the
    # table through _value_atom_id/_atom_id, so the _atom_ids registry is a
    # bijection onto it; anything else means the state is not ours to encode.
    num_atoms = len(ground.atoms)
    id_keys: List[Optional[tuple]] = [None] * (num_atoms + 1)
    if len(grounder._atom_ids) != num_atoms:
        raise SnapshotError("atom table and id registry disagree")
    for id_key, atom_id in grounder._atom_ids.items():
        id_keys[atom_id] = id_key

    def write_atoms() -> None:
        data: List[int] = []
        out.append(0)
        for atom_id in range(1, num_atoms + 1):
            id_key = id_keys[atom_id]
            if id_key is None:
                raise SnapshotError(f"atom {atom_id} missing from id registry")
            data.extend(id_key)
            out.append(len(data))
        sections["atom_data"] = [len(out), len(out) + len(data)]
        out.extend(data)

    section("atom_offsets", num_atoms, write_atoms)

    section(
        "facts", len(ground.facts), lambda: out.extend(sorted(ground.facts))
    )

    def write_rules() -> None:
        for rule in ground.rules:
            out.append(rule.head)
            out.append(len(rule.pos))
            out.append(len(rule.neg))
            out.extend(rule.pos)
            out.extend(rule.neg)

    section("rules", len(ground.rules), write_rules)

    def write_constraints() -> None:
        for constraint in ground.constraints:
            out.append(len(constraint.pos))
            out.append(len(constraint.neg))
            out.extend(constraint.pos)
            out.extend(constraint.neg)

    section("constraints", len(ground.constraints), write_constraints)

    def write_choices() -> None:
        for choice in ground.choices:
            out.append(len(choice.atoms))
            out.append(len(choice.pos))
            out.append(len(choice.neg))
            for bound in (choice.lower, choice.upper):
                out.append(0 if bound is None else 1)
                out.append(0 if bound is None else bound)
            out.extend(choice.atoms)
            out.extend(choice.pos)
            out.extend(choice.neg)

    section("choices", len(ground.choices), write_choices)

    def write_minimize() -> None:
        for literal in ground.minimize_literals:
            terms = literal.key[2:]
            out.append(literal.priority)
            out.append(literal.weight)
            out.append(len(terms))
            out.append(len(literal.pos))
            out.append(len(literal.neg))
            out.extend(intern(term) for term in terms)
            out.extend(literal.pos)
            out.extend(literal.neg)

    section("minimize", len(ground.minimize_literals), write_minimize)

    def write_database(name: str, database: _AtomDatabase) -> None:
        def body() -> None:
            for (rel_name, arity), relation in database.relations.items():
                out.append(intern(rel_name))
                out.append(arity)
                out.append(len(relation.tuples))
                for args in relation.tuples:
                    out.extend(args)

        section(name, len(database.relations), body)

    write_database("possible", grounder.possible)
    write_database("certain", grounder.certain)

    def write_choice_instances() -> None:
        for (rule_position, binding), index in grounder._choice_instances.items():
            out.append(rule_position)
            out.append(index)
            out.append(len(binding))
            out.extend(-1 if sid is None else sid for sid in binding)

    section(
        "choice_instances", len(grounder._choice_instances), write_choice_instances
    )

    def write_value_atoms(name: str, atoms: List[tuple]) -> None:
        def body() -> None:
            for atom in atoms:
                out.append(len(atom))
                out.extend(intern(value) for value in atom)

        section(name, len(atoms), body)

    write_value_atoms("extra_facts", grounder._extra_facts)
    write_value_atoms("possible_hints", grounder._possible_hints)

    try:
        int_data = array("q", out)
    except OverflowError as exc:  # a ground integer outside int64
        raise SnapshotError(f"value does not fit the int64 payload: {exc}") from None

    # symbol values last: the writers above may have interned minimize terms
    # or relation names that were not in the table yet
    values = symbols.snapshot_values()
    if all(type(value) in _SCALAR_TYPES for value in values):
        sym_encoding = "json"
        sym_blob = json.dumps(
            values, ensure_ascii=False, check_circular=False
        ).encode("utf-8")
    else:
        sym_encoding = "pickle"
        sym_blob = pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL)

    int_bytes = int_data.tobytes()
    digest = hashlib.sha256()
    digest.update(sym_blob)
    digest.update(int_bytes)

    header = json.dumps(
        {
            "format": SNAPSHOT_FORMAT,
            "key": key,
            "byteorder": sys.byteorder,
            "program": text,
            "config": asdict(prepared.config),
            "base_groundings": grounder.base_groundings,
            "delta_groundings": grounder.delta_groundings,
            "symbols": {"encoding": sym_encoding, "bytes": len(sym_blob)},
            "int_count": len(int_data),
            "sections": sections,
            "counts": counts,
            "payload_sha256": digest.hexdigest(),
        },
        ensure_ascii=False,
    ).encode("utf-8")

    prefix_len = len(SNAPSHOT_MAGIC) + _HEADER_LEN.size + len(header) + len(sym_blob)
    padding = b"\0" * (-prefix_len % 8)
    return b"".join(
        (
            SNAPSHOT_MAGIC,
            _HEADER_LEN.pack(len(header)),
            header,
            sym_blob,
            padding,
            int_bytes,
        )
    )


# ---------------------------------------------------------------------------
# attaching + materializing
# ---------------------------------------------------------------------------


class GroundSnapshot:
    """A snapshot file attached read-only via mmap.

    :meth:`attach` validates only the magic, header, key, and declared
    sizes — O(header), no payload reads, so N worker processes can attach
    the same file with near-zero-copy startup.  :meth:`materialize` decodes
    the payload (verifying its checksum) into a live
    :class:`~repro.asp.control.PreparedProgram`; the result is memoized on
    the handle.
    """

    def __init__(self, mm: mmap.mmap, header: dict, header_len: int, path: str):
        self._mm = mm
        self.header = header
        self._header_len = header_len
        self.path = path
        self._prepared: Optional[PreparedProgram] = None

    # -- lifecycle -----------------------------------------------------

    @classmethod
    def attach(cls, path, *, expected_key: Optional[str] = None) -> "GroundSnapshot":
        """Open + mmap + validate ``path``; raises :class:`SnapshotError`
        on any mismatch (wrong magic/format/byte order, key skew, size)."""
        try:
            with open(path, "rb") as handle:
                mm = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except OSError as exc:
            kind = "miss" if isinstance(exc, FileNotFoundError) else "corrupt"
            raise SnapshotError(
                f"cannot attach snapshot {path}: {exc}", kind=kind
            ) from exc
        except ValueError as exc:  # empty file cannot be mapped
            raise SnapshotError(f"cannot attach snapshot {path}: {exc}") from exc
        try:
            magic_len = len(SNAPSHOT_MAGIC)
            if mm[:magic_len] != SNAPSHOT_MAGIC:
                raise SnapshotError(f"{path}: not a ground snapshot")
            (header_len,) = _HEADER_LEN.unpack_from(mm, magic_len)
            header_off = magic_len + _HEADER_LEN.size
            if header_off + header_len > len(mm):
                raise SnapshotError(f"{path}: truncated header")
            try:
                header = json.loads(mm[header_off : header_off + header_len])
            except ValueError as exc:
                raise SnapshotError(f"{path}: corrupt header: {exc}") from None
            if header.get("format") != SNAPSHOT_FORMAT:
                raise SnapshotError(
                    f"{path}: snapshot format {header.get('format')!r}, "
                    f"expected {SNAPSHOT_FORMAT}",
                    kind="miss",
                )
            if header.get("byteorder") != sys.byteorder:
                raise SnapshotError(f"{path}: foreign byte order", kind="miss")
            if expected_key is not None and header.get("key") != expected_key:
                raise SnapshotError(f"{path}: key mismatch", kind="miss")
            sym_end = header_off + header_len + header["symbols"]["bytes"]
            int_off = sym_end + (-sym_end % 8)
            if int_off + 8 * header["int_count"] != len(mm):
                raise SnapshotError(f"{path}: payload size mismatch")
        except SnapshotError:
            mm.close()
            raise
        except Exception as exc:  # malformed header fields
            mm.close()
            raise SnapshotError(f"{path}: invalid snapshot: {exc}") from exc
        return cls(mm, header, header_len, str(path))

    def close(self) -> None:
        if self._mm is not None:
            self._mm.close()
            self._mm = None

    def __enter__(self) -> "GroundSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def nbytes(self) -> int:
        return len(self._mm) if self._mm is not None else 0

    @property
    def key(self) -> str:
        return self.header.get("key", "")

    # -- materialization -----------------------------------------------

    def materialize(self) -> PreparedProgram:
        """Decode the payload into a live prepared program (memoized)."""
        if self._prepared is not None:
            return self._prepared
        if self._mm is None:
            raise SnapshotError(f"{self.path}: snapshot is closed")
        try:
            prepared = self._materialize()
        except SnapshotError:
            raise
        except Exception as exc:  # any decode failure degrades to cold
            raise SnapshotError(f"{self.path}: corrupt payload: {exc}") from exc
        self._prepared = prepared
        return prepared

    def _materialize(self) -> PreparedProgram:
        mm = self._mm
        header = self.header
        sym_off = len(SNAPSHOT_MAGIC) + _HEADER_LEN.size + self._header_len
        sym_len = header["symbols"]["bytes"]
        sym_blob = mm[sym_off : sym_off + sym_len]
        int_off = sym_off + sym_len
        int_off += -int_off % 8

        # the views must be released before any close(): an mmap with live
        # exported buffers refuses to close (BufferError)
        int_view = memoryview(mm)[int_off:]
        try:
            digest = hashlib.sha256()
            digest.update(sym_blob)
            digest.update(int_view)
            if digest.hexdigest() != header["payload_sha256"]:
                raise SnapshotError(f"{self.path}: payload checksum mismatch")
            # one C-speed pass from the mapped page cache to Python ints;
            # every decode below slices this list
            cast = int_view.cast("q")
            try:
                data = cast.tolist()
            finally:
                cast.release()
        finally:
            int_view.release()

        if header["symbols"]["encoding"] == "json":
            values = json.loads(sym_blob)
        else:
            values = pickle.loads(sym_blob)

        prepared = PreparedProgram.__new__(PreparedProgram)
        prepared.config = SolverConfig(**header["config"])
        prepared.timer = PhaseTimer()
        prepared.text = header["program"]
        with prepared.timer.phase("load"):
            prepared.program = parse_program_cached(prepared.text)
        with prepared.timer.phase("attach"):
            prepared._base = self._decode_grounder(header, values, data, prepared.program)
        prepared._reset_solve_state()
        return prepared

    def _decode_grounder(
        self, header: dict, values: list, data: List[int], program
    ) -> Grounder:
        sections = header["sections"]
        counts = header["counts"]

        grounder = Grounder.__new__(Grounder)
        grounder.program = program
        grounder.symbols = SymbolTable(values)
        ground = GroundProgram()
        grounder.ground_program = ground

        # atom table + id registry
        num_atoms = counts["atom_offsets"]
        start, end = sections["atom_offsets"]
        offsets = data[start:end]
        start, end = sections["atom_data"]
        atom_data = data[start:end]
        to_atom = ground.atoms._to_atom
        atom_ids: Dict[tuple, int] = {}
        for index in range(num_atoms):
            id_key = tuple(atom_data[offsets[index] : offsets[index + 1]])
            to_atom.append((values[id_key[0]],) + tuple(values[s] for s in id_key[1:]))
            atom_ids[id_key] = index + 1
        ground.atoms._to_id = dict(zip(to_atom[1:], range(1, num_atoms + 1)))
        grounder._atom_ids = atom_ids

        start, end = sections["facts"]
        ground.facts.update(data[start:end])

        # frozen-dataclass elements are restored through __new__ + an in-place
        # __dict__ update — the same shape pickle uses — because __init__'s
        # object.__setattr__ calls dominate decode time otherwise
        start, end = sections["rules"]
        i = start
        new_rule = GroundRule.__new__
        rules = ground.rules
        for _ in range(counts["rules"]):
            head, npos, nneg = data[i], data[i + 1], data[i + 2]
            i += 3
            rule = new_rule(GroundRule)
            rule.__dict__.update({
                "head": head,
                "pos": tuple(data[i : i + npos]),
                "neg": tuple(data[i + npos : i + npos + nneg]),
            })
            i += npos + nneg
            rules.append(rule)

        start, end = sections["constraints"]
        i = start
        new_constraint = GroundConstraint.__new__
        constraints = ground.constraints
        for _ in range(counts["constraints"]):
            npos, nneg = data[i], data[i + 1]
            i += 2
            constraint = new_constraint(GroundConstraint)
            constraint.__dict__.update({
                "pos": tuple(data[i : i + npos]),
                "neg": tuple(data[i + npos : i + npos + nneg]),
            })
            i += npos + nneg
            constraints.append(constraint)

        start, end = sections["choices"]
        i = start
        new_choice = GroundChoice.__new__
        choices = ground.choices
        for _ in range(counts["choices"]):
            natoms, npos, nneg = data[i], data[i + 1], data[i + 2]
            lower = data[i + 4] if data[i + 3] else None
            upper = data[i + 6] if data[i + 5] else None
            i += 7
            choice = new_choice(GroundChoice)
            choice.__dict__.update({
                "atoms": tuple(data[i : i + natoms]),
                "pos": tuple(data[i + natoms : i + natoms + npos]),
                "neg": tuple(data[i + natoms + npos : i + natoms + npos + nneg]),
                "lower": lower,
                "upper": upper,
            })
            i += natoms + npos + nneg
            choices.append(choice)

        start, end = sections["minimize"]
        i = start
        new_minimize = GroundMinimizeLiteral.__new__
        minimize_literals = ground.minimize_literals
        for _ in range(counts["minimize"]):
            priority, weight, nterms, npos, nneg = data[i : i + 5]
            i += 5
            terms = tuple(values[s] for s in data[i : i + nterms])
            i += nterms
            literal = new_minimize(GroundMinimizeLiteral)
            literal.__dict__.update({
                "priority": priority,
                "weight": weight,
                "key": (priority, weight) + terms,
                "pos": tuple(data[i : i + npos]),
                "neg": tuple(data[i + npos : i + npos + nneg]),
            })
            i += npos + nneg
            minimize_literals.append(literal)

        grounder.possible = self._decode_database(
            data, sections["possible"], counts["possible"], values
        )
        grounder.certain = self._decode_database(
            data, sections["certain"], counts["certain"], values
        )

        start, end = sections["choice_instances"]
        i = start
        choice_instances: Dict[tuple, int] = {}
        for _ in range(counts["choice_instances"]):
            rule_position, index, nbind = data[i], data[i + 1], data[i + 2]
            i += 3
            binding = tuple(
                None if sid < 0 else sid for sid in data[i : i + nbind]
            )
            i += nbind
            choice_instances[(rule_position, binding)] = index
        grounder._choice_instances = choice_instances

        grounder._extra_facts = self._decode_value_atoms(
            data, sections["extra_facts"], counts["extra_facts"], values
        )
        grounder._possible_hints = self._decode_value_atoms(
            data, sections["possible_hints"], counts["possible_hints"], values
        )

        # derived dedup registries: rebuilt from the decoded elements rather
        # than stored (they are pure functions of the ground program)
        grounder._rule_keys = {(r.head, r.pos, r.neg) for r in rules}
        grounder._constraint_keys = {(c.pos, c.neg) for c in constraints}
        grounder._minimize_keys = {
            (m.priority, m.weight, m.key[2:], m.pos, m.neg)
            for m in minimize_literals
        }

        grounder._delta = None
        grounder.base_groundings = header["base_groundings"]
        grounder.delta_groundings = header["delta_groundings"]
        grounder._compiled = {}
        grounder.restore_setup()
        return grounder

    @staticmethod
    def _decode_database(
        data: List[int], span: List[int], count: int, values: list
    ) -> _AtomDatabase:
        database = _AtomDatabase()
        relations = database.relations
        i = span[0]
        for _ in range(count):
            name_sid, arity, ntuples = data[i], data[i + 1], data[i + 2]
            i += 3
            if arity:
                flat = data[i : i + ntuples * arity]
                i += ntuples * arity
                tuples = list(zip(*[iter(flat)] * arity))
            else:
                tuples = [()] * ntuples
            relation = _Relation.__new__(_Relation)
            relation.tuples = tuples
            relation._seen = set(tuples)
            relation._indexes = {}
            relation._shared = False
            relations[(values[name_sid], arity)] = relation
        return database

    @staticmethod
    def _decode_value_atoms(
        data: List[int], span: List[int], count: int, values: list
    ) -> List[tuple]:
        atoms: List[tuple] = []
        i = span[0]
        for _ in range(count):
            length = data[i]
            i += 1
            atoms.append(tuple(values[s] for s in data[i : i + length]))
            i += length
        return atoms
