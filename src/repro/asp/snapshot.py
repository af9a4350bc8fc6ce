"""Ground snapshots: a grounded :class:`PreparedProgram` base and its
completion template in one checksummed file.

The payload is ``pickle.dumps((prepared, template))``: the prepared program
(its parsed program and ground state; pickling drops per-process solve
state) and the base's :class:`~repro.asp.completion.CompletionTemplate`, or
None.  :meth:`GroundSnapshot.materialize` hands the template to the restored
program's :class:`~repro.asp.completion.BaseCompletion`, so the first solve
on a base read from a snapshot starts from it instead of building it.

File layout::

    magic (8 bytes)  |  header length (uint64 LE)  |  JSON header  |  payload

The header holds the format, a caller-chosen ``key`` (the cache token, which
already encodes content hash and cache format version), the template's atom
count (or null), the payload length and a SHA-256 over every other header
field, in canonical JSON, then the payload.  :meth:`GroundSnapshot.attach`
reads and checks the header alone; :meth:`GroundSnapshot.materialize`
verifies the checksum before it unpickles anything, so truncation or bit rot
surfaces as :class:`SnapshotError` and the caller falls back to the pickle
ground cache or a cold ground.

A snapshot is unpickled, so the directory that holds it is trusted local
state, as the pickle ground cache's is: the checksum catches damage, not an
author who means harm.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
from typing import Optional

from repro.asp.completion import CompletionTemplate
from repro.asp.control import PreparedProgram
from repro.asp.solver import collector_paused
from repro.asp.stats import PhaseTimer

__all__ = ["GroundSnapshot", "SnapshotError", "snapshot_bytes", "SNAPSHOT_FORMAT"]

SNAPSHOT_MAGIC = b"RASNAP01"
#: version of the file layout itself; bump together with
#: ``repro.spack.store.CACHE_FORMAT_VERSION`` when the encoding changes
SNAPSHOT_FORMAT = 4

_HEADER_LEN = struct.Struct("<Q")
_PREFIX_LEN = len(SNAPSHOT_MAGIC) + _HEADER_LEN.size


class SnapshotError(Exception):
    """The snapshot file is unusable (wrong magic/format/key, truncated,
    checksum mismatch, undecodable payload).  Callers treat this exactly
    like a cache miss and fall back to the pickle or a cold ground.

    ``kind`` mirrors the disk-cache load classification: ``"miss"`` for
    expected situations (absent file, format skew, foreign key) and
    ``"corrupt"`` for damaged files, so cache layers can keep their miss vs
    load-error counters honest.
    """

    def __init__(self, message: str, kind: str = "corrupt"):
        super().__init__(message)
        self.kind = kind


def snapshot_bytes(
    prepared: PreparedProgram, *, key: str = "", with_template: bool = False
) -> bytes:
    """Encode a grounded prepared program as a snapshot file.

    ``key`` is an opaque caller token (the ground-cache key) echoed in the
    header and checked by :meth:`GroundSnapshot.attach`, so a snapshot can
    never be applied to the wrong catalog or cache format version.  With
    ``with_template``, the program's completion template goes too: the one
    its solves use, built now (under its lock) unless it already exists.
    """
    template = prepared._completion.template() if with_template else None
    payload = pickle.dumps((prepared, template), protocol=pickle.HIGHEST_PROTOCOL)
    fields = {
        "format": SNAPSHOT_FORMAT,
        "key": key,
        "template": None if template is None else {"atoms": template.atoms},
        "payload_bytes": len(payload),
    }
    fields["payload_sha256"] = _digest(fields, payload)
    header = json.dumps(fields).encode("utf-8")
    return b"".join((SNAPSHOT_MAGIC, _HEADER_LEN.pack(len(header)), header, payload))


def _digest(header: dict, payload: bytes) -> str:
    """A SHA-256 over every header field but the checksum itself, in
    canonical JSON (which a decoded header reproduces byte for byte), then
    the payload."""
    fields = {name: value for name, value in header.items() if name != "payload_sha256"}
    digest = hashlib.sha256(json.dumps(fields, sort_keys=True).encode("utf-8"))
    digest.update(payload)
    return digest.hexdigest()


def _read(path: str, expected_key: Optional[str], payload: bool):
    """The header of the snapshot at ``path``, checked (magic, format, key,
    and a file size that ends where the payload does), and the payload when
    ``payload`` is true, else None.  Every failure is a
    :class:`SnapshotError`; an absent file is a miss."""
    try:
        with open(path, "rb") as handle:
            prefix = handle.read(_PREFIX_LEN)
            if len(prefix) < _PREFIX_LEN or prefix[: len(SNAPSHOT_MAGIC)] != SNAPSHOT_MAGIC:
                raise SnapshotError(f"{path}: not a ground snapshot")
            (header_len,) = _HEADER_LEN.unpack_from(prefix, len(SNAPSHOT_MAGIC))
            size = os.fstat(handle.fileno()).st_size
            if _PREFIX_LEN + header_len > size:
                raise SnapshotError(f"{path}: truncated header")
            try:
                header = json.loads(handle.read(header_len))
            except ValueError as exc:
                raise SnapshotError(f"{path}: corrupt header: {exc}") from None
            if not isinstance(header, dict):
                raise SnapshotError(f"{path}: corrupt header")
            if header.get("format") != SNAPSHOT_FORMAT:
                raise SnapshotError(
                    f"{path}: snapshot format {header.get('format')!r}, "
                    f"expected {SNAPSHOT_FORMAT}",
                    kind="miss",
                )
            if expected_key is not None and header.get("key") != expected_key:
                raise SnapshotError(f"{path}: key mismatch", kind="miss")
            length = header.get("payload_bytes")
            if not isinstance(length, int) or _PREFIX_LEN + header_len + length != size:
                raise SnapshotError(f"{path}: payload size mismatch")
            return header, handle.read() if payload else None
    except OSError as exc:
        kind = "miss" if isinstance(exc, FileNotFoundError) else "corrupt"
        raise SnapshotError(f"cannot read snapshot {path}: {exc}", kind=kind) from exc


class GroundSnapshot:
    """The checked header of one snapshot file.

    :meth:`attach` reads the header alone, so a probe for a valid snapshot
    costs one small read.  :meth:`materialize` reads the payload, verifies
    the checksum and decodes a live
    :class:`~repro.asp.control.PreparedProgram`; each call decodes anew.
    """

    def __init__(self, path: str, header: dict):
        self.path = path
        self.header = header

    @classmethod
    def attach(cls, path, *, expected_key: Optional[str] = None) -> "GroundSnapshot":
        """Read and check the header of ``path``; raises
        :class:`SnapshotError` on any mismatch (wrong magic or format, key
        skew, a size that is not the header's)."""
        path = str(path)
        header, _ = _read(path, expected_key, payload=False)
        return cls(path, header)

    def materialize(self) -> PreparedProgram:
        """The prepared program the payload holds, with its template if the
        snapshot carries one, decoded with the cyclic collector paused.

        The header is read again, from the same open file as the payload,
        so a file replaced since :meth:`attach` (a concurrent writer of the
        same key) is decoded whole, never half of each.  The decode is the
        program's ``attach`` phase, on a timer of its own: the pickled one
        holds the writer's times."""
        timer = PhaseTimer()
        self.header, payload = _read(self.path, self.header.get("key"), payload=True)
        if _digest(self.header, payload) != self.header.get("payload_sha256"):
            raise SnapshotError(f"{self.path}: checksum mismatch")
        try:
            with timer.phase("attach"), collector_paused():
                prepared, template = pickle.loads(payload)
        except Exception as exc:  # a writer's payload that cannot be decoded here
            raise SnapshotError(f"{self.path}: corrupt payload: {exc}") from exc
        if not isinstance(prepared, PreparedProgram):
            raise SnapshotError(f"{self.path}: payload is not a prepared program")
        if template is not None and (
            not isinstance(template, CompletionTemplate)
            or template.atoms != len(prepared.base_ground_program.atoms)
        ):
            raise SnapshotError(f"{self.path}: template is not the program's")
        prepared.timer = timer
        prepared._reset_solve_state(template)
        return prepared
