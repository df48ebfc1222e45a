"""Pluggable ciphertext storage for the untrusted server.

The server's state is a map from relation name to encrypted relation; how
that map is persisted is an operational concern independent of the security
model (the provider stores only ciphertext either way).  The
:class:`StorageBackend` interface isolates it so deployments can swap the
default in-memory dict for the file-backed store (or, in later work, a
sharded / remote one) without touching the protocol layer.

The file backend reuses the wire codecs of
:mod:`repro.outsourcing.protocol`, so bytes at rest are exactly the bytes in
flight -- what a provider-side disk leak would expose is precisely what the
storage-overhead experiment E9 measures.  An append writes each decoded
tuple's ``framed`` memo as it is.
"""

from __future__ import annotations

import contextlib
import errno
import os
import pathlib
import tempfile
from abc import ABC, abstractmethod
from typing import Iterable, Sequence

from repro.core.dph import EncryptedRelation, EncryptedTuple
from repro.outsourcing.protocol import (
    ProtocolError,
    decode_encrypted_relation,
    decode_schema_declaration,
    encode_encrypted_relation,
    frame_encrypted_tuple,
)
from repro.relational.schema import RelationSchema


class StorageError(Exception):
    """A relation could not be loaded or saved."""


class StorageBackend(ABC):
    """Where the provider keeps its (ciphertext-only) relations."""

    @abstractmethod
    def save(self, name: str, encrypted_relation: EncryptedRelation) -> None:
        """Store (or replace) a relation under ``name``."""

    @abstractmethod
    def load(self, name: str) -> EncryptedRelation:
        """Return the stored relation, raising :class:`StorageError` if absent."""

    @abstractmethod
    def delete(self, name: str) -> None:
        """Drop a stored relation (no-op when absent)."""

    @abstractmethod
    def names(self) -> tuple[str, ...]:
        """Names of all stored relations."""

    def __contains__(self, name: str) -> bool:
        return name in self.names()

    def size_in_bytes(self, name: str) -> int:
        """Ciphertext footprint of one relation."""
        return self.load(name).size_in_bytes()

    def schema(self, name: str) -> RelationSchema:
        """The stored relation's schema; the default decodes the relation."""
        return self.load(name).schema

    @abstractmethod
    def tuple_count(self, name: str) -> int:
        """Number of stored tuple ciphertexts, read without decoding them."""

    @abstractmethod
    def append(self, name: str, encrypted_tuples: Sequence[EncryptedTuple]) -> None:
        """Append tuple ciphertexts, in order, to a stored relation: all or none."""

    def remove(self, name: str, tuple_ids: Iterable[bytes]) -> tuple[tuple[bytes, ...], int]:
        """Delete every stored copy of ``tuple_ids``; unknown ids are ignored.

        Returns the deleted ids, each once and in stored order, and how many
        ciphertexts went (every copy of a duplicated id counts).  The
        default rewrites the whole relation when something was deleted.
        """
        stored = self.load(name)
        wanted = set(tuple_ids)
        kept = tuple(t for t in stored if t.tuple_id not in wanted)
        deleted = tuple(dict.fromkeys(t.tuple_id for t in stored if t.tuple_id in wanted))
        if deleted:
            self.save(name, EncryptedRelation(schema=stored.schema, encrypted_tuples=kept))
        return deleted, len(stored) - len(kept)

    def fetch(self, name: str, tuple_ids: Iterable[bytes]) -> EncryptedRelation:
        """The stored ciphertexts of ``tuple_ids`` in the order asked: the first
        copy of each, nothing for an unknown id.  The default loads it all."""
        stored = self.load(name)
        by_id = {t.tuple_id: t for t in reversed(stored.encrypted_tuples)}
        return EncryptedRelation(
            schema=stored.schema,
            encrypted_tuples=tuple(by_id[i] for i in tuple_ids if i in by_id),
        )


class _HeldRelation:
    """One relation in memory: an insertion-ordered map from id to ciphertext.

    A further copy of a stored id (a replayed insert, or one a rebalance
    left behind) is kept under ``(id, position)`` and listed in ``extra``;
    ``first`` holds each id's first stored position, which orders what a
    delete reports.  ``snapshot`` is what ``load`` hands out until the next
    write drops it.
    """

    __slots__ = ("schema", "tuples", "first", "extra", "appended", "snapshot")

    def __init__(self, relation: EncryptedRelation) -> None:
        self.schema = relation.schema
        self.tuples: dict[bytes | tuple[bytes, int], EncryptedTuple] = {}
        self.first: dict[bytes, int] = {}
        self.extra: dict[bytes, list[tuple[bytes, int]]] = {}
        self.appended = 0
        for encrypted_tuple in relation.encrypted_tuples:
            self.add(encrypted_tuple)
        self.snapshot: EncryptedRelation | None = relation

    def add(self, encrypted_tuple: EncryptedTuple) -> None:
        tuple_id, position = encrypted_tuple.tuple_id, self.appended
        self.appended = position + 1
        key = tuple_id
        if tuple_id in self.first:
            key = (tuple_id, position)
            self.extra.setdefault(tuple_id, []).append(key)
        else:
            self.first[tuple_id] = position
        self.tuples[key] = encrypted_tuple
        self.snapshot = None


class InMemoryStorageBackend(StorageBackend):
    """The default backend: each relation is a map from tuple id to ciphertext.

    :meth:`append` is O(1), :meth:`remove` and :meth:`fetch` O(ids) (one
    probe per id), and :meth:`load` returns an immutable snapshot that only
    the first load after a write rebuilds.  Tuple ids are public random nonces, so keying
    the store by them reveals nothing the ciphertexts do not.

    Single writer: one thread at a time touches a relation -- the
    provider's ``handle_message`` runs each request under its relation's
    lock, on every transport.  Other relations may be served meanwhile:
    the relation table is read by single C-level operations (a probe,
    ``tuple(dict)``), and a snapshot is one ``tuple()`` over the map.
    """

    def __init__(self) -> None:
        self._relations: dict[str, _HeldRelation] = {}

    def _held(self, name: str) -> _HeldRelation:
        try:
            return self._relations[name]
        except KeyError as exc:
            raise StorageError(f"no relation named {name!r} is stored") from exc

    def save(self, name: str, encrypted_relation: EncryptedRelation) -> None:
        self._relations[name] = _HeldRelation(encrypted_relation)

    def load(self, name: str) -> EncryptedRelation:
        held = self._held(name)
        if held.snapshot is None:
            held.snapshot = EncryptedRelation(
                schema=held.schema, encrypted_tuples=tuple(held.tuples.values())
            )
        return held.snapshot

    def tuple_count(self, name: str) -> int:
        return len(self._held(name).tuples)

    def schema(self, name: str) -> RelationSchema:
        return self._held(name).schema

    def append(self, name: str, encrypted_tuples: Sequence[EncryptedTuple]) -> None:
        add = self._held(name).add
        for encrypted_tuple in encrypted_tuples:
            add(encrypted_tuple)

    def remove(self, name: str, tuple_ids: Iterable[bytes]) -> tuple[tuple[bytes, ...], int]:
        held = self._held(name)
        found, copies = [], 0
        for tuple_id in tuple_ids:
            position = held.first.pop(tuple_id, None)
            if position is not None:
                keys = [tuple_id, *held.extra.pop(tuple_id, ())]
                for key in keys:
                    del held.tuples[key]
                found.append((position, tuple_id))
                copies += len(keys)
                held.snapshot = None
        found.sort()
        return tuple(tuple_id for _, tuple_id in found), copies

    def fetch(self, name: str, tuple_ids: Iterable[bytes]) -> EncryptedRelation:
        held = self._held(name)
        return EncryptedRelation(
            schema=held.schema,
            encrypted_tuples=tuple(filter(None, map(held.tuples.get, tuple_ids))),
        )

    def delete(self, name: str) -> None:
        self._relations.pop(name, None)

    def names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def __contains__(self, name: str) -> bool:
        return name in self._relations


class FileStorageBackend(StorageBackend):
    """One file per relation, serialized with the protocol's wire codec.

    Relation names are hex-encoded in the filename so arbitrary names are
    safe on any filesystem.  (:meth:`load` decodes the whole file: not O(1).)
    The tuple count commits an :meth:`append`: bytes past the counted tuples
    (its process killed before the count) are never read, and the first
    append this backend makes to a relation truncates and counts them.

    One provider process owns a directory: it is the one writer, and its
    appends assume no other process appends meanwhile.  Another backend on
    the same directory may read it -- :meth:`load` writes nothing, so it
    never cuts a live append short.
    """

    SUFFIX = ".rel"

    def __init__(self, directory: str | pathlib.Path) -> None:
        self._directory = pathlib.Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self.uncommitted_tails = 0  # killed appends' tails an append truncated
        self._checked: set[str] = set()  # relations known to end at their count

    @property
    def directory(self) -> pathlib.Path:
        """Where the relation files live."""
        return self._directory

    def _path(self, name: str) -> pathlib.Path:
        return self._directory / f"{name.encode('utf-8').hex()}{self.SUFFIX}"

    def save(self, name: str, encrypted_relation: EncryptedRelation) -> None:
        """Write to a temporary file, then rename into place.

        ``os.replace`` is atomic on POSIX and Windows, so a crash mid-save
        leaves either the previous relation file or the new one -- never a
        half-written ciphertext.  The temporary file carries a ``.tmp``
        suffix so it can never be mistaken for a relation by :meth:`names`.
        """
        payload = encode_encrypted_relation(encrypted_relation)
        path = self._path(name)
        tmp_fd = tmp_path = None
        try:
            tmp_fd, tmp_path = tempfile.mkstemp(
                dir=self._directory, prefix=f".{path.name}.", suffix=".tmp"
            )
            with os.fdopen(tmp_fd, "wb") as handle:
                tmp_fd = None  # fdopen owns the descriptor now
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_path, path)
            tmp_path = None
            self._checked.add(name)
        except OSError as exc:
            raise StorageError(f"cannot save relation {name!r}: {exc}") from exc
        finally:
            if tmp_fd is not None:
                with contextlib.suppress(OSError):
                    os.close(tmp_fd)
            if tmp_path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp_path)

    def load(self, name: str) -> EncryptedRelation:
        return self._read(name)[0]

    def _read(self, name: str) -> tuple[EncryptedRelation, int | None]:
        """The relation's counted tuples, and where they end when an
        uncommitted tail follows them (``None`` when none does)."""
        path = self._path(name)
        if not path.exists():
            raise StorageError(f"no relation named {name!r} is stored")
        try:
            raw = path.read_bytes()
            try:
                return decode_encrypted_relation(raw), None
            except ProtocolError:
                committed = _committed_length(raw)
                if committed is None:
                    raise
                return decode_encrypted_relation(raw[:committed]), committed
        except Exception as exc:
            raise StorageError(f"stored relation {name!r} is corrupt: {exc}") from exc

    def delete(self, name: str) -> None:
        path = self._path(name)
        if path.exists():
            path.unlink()
        self._checked.discard(name)

    def __contains__(self, name: str) -> bool:
        try:
            return self._path(name).exists()
        except OSError:  # e.g. a name too long for the filesystem
            return False

    def names(self) -> tuple[str, ...]:
        names = []
        for path in sorted(self._directory.glob(f"*{self.SUFFIX}")):
            try:
                names.append(bytes.fromhex(path.stem).decode("utf-8"))
            except ValueError:
                continue  # foreign file in the storage directory
        return tuple(names)

    def _header(self, name: str) -> tuple[bytes, int]:
        """The schema declaration and the tuple count, read without the tuples."""
        path = self._path(name)
        if not path.exists():
            raise StorageError(f"no relation named {name!r} is stored")
        try:
            with path.open("rb") as handle:
                header = handle.read(4)
                declaration = handle.read(int.from_bytes(header, "big"))
                count_raw = handle.read(4)
        except OSError as exc:
            raise StorageError(f"cannot read relation {name!r}: {exc}") from exc
        if len(header) != 4 or len(count_raw) != 4:
            raise StorageError(f"stored relation {name!r} is corrupt")
        return declaration, int.from_bytes(count_raw, "big")

    def tuple_count(self, name: str) -> int:
        return self._header(name)[1]

    def schema(self, name: str) -> RelationSchema:
        try:
            return decode_schema_declaration(self._header(name)[0])
        except ProtocolError as exc:
            raise StorageError(f"stored relation {name!r} is corrupt: {exc}") from exc

    def append(self, name: str, encrypted_tuples: Sequence[EncryptedTuple]) -> None:
        """Append in place: extend the file, then bump the tuple count once.

        The wire layout is ``len(schema) || schema || count || items...``
        with 4-byte big-endian prefixes, so an append only rewrites the
        4-byte count instead of the whole relation.  The items go first, in
        one write; a failed write puts the old count back (it may have half
        landed) and truncates the file to its old length, so a full disk
        fails the append and leaves the relation as it was.
        """
        path = self._path(name)
        if not path.exists():
            raise StorageError(f"no relation named {name!r} is stored")
        if name not in self._checked:
            # The first touch: cut the tail a killed append left behind.
            committed = self._read(name)[1]
            if committed is not None:
                try:
                    os.truncate(path, committed)
                except OSError as exc:
                    raise StorageError(f"cannot append to relation {name!r}: {exc}") from exc
                self.uncommitted_tails += 1
            self._checked.add(name)
        items = b"".join(map(frame_encrypted_tuple, encrypted_tuples))
        try:
            # Unbuffered: a failed write raises at the write, not at close.
            with path.open("r+b", buffering=0) as handle:
                header = handle.read(4)
                if len(header) != 4:
                    raise StorageError(f"stored relation {name!r} is corrupt")
                count_offset = 4 + int.from_bytes(header, "big")
                handle.seek(count_offset)
                count_raw = handle.read(4)
                if len(count_raw) != 4:
                    raise StorageError(f"stored relation {name!r} is corrupt")
                count = int.from_bytes(count_raw, "big") + len(encrypted_tuples)
                end = handle.seek(0, os.SEEK_END)
                try:
                    _write_all(handle, items)
                    handle.seek(count_offset)
                    _write_all(handle, count.to_bytes(4, "big"))
                except OSError:
                    handle.seek(count_offset)
                    _write_all(handle, count_raw)
                    handle.truncate(end)
                    raise
        except OSError as exc:
            raise StorageError(f"cannot append to relation {name!r}: {exc}") from exc


def _committed_length(raw: bytes) -> int | None:
    """Where a relation file's counted tuples end, when bytes follow them."""
    offset = 4 + int.from_bytes(raw[:4], "big")
    count = int.from_bytes(raw[offset:offset + 4], "big")
    offset += 4
    for _ in range(min(count, len(raw) // 4)):  # a frame takes 4 bytes or more
        offset += 4 + int.from_bytes(raw[offset:offset + 4], "big")
    return offset if count <= len(raw) // 4 and offset < len(raw) else None


def _write_all(handle, data: bytes) -> None:
    """One raw write of ``data``; a short write is a failed one."""
    written = handle.write(data)
    if written != len(data):
        raise OSError(errno.ENOSPC, f"short write ({written} of {len(data)} bytes)")
