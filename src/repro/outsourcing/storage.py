"""Ciphertext storage for the untrusted server.

The server's state is a map from relation name to encrypted relation; how
that map is persisted is an operational concern independent of the security
model (the provider stores only ciphertext either way).  There is one
store, :class:`InMemoryStorageBackend`, and every read runs its code.
:class:`FileStorageBackend` is that store plus durable writes: a write
reaches the relation's file before memory serves it, and a relation file is
decoded once per change on disk.

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
from typing import Iterable, Sequence

from repro.core.dph import EncryptedRelation, EncryptedTuple
from repro.outsourcing.protocol import (
    ProtocolError,
    decode_encrypted_relation,
    encode_encrypted_relation,
    frame_encrypted_tuple,
)
from repro.relational.schema import RelationSchema


class StorageError(Exception):
    """A relation could not be loaded or saved."""


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


class InMemoryStorageBackend:
    """Where the provider keeps its (ciphertext-only) relations: in memory,
    each a map from tuple id to ciphertext.  Every store subclasses it.

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
        """Delete every stored copy of ``tuple_ids`` (unknown ids are ignored);
        the deleted ids, once each in stored order, and the copies that went."""
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
        """The first stored copy of each known id of ``tuple_ids``, in that order."""
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


class FileStorageBackend(InMemoryStorageBackend):
    """The in-memory store plus durable writes: one file per relation, in the
    protocol's wire codec, its name hex-encoded so any name is safe.

    Every read runs the in-memory store's code.  A relation file is decoded
    into the held copy on first use, and again only when its ``(inode,
    size, mtime_ns)`` -- one ``stat`` per read -- is not that of the file
    this backend last read or wrote: another backend's write shows on the
    next read, and a file corrupted under a live provider fails it.  Every
    write reaches the file before memory serves it, and the next read after
    a failed one answers what the file holds: a failed append leaves memory
    as it was, a failed save forgets the signature.  RAM holds the
    relations this backend has touched.

    The tuple count commits an :meth:`append`: bytes past the counted
    tuples (its process killed before the count) are never read, and an
    append truncates and counts them first.  One provider process owns a
    directory: it is the one writer.  Another backend may read it -- a read
    writes nothing, so it never cuts a live append short.
    """

    SUFFIX = ".rel"

    def __init__(self, directory: str | pathlib.Path) -> None:
        super().__init__()
        self._directory = pathlib.Path(directory)
        self._directory.mkdir(parents=True, exist_ok=True)
        self.uncommitted_tails = 0  # killed appends' tails an append truncated
        # Relation -> the signature of the file its held copy was read from
        # or written as, where an uncommitted tail starts (None: none), and
        # the file's path.
        self._files: dict[str, tuple[tuple[int, int, int], int | None, pathlib.Path]] = {}

    @property
    def directory(self) -> pathlib.Path:
        """Where the relation files live."""
        return self._directory

    def _path(self, name: str) -> pathlib.Path:
        return self._directory / f"{name.encode('utf-8').hex()}{self.SUFFIX}"

    def _held(self, name: str) -> _HeldRelation:
        seen = self._files.get(name)
        path = self._path(name) if seen is None else seen[2]
        try:
            signature = _signature(path)
        except OSError as exc:
            self._files.pop(name, None)
            self._relations.pop(name, None)
            raise StorageError(f"no relation named {name!r} is stored") from exc
        if seen is None or seen[0] != signature:
            relation, tail = self._decode(name, path)
            self._relations[name] = _HeldRelation(relation)
            self._files[name] = signature, tail, path
        return self._relations[name]

    def _decode(self, name: str, path: pathlib.Path) -> tuple[EncryptedRelation, int | None]:
        """The file's counted tuples, and where they end when an uncommitted
        tail follows them (``None`` when none does)."""
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

    def save(self, name: str, encrypted_relation: EncryptedRelation) -> None:
        """Write to a temporary file, then rename into place, then hold it.

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
                signature = _signature(handle.fileno())  # a rename keeps it
            os.replace(tmp_path, path)
            tmp_path = None
        except OSError as exc:
            self._files.pop(name, None)
            raise StorageError(f"cannot save relation {name!r}: {exc}") from exc
        finally:
            if tmp_fd is not None:
                with contextlib.suppress(OSError):
                    os.close(tmp_fd)
            if tmp_path is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp_path)
        self._files[name] = signature, None, path
        super().save(name, encrypted_relation)

    def append(self, name: str, encrypted_tuples: Sequence[EncryptedTuple]) -> None:
        """Append in place: extend the file, then bump the tuple count once.

        The wire layout is ``len(schema) || schema || count || items...``
        with 4-byte big-endian prefixes, so an append only rewrites the
        4-byte count instead of the whole relation.  The items go first, in
        one write; a failed write puts the old count back (it may have half
        landed) and truncates the file to its old length, so a full disk
        fails the append and leaves the relation as it was.
        """
        self._held(name)  # the file is there and the held copy current
        _, tail, path = self._files[name]
        items = b"".join(map(frame_encrypted_tuple, encrypted_tuples))
        try:
            if tail is not None:  # cut the tail a killed append left behind
                os.truncate(path, tail)
                self.uncommitted_tails += 1
            # Unbuffered: a failed write raises at the write, not at close.
            with path.open("r+b", buffering=0) as handle:
                count_offset = 4 + int.from_bytes(handle.read(4), "big")
                handle.seek(count_offset)
                count_raw = handle.read(4)
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
                signature = _signature(handle.fileno())
        except OSError as exc:  # the file changed (a new signature) or is as it was
            raise StorageError(f"cannot append to relation {name!r}: {exc}") from exc
        self._files[name] = signature, None, path
        super().append(name, encrypted_tuples)

    def remove(self, name: str, tuple_ids: Iterable[bytes]) -> tuple[tuple[bytes, ...], int]:
        """Delete from the held copy, then rewrite the file from it."""
        deleted = super().remove(name, tuple_ids)
        if deleted[0]:
            self.save(name, self.load(name))
        return deleted

    def delete(self, name: str) -> None:
        self._path(name).unlink(missing_ok=True)
        self._files.pop(name, None)
        super().delete(name)

    def __contains__(self, name: str) -> bool:
        return os.path.exists(self._path(name))  # False, not OSError, for a name too long

    def names(self) -> tuple[str, ...]:
        names = []
        for path in sorted(self._directory.glob(f"*{self.SUFFIX}")):
            try:
                names.append(bytes.fromhex(path.stem).decode("utf-8"))
            except ValueError:
                continue  # foreign file in the storage directory
        return tuple(names)


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


def _signature(file: str | os.PathLike | int) -> tuple[int, int, int]:
    """A relation file's ``(inode, size, mtime_ns)``, by path or descriptor."""
    stat = os.stat(file)
    return stat.st_ino, stat.st_size, stat.st_mtime_ns
