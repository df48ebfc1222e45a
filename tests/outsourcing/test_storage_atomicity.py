"""Crash-safety of the file storage backend's save and append paths."""

from __future__ import annotations

import errno
import os
import pathlib
import subprocess
import sys

import pytest

from repro.index import IndexDelta
from repro.outsourcing import OutsourcedDatabaseServer
from repro.outsourcing.protocol import encode_encrypted_relation, frame_encrypted_tuple
from repro.outsourcing.storage import FileStorageBackend, StorageError

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"


@pytest.fixture
def backend(tmp_path, swp_dph, employee_relation):
    storage = FileStorageBackend(tmp_path)
    storage.save("Emp", swp_dph.encrypt_relation(employee_relation))
    return storage


class TestAtomicSave:
    def test_save_replaces_atomically(self, backend, swp_dph, employee_relation):
        before = len(backend.load("Emp"))
        backend.save("Emp", swp_dph.encrypt_relation(employee_relation))
        assert len(backend.load("Emp")) == before

    def test_no_temp_files_survive_a_save(self, backend, tmp_path):
        leftovers = [p for p in tmp_path.iterdir() if p.suffix != ".rel"]
        assert leftovers == []

    def test_crash_during_write_preserves_the_old_relation(
        self, backend, tmp_path, swp_dph, employee_relation, monkeypatch
    ):
        """A failure after the bytes are partially written must not corrupt."""
        original = backend.load("Emp")

        def exploding_fsync(fd):
            raise OSError("disk pulled mid-write")

        monkeypatch.setattr(os, "fsync", exploding_fsync)
        with pytest.raises(StorageError, match="cannot save"):
            backend.save("Emp", swp_dph.encrypt_relation(employee_relation))
        monkeypatch.undo()

        # the stored relation is byte-identical to the pre-crash state...
        survived = backend.load("Emp")
        assert [t.tuple_id for t in survived] == [t.tuple_id for t in original]
        # ...and the aborted temp file was cleaned up
        assert [p for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []

    def test_crash_during_rename_preserves_the_old_relation(
        self, backend, swp_dph, employee_relation, monkeypatch
    ):
        original = backend.load("Emp")

        def exploding_replace(src, dst):
            raise OSError("crashed before rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(StorageError, match="cannot save"):
            backend.save("Emp", swp_dph.encrypt_relation(employee_relation))
        monkeypatch.undo()
        assert [t.tuple_id for t in backend.load("Emp")] == [
            t.tuple_id for t in original
        ]

    def test_temp_files_are_invisible_to_names(self, backend, tmp_path):
        (tmp_path / ".deadbeef.rel.12345.tmp").write_bytes(b"partial garbage")
        assert backend.names() == ("Emp",)

    def test_fresh_save_failure_leaves_no_relation_behind(
        self, tmp_path, swp_dph, employee_relation, monkeypatch
    ):
        storage = FileStorageBackend(tmp_path / "fresh")

        def exploding_replace(src, dst):
            raise OSError("crashed")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(StorageError):
            storage.save("Emp", swp_dph.encrypt_relation(employee_relation))
        monkeypatch.undo()
        assert storage.names() == ()
        with pytest.raises(StorageError):
            storage.load("Emp")


class _FullDiskHandle:
    """A file handle whose ``fail_on``-th write hits a full disk.

    ``data[:landed]`` of that write reaches the file before it raises.
    """

    def __init__(self, handle, fail_on: int, landed: int | None) -> None:
        self._handle = handle
        self._fail_on = fail_on
        self._landed = landed
        self._writes = 0

    def write(self, data):
        self._writes += 1
        if self._writes == self._fail_on:
            self._handle.write(data[: self._landed])
            raise OSError(errno.ENOSPC, "No space left on device")
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


def _append_on_a_full_disk(backend, tmp_path, monkeypatch, extra, fail_on, landed):
    """Append ``extra`` with the ``fail_on``-th write failing: nothing old is
    lost, nothing new is kept, and the relation then takes the append."""
    original = [t.tuple_id for t in backend.load("Emp")]
    (stored_file,) = tmp_path.glob("*.rel")
    size = stored_file.stat().st_size
    real_open = pathlib.Path.open
    monkeypatch.setattr(
        pathlib.Path,
        "open",
        lambda path, *args, **kwargs: _FullDiskHandle(
            real_open(path, *args, **kwargs), fail_on, landed
        ),
    )
    with pytest.raises(StorageError, match="cannot append"):
        backend.append("Emp", extra)
    monkeypatch.undo()

    assert [t.tuple_id for t in backend.load("Emp")] == original
    assert backend.tuple_count("Emp") == len(original)
    assert stored_file.stat().st_size == size
    # ... and the relation still takes appends.
    backend.append("Emp", extra)
    assert [t.tuple_id for t in backend.load("Emp")] == original + [t.tuple_id for t in extra]


LANDED = pytest.mark.parametrize(
    "landed", [0, -1, None], ids=["nothing-landed", "part-landed", "all-landed"]
)


class TestAtomicAppend:
    @LANDED
    @pytest.mark.parametrize("fail_on", [1, 2], ids=["first-write", "second-write"])
    def test_a_failed_append_keeps_every_old_tuple(
        self, backend, tmp_path, swp_dph, employee_relation, monkeypatch, fail_on, landed
    ):
        extra = [swp_dph.encrypt_tuple(employee_relation.tuples[0])]
        _append_on_a_full_disk(backend, tmp_path, monkeypatch, extra, fail_on, landed)

    @LANDED
    @pytest.mark.parametrize("fail_on", [1, 2], ids=["tuples-write", "count-write"])
    def test_a_failed_batch_append_adds_none_of_its_tuples(
        self, backend, tmp_path, swp_dph, employee_relation, monkeypatch, fail_on, landed
    ):
        """k tuples go in one write and the count in one more; either failing
        keeps every old tuple and adds none of the k."""
        extra = swp_dph.encrypt_tuples(employee_relation.tuples[:3])
        _append_on_a_full_disk(backend, tmp_path, monkeypatch, extra, fail_on, landed)


#: Appends ``argv[2]``'s tuples to ``Emp`` in the store at ``argv[1]``, and
#: dies like a killed process (no rollback, no cleanup) between the append's
#: item write and its count write.
KILLED_APPEND = """
import os, sys
from repro.outsourcing import storage
from repro.outsourcing.protocol import decode_encrypted_relation

write = storage._write_all

def write_items_then_die(handle, data):
    storage._write_all = lambda handle, data: os._exit(9)
    write(handle, data)

storage._write_all = write_items_then_die
with open(sys.argv[2], "rb") as handle:
    tuples = decode_encrypted_relation(handle.read()).encrypted_tuples
storage.FileStorageBackend(sys.argv[1]).append("Emp", tuples)
"""


class TestTheCountIsTheCommitPoint:
    """A provider killed inside an append leaves items past the count; a
    restarted provider drops them and serves every acknowledged row."""

    def _kill_inside_an_append(self, backend, tmp_path, swp_dph, employee_relation) -> int:
        size = backend._path("Emp").stat().st_size
        extra = tmp_path / "extra.frame"
        extra.write_bytes(encode_encrypted_relation(swp_dph.encrypt_relation(employee_relation)))
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        killed = subprocess.run(
            [sys.executable, "-c", KILLED_APPEND, str(tmp_path), str(extra)],
            env=dict(os.environ, PYTHONPATH=path), timeout=120,
        )
        assert killed.returncode == 9
        assert backend._path("Emp").stat().st_size > size  # the items landed, the count did not
        return size

    @pytest.mark.parametrize("first", ["read", "insert"])
    def test_a_restarted_provider_serves_every_acknowledged_row(
        self, backend, tmp_path, swp_dph, employee_relation, first
    ):
        acknowledged = [t.tuple_id for t in backend.load("Emp")]
        size = self._kill_inside_an_append(backend, tmp_path, swp_dph, employee_relation)
        storage = FileStorageBackend(tmp_path)
        provider = OutsourcedDatabaseServer(storage=storage)
        provider.deploy("Emp", employee_relation.schema, swp_dph.server_evaluator())
        added = swp_dph.encrypt_relation(employee_relation).encrypted_tuples[:1]
        if first == "read":  # a read neither serves nor cuts the tail
            assert [t.tuple_id for t in provider.stored_relation("Emp")] == acknowledged
            assert backend._path("Emp").stat().st_size > size
        # The append cuts the tail and lands after the counted tuples.
        provider.insert_tuples("Emp", added, IndexDelta())
        assert backend._path("Emp").stat().st_size == size + len(frame_encrypted_tuple(added[0]))
        stored = [t.tuple_id for t in FileStorageBackend(tmp_path).load("Emp")]
        assert stored == [*acknowledged, added[0].tuple_id]
        assert provider.tuple_count("Emp") == len(acknowledged) + 1
        gauges = {g["name"]: g["value"] for g in provider.metrics_snapshot()["gauges"]}
        assert gauges["storage_uncommitted_tails_truncated"] == 1

    def test_a_second_backend_reads_past_a_live_append_without_writing(
        self, backend, tmp_path, swp_dph, employee_relation
    ):
        """Items an append wrote before its count -- a live append in another
        process, or a killed one -- are left alone by a reader."""
        acknowledged = [t.tuple_id for t in backend.load("Emp")]
        self._kill_inside_an_append(backend, tmp_path, swp_dph, employee_relation)
        before = backend._path("Emp").read_bytes()
        reader = FileStorageBackend(tmp_path)
        assert [t.tuple_id for t in reader.load("Emp")] == acknowledged
        assert reader.tuple_count("Emp") == len(acknowledged)
        assert backend._path("Emp").read_bytes() == before
        assert reader.uncommitted_tails == 0

    def test_fewer_tuples_than_the_count_is_still_corrupt(self, backend):
        path = backend._path("Emp")
        raw = bytearray(path.read_bytes())
        offset = 4 + int.from_bytes(raw[:4], "big")
        count = int.from_bytes(raw[offset:offset + 4], "big")
        raw[offset:offset + 4] = (count + 1).to_bytes(4, "big")
        path.write_bytes(bytes(raw))
        with pytest.raises(StorageError, match="corrupt"):
            FileStorageBackend(backend.directory).load("Emp")
        assert path.read_bytes() == bytes(raw)


def _ids(storage) -> list[bytes]:
    return [t.tuple_id for t in storage.load("Emp")]


def _reads_equal_the_file(backend) -> None:
    """Every read of the live backend answers what a fresh one reads on disk."""
    fresh = FileStorageBackend(backend.directory)
    assert backend.load("Emp") == fresh.load("Emp")
    assert backend.tuple_count("Emp") == fresh.tuple_count("Emp")
    assert backend.schema("Emp") == fresh.schema("Emp")
    ids = _ids(fresh)
    assert backend.fetch("Emp", ids[::-1]) == fresh.fetch("Emp", ids[::-1])


class TestReadsAnswerWhatTheFileHolds:
    """The file store serves reads from memory, yet a read never answers
    anything but the relation file's content."""

    @pytest.mark.parametrize("write", ["save", "append", "remove", "delete"])
    def test_a_second_backends_write_shows_on_the_next_read(
        self, backend, swp_dph, employee_relation, write
    ):
        before = _ids(backend)  # the live backend holds the relation now
        other = FileStorageBackend(backend.directory)
        if write == "save":
            other.save("Emp", swp_dph.encrypt_relation(employee_relation))
        elif write == "append":
            other.append("Emp", swp_dph.encrypt_tuples(employee_relation.tuples[:2]))
        elif write == "remove":
            assert other.remove("Emp", before[:2])[0] == tuple(before[:2])
        else:
            other.delete("Emp")
            assert "Emp" not in backend
            with pytest.raises(StorageError, match="no relation"):
                backend.load("Emp")
            with pytest.raises(StorageError, match="no relation"):
                backend.append("Emp", swp_dph.encrypt_tuples(employee_relation.tuples[:1]))
            return
        assert _ids(backend) == _ids(other) != before
        _reads_equal_the_file(backend)

    def test_a_file_corrupted_under_a_live_backend_fails_its_next_read(self, backend):
        backend.load("Emp")
        path = backend._path("Emp")
        path.write_bytes(path.read_bytes()[:-1])
        for read in (backend.load, backend.tuple_count, backend.schema):
            with pytest.raises(StorageError, match="corrupt"):
                read("Emp")

    @pytest.mark.parametrize("landed", [False, True], ids=["nothing-landed", "all-landed"])
    @pytest.mark.parametrize("fail_on", [1, 2, "every"], ids=["items", "count", "every-write"])
    def test_a_failed_append_leaves_reads_equal_to_the_file(
        self, backend, swp_dph, employee_relation, monkeypatch, fail_on, landed
    ):
        """``every`` fails the rollback's write too, leaving an uncommitted tail."""
        from repro.outsourcing import storage

        write, calls = storage._write_all, []

        def failing_write(handle, data):
            calls.append(data)
            if fail_on == "every" or len(calls) == fail_on:
                if landed:
                    write(handle, data)
                raise OSError(errno.ENOSPC, "No space left on device")
            write(handle, data)

        before = _ids(backend)
        monkeypatch.setattr(storage, "_write_all", failing_write)
        extra = swp_dph.encrypt_tuples(employee_relation.tuples[:2])
        with pytest.raises(StorageError, match="cannot append"):
            backend.append("Emp", extra)
        monkeypatch.undo()
        assert _ids(backend) == before
        _reads_equal_the_file(backend)
        backend.append("Emp", extra)
        assert _ids(backend) == before + [t.tuple_id for t in extra]
        _reads_equal_the_file(backend)

    def test_a_failed_remove_leaves_reads_equal_to_the_file(self, backend, monkeypatch):
        before = _ids(backend)

        def exploding_replace(src, dst):
            raise OSError("crashed before rename")

        monkeypatch.setattr(os, "replace", exploding_replace)
        with pytest.raises(StorageError, match="cannot save"):
            backend.remove("Emp", before[:2])
        monkeypatch.undo()
        assert _ids(backend) == before
        _reads_equal_the_file(backend)
        assert backend.remove("Emp", before[:2]) == (tuple(before[:2]), 2)
        assert _ids(backend) == before[2:]
        _reads_equal_the_file(backend)
