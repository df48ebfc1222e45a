"""Crash-safety of the file storage backend's save and append paths."""

from __future__ import annotations

import errno
import os
import pathlib

import pytest

from repro.outsourcing.storage import FileStorageBackend, StorageError


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
