"""Tests for the utility helpers."""

import json
import os
import random
import time

import pytest

from repro.exceptions import ReproError
from repro.utils.rng import make_rng
from repro.utils.timing import Stopwatch, Timer
from repro.utils.validation import require


class TestRng:
    def test_make_rng_from_int_is_deterministic(self):
        assert make_rng(5).random() == make_rng(5).random()

    def test_make_rng_passthrough(self):
        rng = random.Random(1)
        assert make_rng(rng) is rng

    def test_make_rng_none_works(self):
        assert 0.0 <= make_rng(None).random() < 1.0


class TestTiming:
    def test_timer_measures(self):
        with Timer() as timer:
            time.sleep(0.01)
        assert timer.elapsed >= 0.009

    def test_stopwatch_no_budget_never_over(self):
        watch = Stopwatch()
        assert not watch.over_budget()

    def test_stopwatch_budget(self):
        watch = Stopwatch(budget_seconds=0.001)
        time.sleep(0.01)
        assert watch.over_budget()
        assert watch.elapsed >= 0.009


class TestValidation:
    def test_passes_silently(self):
        require(True, "fine")

    def test_raises_default(self):
        with pytest.raises(ReproError, match="broken"):
            require(False, "broken")

    def test_raises_custom_type(self):
        with pytest.raises(ValueError):
            require(False, "broken", ValueError)


class TestPersist:
    """atomic_write_json: atomic *and* durable (fsync file + directory)."""

    def test_roundtrip_and_size(self, tmp_path):
        from repro.utils.persist import atomic_write_json

        path = tmp_path / "doc.json"
        size = atomic_write_json({"a": [1, 2]}, path)
        assert size == path.stat().st_size > 0
        assert json.loads(path.read_text()) == {"a": [1, 2]}

    def test_overwrite_leaves_no_scratch_files(self, tmp_path):
        from repro.utils.persist import atomic_write_json

        path = tmp_path / "doc.json"
        atomic_write_json({"v": 1}, path)
        atomic_write_json({"v": 2}, path)
        assert json.loads(path.read_text()) == {"v": 2}
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_failed_serialisation_preserves_previous_version(self, tmp_path):
        from repro.utils.persist import atomic_write_json

        path = tmp_path / "doc.json"
        atomic_write_json({"v": 1}, path)
        with pytest.raises(TypeError):
            atomic_write_json({"v": object()}, path)  # not JSON-serialisable
        assert json.loads(path.read_text()) == {"v": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_write_fsyncs_file_and_directory(self, tmp_path, monkeypatch):
        # The durability fix: os.replace alone survives a process crash
        # but not power loss.  Both the scratch file's contents and the
        # directory entry must be fsynced.
        import repro.utils.persist as persist

        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            persist.os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))
        )
        persist.atomic_write_json({"v": 1}, tmp_path / "doc.json")
        assert len(synced) >= 2  # scratch file + parent directory

    def test_fsync_directory_tolerates_unsyncable_paths(self, tmp_path):
        from repro.utils.persist import fsync_directory

        fsync_directory(tmp_path)  # a real directory: no error
        fsync_directory(tmp_path / "does-not-exist")  # swallowed OSError
