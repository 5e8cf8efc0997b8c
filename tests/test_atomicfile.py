"""atomic_write: the old file or the new one, never a torn one."""

import os
import subprocess
import sys
import tempfile

import pytest

from repro.atomicfile import atomic_write
from repro.campaigns.checkpoint import CHECKPOINT_FILENAME, CheckpointStore


def _fail_fsync(monkeypatch):
    """Make the write fail after the payload reached the temp file."""

    def boom(fd):
        raise OSError("disk gone")

    monkeypatch.setattr(os, "fsync", boom)


class TestAtomicWrite:
    @pytest.mark.parametrize("payload", ["text é", b"\x00bytes\xff"], ids=["str", "bytes"])
    def test_round_trip(self, tmp_path, payload):
        path = tmp_path / "out"
        atomic_write(str(path), payload)
        expected = payload.encode() if isinstance(payload, str) else payload
        assert path.read_bytes() == expected
        assert os.listdir(tmp_path) == ["out"]

    def test_failure_mid_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "out"
        path.write_text("old")
        _fail_fsync(monkeypatch)
        with pytest.raises(OSError, match="disk gone"):
            atomic_write(str(path), "new")
        assert path.read_text() == "old"
        assert os.listdir(tmp_path) == ["out"]

    def test_checkpoint_failure_keeps_the_previous_record(self, tmp_path, monkeypatch):
        store = CheckpointStore(str(tmp_path))
        store.save({"schema": "repro.checkpoint/1", "n": 1})
        seen = []
        real_mkstemp = tempfile.mkstemp

        def spy(*args, **kwargs):
            fd, name = real_mkstemp(*args, **kwargs)
            seen.append(os.path.basename(name))
            return fd, name

        monkeypatch.setattr(tempfile, "mkstemp", spy)
        _fail_fsync(monkeypatch)
        with pytest.raises(OSError):
            store.save({"schema": "repro.checkpoint/1", "n": 2})
        assert store.load()["n"] == 1
        assert os.listdir(tmp_path) == [CHECKPOINT_FILENAME]
        # the temp file kept the checkpoint's own prefix
        assert seen and seen[0].startswith(CHECKPOINT_FILENAME)
        assert seen[0].endswith(".tmp")

    def test_module_imports_without_numpy(self):
        code = (
            "import sys, repro.atomicfile, repro.service.server; "
            "assert 'numpy' not in sys.modules, 'numpy loaded'"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        subprocess.run([sys.executable, "-c", code], check=True, env=env)
