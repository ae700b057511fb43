"""The compiled sweep's loader and the checks in front of it.

``kernels.sweep_row`` builds its C loop on first use.  Every way that can
fail (no compiler, a compile error, an unwritable cache, a cache or library
of another user, a wrong answer in the known-answer check) leaves
``kernels.sweep`` in charge without raising;
no argument that could index outside the block array reaches either loop;
and importing the modules builds nothing.  Each failure is forced by
monkeypatching what the loader reads.
"""
import json
import os
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pdmorse import kernels

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A loader that has not run yet, with its per-user cache under tmp_path: the cache dir."""
    monkeypatch.setattr(kernels, "_loop", None)
    monkeypatch.setattr(kernels, "_kernel", "not loaded")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "pdmorse"


@pytest.fixture
def compiler():
    if kernels._compiler() is None:
        pytest.skip("no C compiler on PATH")


def blocks():
    return np.random.default_rng(5).uniform(-2.0, 2.0, (3, 2, 2, 40))


def python_answer(array, row, b0, b1, reverse):
    """What kernels.sweep gives over the same steps."""
    m00, m01, m10, m11 = (array[row, i, j, b0:b1] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    if reverse:
        return kernels.sweep(m11[::-1], m01[::-1], m10[::-1], m00[::-1], 0.5, 1.0)
    return kernels.sweep(m00, m01, m10, m11, 0.5, 1.0)


def assert_python_loop_serves():
    """The loader fell back: sweep_row runs kernels.sweep and says why."""
    assert kernels.sweep_kernel().startswith("python (")
    assert kernels._loop is False
    array = blocks()
    for reverse in (False, True):
        assert (repr(kernels.sweep_row(array, 1, 3, 37, 0.5, 1.0, reverse))
                == repr(python_answer(array, 1, 3, 37, reverse)))


class TestLoader:
    def test_builds_once_into_the_cache(self, fresh_loader, compiler, monkeypatch):
        assert kernels.sweep_kernel().startswith("compiled ")
        (library,) = fresh_loader.iterdir()  # no partial file is left
        assert kernels.sweep_kernel() == f"compiled {library}"
        assert library.name.startswith("sweep-") and library.suffix == ".so"
        array = blocks()
        for reverse in (False, True):
            assert (repr(kernels.sweep_row(array, 2, 0, 40, 0.5, 1.0, reverse))
                    == repr(python_answer(array, 2, 0, 40, reverse)))
        # a new process loads the cached library and compiles nothing

        def no_compile(*args, **kwargs):
            raise AssertionError("compiled again")

        monkeypatch.setattr(subprocess, "run", no_compile)
        monkeypatch.setattr(kernels, "_loop", None)
        assert kernels.sweep_kernel() == f"compiled {library}"

    def test_no_compiler(self, fresh_loader, monkeypatch):
        monkeypatch.setattr(shutil, "which", lambda name: None)
        assert_python_loop_serves()
        assert "no C compiler" in kernels.sweep_kernel()
        assert not fresh_loader.exists()

    def test_compile_error(self, fresh_loader, compiler, monkeypatch, tmp_path):
        broken = tmp_path / "broken.c"
        broken.write_text("int pdmorse_sweep_row(const double *blocks\n")
        monkeypatch.setattr(kernels, "_SOURCE", broken)
        assert_python_loop_serves()
        assert "CalledProcessError" in kernels.sweep_kernel()
        assert list(fresh_loader.iterdir()) == []  # the partial file is removed

    def test_unwritable_cache(self, fresh_loader, compiler, monkeypatch, tmp_path):
        # a file where the cache directory would go: as root, permissions
        # would not stop the write
        (tmp_path / "file").write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "file"))
        assert_python_loop_serves()
        assert "NotADirectoryError" in kernels.sweep_kernel()

    @pytest.mark.parametrize("mode", [None, 0o777], ids=["new", "open"])
    def test_cache_is_private(self, fresh_loader, compiler, mode):
        # a cache directory the user owns is made private, also one made
        # open before, and the library loads from it
        if mode is not None:
            fresh_loader.mkdir(parents=True)
            os.chmod(fresh_loader, mode)
        assert kernels.sweep_kernel().startswith("compiled "), kernels.sweep_kernel()
        assert fresh_loader.stat().st_mode & 0o777 == 0o700

    def test_cache_of_another_user(self, fresh_loader, compiler, monkeypatch):
        other = os.getuid() + 1
        monkeypatch.setattr(os, "getuid", lambda: other)
        assert_python_loop_serves()
        assert kernels.sweep_kernel().startswith(f"python (PermissionError: {fresh_loader} "
                                                 "belongs to uid ")
        assert list(fresh_loader.iterdir()) == []  # nothing was compiled into it

    def test_library_of_another_user(self, fresh_loader, compiler, monkeypatch):
        # the library, freshly compiled or cached, reads as another user's
        stat = Path.stat

        def foreign_library(path, *args, **kwargs):
            result = stat(path, *args, **kwargs)
            if path.suffix != ".so":
                return result
            fields = list(result)
            fields[4] += 1  # st_uid
            return os.stat_result(fields)

        monkeypatch.setattr(Path, "stat", foreign_library)
        for _ in range(2):
            monkeypatch.setattr(kernels, "_loop", None)
            assert_python_loop_serves()
            assert "PermissionError" in kernels.sweep_kernel()
            assert ".so belongs to uid " in kernels.sweep_kernel()
        assert len(list(fresh_loader.iterdir())) == 1

    def test_relative_cache_home_is_ignored(self, fresh_loader, compiler, monkeypatch,
                                            tmp_path):
        # the XDG spec: a relative XDG_CACHE_HOME is invalid, so ~/.cache serves
        monkeypatch.setenv("XDG_CACHE_HOME", "relative")
        monkeypatch.setenv("HOME", str(tmp_path / "home"))
        monkeypatch.chdir(tmp_path)
        assert kernels.sweep_kernel().startswith(
            f"compiled {tmp_path / 'home' / '.cache' / 'pdmorse' / 'sweep-'}")
        assert not (tmp_path / "relative").exists()

    def test_check_finds_a_flipped_bit(self, fresh_loader, compiler, monkeypatch):
        # a Python loop one bit off in phi: the compiled loop disagrees with it
        sweep = kernels.sweep

        def flipped(*args):
            phi, dphi, nodes = sweep(*args)
            (bits,) = struct.unpack("<q", struct.pack("<d", phi))
            return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0], dphi, nodes

        monkeypatch.setattr(kernels, "sweep", flipped)
        assert kernels.sweep_kernel().startswith("python (ArithmeticError: ")
        assert kernels._loop is False


class TestArguments:
    @staticmethod
    def _no_loop(*args):
        raise AssertionError("a loop ran")

    @pytest.mark.parametrize("bad", [
        blocks().astype(np.float32), blocks().astype(">f8"), blocks().astype(np.int64),
        np.asfortranarray(blocks()), blocks()[..., ::2], blocks()[0], blocks()[..., None],
        np.zeros((3, 2, 3, 40)), blocks().tolist(),
        np.frombuffer(bytearray(97), offset=1).reshape(1, 2, 2, 3)],
        ids=["float32", "big-endian", "int64", "fortran", "strided", "3-d", "5-d", "2x3",
             "list", "unaligned"])
    def test_bad_arrays_raise_value_error(self, bad, monkeypatch):
        monkeypatch.setattr(kernels, "_loop", self._no_loop)
        monkeypatch.setattr(kernels, "sweep", self._no_loop)
        with pytest.raises(ValueError, match="C-contiguous float64"):
            kernels.sweep_row(bad, 0, 0, 1, 0.0, 1.0)

    def test_read_only_array_raises_value_error(self, monkeypatch):
        monkeypatch.setattr(kernels, "_loop", self._no_loop)
        array = blocks()
        array.flags.writeable = False
        with pytest.raises(ValueError, match="writable"):
            kernels.sweep_row(array, 0, 0, 1, 0.0, 1.0)

    @pytest.mark.parametrize("row, b0, b1", [(-1, 0, 1), (3, 0, 1), (0, -1, 1), (0, 0, 41),
                                             (0, 5, 4), (0, 41, 41)])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_indices_outside_raise_value_error(self, row, b0, b1, reverse, monkeypatch):
        monkeypatch.setattr(kernels, "_loop", self._no_loop)
        monkeypatch.setattr(kernels, "sweep", self._no_loop)
        with pytest.raises(ValueError, match="outside"):
            kernels.sweep_row(blocks(), row, b0, b1, 0.0, 1.0, reverse)

    def test_empty_range_keeps_the_state(self):
        assert repr(kernels.sweep_row(blocks(), 2, 40, 40, -0.0, 3, True)) == "(-0.0, 3.0, 0)"


def test_imports_start_no_compiler():
    # an audit hook sees every process the imports would start
    code = ("import json, sys\nseen = []\n"
            "sys.addaudithook(lambda event, args: event.startswith(('subprocess.', 'os.exec', "
            "'os.fork', 'os.posix_spawn', 'os.system')) and seen.append(event))\n"
            "import pdmorse.kernels, pdmorse.oracle\n"
            "print(json.dumps([seen, pdmorse.kernels._loop]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                                   os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], None]
