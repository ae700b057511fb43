"""The compiled library's loader and the checks in front of it.

``kernels.sweep_row`` and ``kernels.block_products`` build their C library
on first use.  Every way that can fail (no compiler, a compile error, an
unwritable cache, a cache or library of another user, a wrong answer in
the known-answer check of either function) leaves ``kernels.sweep`` and
the numpy products in charge without raising; no argument that could
index outside an array reaches the C code or its fallback; and importing
the modules builds nothing.  Each failure is forced by monkeypatching what
the loader reads.
"""
import json
import os
import shutil
import struct
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from pdmorse import kernels

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def fresh_loader(monkeypatch, tmp_path):
    """A loader that has not run yet, with its per-user cache under tmp_path: the cache dir."""
    monkeypatch.setattr(kernels, "_library", None)
    monkeypatch.setattr(kernels, "_kernel", "not loaded")
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    return tmp_path / "cache" / "pdmorse"


@pytest.fixture
def compiler():
    if kernels._compiler() is None:
        pytest.skip("no C compiler on PATH")


def blocks():
    return np.random.default_rng(5).uniform(-2.0, 2.0, (3, 2, 2, 40))


def table(m=4):
    """A step table of 6 blocks of m steps: coefficients (c2, f, c1)."""
    return np.random.default_rng(6).uniform(-2.0, 2.0, (3, 2, 2, m, 6))


OFFSETS = np.array([0.0, 0.5, -0.25])


def python_answer(array, row, b0, b1, reverse):
    """What kernels.sweep gives over the same steps."""
    m00, m01, m10, m11 = (array[row, i, j, b0:b1] for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    if reverse:
        return kernels.sweep(m11[::-1], m01[::-1], m10[::-1], m00[::-1], 0.5, 1.0)
    return kernels.sweep(m00, m01, m10, m11, 0.5, 1.0)


def assert_python_loop_serves():
    """The loader fell back: sweep_row runs kernels.sweep and says why."""
    assert kernels.sweep_kernel().startswith("python (")
    assert kernels._library is False
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
        monkeypatch.setattr(kernels, "_library", None)
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
            monkeypatch.setattr(kernels, "_library", None)
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
        assert kernels._library is False

    def test_check_finds_a_wrong_product(self, fresh_loader, compiler, monkeypatch, tmp_path):
        # a library whose product sums start from the first product, not
        # from +0.0: (-0)(1) + (-0)(1) gives -0, not einsum's +0.  The whole
        # library falls back, the sweep with it
        source = kernels._SOURCE.read_text()
        assert source.count("= (0.0 + ") == 4
        wrong = tmp_path / "wrong.c"
        wrong.write_text(source.replace("= (0.0 + ", "= ("))
        monkeypatch.setattr(kernels, "_SOURCE", wrong)
        assert_python_loop_serves()
        assert kernels.sweep_kernel().startswith(
            "python (ArithmeticError: the compiled block products of "), kernels.sweep_kernel()
        assert (kernels.block_products(table(), 0, 6, OFFSETS).tobytes()
                == kernels._numpy_products(table(), 0, 6, OFFSETS).tobytes())


class TestArguments:
    @staticmethod
    def _no_loop(*args):
        raise AssertionError("a loop ran")

    # a library stand-in whose functions fail the test if they are called
    _NO_LIBRARY = types.SimpleNamespace(pdmorse_sweep_row=_no_loop,
                                        pdmorse_block_rows=_no_loop)

    @pytest.fixture
    def no_code_runs(self, monkeypatch):
        """Neither the compiled functions nor their fallbacks may run."""
        monkeypatch.setattr(kernels, "_library", self._NO_LIBRARY)
        monkeypatch.setattr(kernels, "sweep", self._no_loop)
        monkeypatch.setattr(kernels, "_numpy_products", self._no_loop)

    @pytest.mark.parametrize("bad", [
        blocks().astype(np.float32), blocks().astype(">f8"), blocks().astype(np.int64),
        np.asfortranarray(blocks()), blocks()[..., ::2], blocks()[0], blocks()[..., None],
        np.zeros((3, 2, 3, 40)), blocks().tolist(),
        np.frombuffer(bytearray(97), offset=1).reshape(1, 2, 2, 3)],
        ids=["float32", "big-endian", "int64", "fortran", "strided", "3-d", "5-d", "2x3",
             "list", "unaligned"])
    def test_bad_arrays_raise_value_error(self, bad, monkeypatch):
        monkeypatch.setattr(kernels, "_library", self._NO_LIBRARY)
        monkeypatch.setattr(kernels, "sweep", self._no_loop)
        with pytest.raises(ValueError, match="C-contiguous float64"):
            kernels.sweep_row(bad, 0, 0, 1, 0.0, 1.0)

    def test_read_only_array_raises_value_error(self, monkeypatch):
        monkeypatch.setattr(kernels, "_library", self._NO_LIBRARY)
        array = blocks()
        array.flags.writeable = False
        with pytest.raises(ValueError, match="writable"):
            kernels.sweep_row(array, 0, 0, 1, 0.0, 1.0)

    @pytest.mark.parametrize("row, b0, b1", [(-1, 0, 1), (3, 0, 1), (0, -1, 1), (0, 0, 41),
                                             (0, 5, 4), (0, 41, 41)])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_indices_outside_raise_value_error(self, row, b0, b1, reverse, monkeypatch):
        monkeypatch.setattr(kernels, "_library", self._NO_LIBRARY)
        monkeypatch.setattr(kernels, "sweep", self._no_loop)
        with pytest.raises(ValueError, match="outside"):
            kernels.sweep_row(blocks(), row, b0, b1, 0.0, 1.0, reverse)

    def test_empty_range_keeps_the_state(self):
        assert repr(kernels.sweep_row(blocks(), 2, 40, 40, -0.0, 3, True)) == "(-0.0, 3.0, 0)"

    @pytest.mark.parametrize("bad", [
        table().astype(np.float32), table().astype(">f8"), table().astype(np.int64),
        np.asfortranarray(table()), table()[..., ::2], table()[0], table()[..., None],
        np.zeros((2, 2, 2, 4, 6)), np.zeros((3, 2, 3, 4, 6)), table().tolist(),
        np.frombuffer(bytearray(12 * 8 + 1), offset=1).reshape(3, 2, 2, 1, 1)],
        ids=["float32", "big-endian", "int64", "fortran", "strided", "4-d", "6-d",
             "2 coefficients", "2x3", "list", "unaligned"])
    def test_bad_tables_raise_value_error(self, bad, no_code_runs):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            kernels.block_products(bad, 0, 1, OFFSETS)

    def test_read_only_table_raises_value_error(self, no_code_runs):
        array = table()
        array.flags.writeable = False
        with pytest.raises(ValueError, match="writable"):
            kernels.block_products(array, 0, 1, OFFSETS)

    @pytest.mark.parametrize("m", [0, 3, 6, 12, 32])
    def test_block_sizes_outside_raise_value_error(self, m, no_code_runs):
        # the C tree keeps at most MAX_BLOCK = 16 step matrices and halves m
        # down to 1
        with pytest.raises(ValueError, match="not a power of two up to 16"):
            kernels.block_products(np.zeros((3, 2, 2, m, 6)), 0, 1, OFFSETS)

    @pytest.mark.parametrize("d", [OFFSETS[:, None], np.float64(0.5), OFFSETS.astype(np.float32),
                                   OFFSETS.astype(">f8"), OFFSETS.astype(np.int64),
                                   OFFSETS.tolist()],
                             ids=["2-d", "0-d", "float32", "big-endian", "int64", "list"])
    def test_bad_offsets_raise_value_error(self, d, no_code_runs):
        with pytest.raises(ValueError, match="1-D float64"):
            kernels.block_products(table(), 0, 1, d)

    @pytest.mark.parametrize("b0, b1", [(-1, 1), (0, 7), (5, 4), (7, 7), (-2, -1)])
    def test_blocks_outside_raise_value_error(self, b0, b1, no_code_runs):
        with pytest.raises(ValueError, match="outside"):
            kernels.block_products(table(), b0, b1, OFFSETS)

    @pytest.mark.parametrize("python", [False, True], ids=["compiled", "numpy"])
    def test_empty_ranges_give_empty_arrays(self, python, monkeypatch):
        if python:
            monkeypatch.setattr(kernels, "_library", False)
        assert kernels.block_products(table(), 6, 6, OFFSETS).shape == (3, 2, 2, 0)
        assert kernels.block_products(table(), 1, 4, OFFSETS[:0]).shape == (0, 2, 2, 3)


def test_imports_start_no_compiler():
    # an audit hook sees every process the imports would start
    code = ("import json, sys\nseen = []\n"
            "sys.addaudithook(lambda event, args: event.startswith(('subprocess.', 'os.exec', "
            "'os.fork', 'os.posix_spawn', 'os.system')) and seen.append(event))\n"
            "import pdmorse.kernels, pdmorse.oracle\n"
            "print(json.dumps([seen, pdmorse.kernels._library]))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC),
                                                                   os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [[], None]
