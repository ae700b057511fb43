"""The compiled library's loader and the checks in front of it.

``kernels.walk`` builds its C library on first use.  Every way that can
fail (no compiler, a compile error, an unwritable cache, a cache or library
of another user, a wrong answer in its known-answer check) leaves numpy and
``kernels.sweep`` in charge without raising; no argument that could index
outside an array reaches the C code or its fallback; and importing the
modules builds nothing.  Each failure is forced by monkeypatching what the
loader reads.
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


def table(m=4):
    """A step table of 6 blocks of m steps: coefficients (c2, f, c1)."""
    return np.random.default_rng(6).uniform(-2.0, 2.0, (3, 2, 2, m, 6))


OFFSETS = np.array([0.0, 0.5, -0.25])
STATES = [(0.5, 1.0), (-1.0, 0.25), (0.0, 1.0)]
ENDS = [6, 4, 1]  # from block 1: the last walk is empty


def numpy_answer(reverse):
    """What ``_numpy_products`` and ``kernels.sweep`` give for the walks
    from block 1 to ENDS at OFFSETS from STATES, one walk at a time."""
    out = []
    for e, end in enumerate(ENDS):
        products = kernels._numpy_products(table(), 1, end, OFFSETS[e:e + 1])
        m00, m01, m10, m11 = products[0].reshape(4, -1)
        out.append(kernels.sweep(m11[::-1], m01[::-1], m10[::-1], m00[::-1], *STATES[e])
                   if reverse else kernels.sweep(m00, m01, m10, m11, *STATES[e]))
    return out


def assert_python_loop_serves():
    """The loader fell back: walk runs numpy and kernels.sweep and says why."""
    assert kernels.sweep_kernel().startswith("python (")
    assert kernels._library is False
    for reverse in (False, True):
        assert (repr(kernels.walk(table(), 1, ENDS, OFFSETS, STATES, reverse))
                == repr(numpy_answer(reverse)))


class TestLoader:
    def test_builds_once_into_the_cache(self, fresh_loader, compiler, monkeypatch):
        assert kernels.sweep_kernel().startswith("compiled ")
        (library,) = fresh_loader.iterdir()  # no partial file is left
        assert kernels.sweep_kernel() == f"compiled {library}"
        assert library.name.startswith("sweep-") and library.suffix == ".so"
        for reverse in (False, True):
            assert (repr(kernels.walk(table(), 1, ENDS, OFFSETS, STATES, reverse))
                    == repr(numpy_answer(reverse)))
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
        broken.write_text("void pdmorse_walk(const double *table\n")
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
        # a Python loop one bit off in phi: the compiled walk disagrees with
        # the numpy walk, which sweeps with it
        sweep = kernels.sweep

        def flipped(*args):
            phi, dphi, nodes = sweep(*args)
            (bits,) = struct.unpack("<q", struct.pack("<d", phi))
            return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0], dphi, nodes

        monkeypatch.setattr(kernels, "sweep", flipped)
        assert kernels.sweep_kernel().startswith("python (ArithmeticError: ")
        assert kernels._library is False

    def test_check_finds_a_wrong_product(self, fresh_loader, compiler, monkeypatch, tmp_path):
        # a walk whose product sums start from the first product, not from
        # +0.0: (-0)(1) + (-0)(1) gives -0, not einsum's +0, and the walk
        # from (1, 1) over that product ends at -0, not +0
        source = kernels._SOURCE.read_text()
        assert source.count("= (0.0 + ") == 4
        wrong = tmp_path / "wrong.c"
        wrong.write_text(source.replace("= (0.0 + ", "= ("))
        monkeypatch.setattr(kernels, "_SOURCE", wrong)
        assert_python_loop_serves()
        kernel = kernels.sweep_kernel()
        assert kernel.startswith(
            "python (ArithmeticError: the compiled walk over blocks of 2 steps gave "), kernel


class TestArguments:
    @staticmethod
    def _no_loop(*args):
        raise AssertionError("a loop ran")

    # a library stand-in whose function fails the test if it is called
    _NO_LIBRARY = types.SimpleNamespace(pdmorse_walk=_no_loop)

    @pytest.fixture
    def no_code_runs(self, monkeypatch):
        """Neither the compiled walk nor its fallback may run."""
        monkeypatch.setattr(kernels, "_library", self._NO_LIBRARY)
        monkeypatch.setattr(kernels, "sweep", self._no_loop)
        monkeypatch.setattr(kernels, "_numpy_products", self._no_loop)
        monkeypatch.setattr(kernels, "_numpy_walk", self._no_loop)

    @pytest.mark.parametrize("bad", [
        table().astype(np.float32), table().astype(">f8"), table().astype(np.int64),
        np.asfortranarray(table()), table()[..., ::2], table()[0], table()[..., None],
        np.zeros((2, 2, 2, 4, 6)), np.zeros((3, 2, 3, 4, 6)), table().tolist(),
        np.frombuffer(bytearray(12 * 8 + 1), offset=1).reshape(3, 2, 2, 1, 1)],
        ids=["float32", "big-endian", "int64", "fortran", "strided", "4-d", "6-d",
             "2 coefficients", "2x3", "list", "unaligned"])
    def test_bad_tables_raise_value_error(self, bad, no_code_runs):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            kernels.walk(bad, 0, ENDS, OFFSETS, STATES)

    def test_read_only_table_raises_value_error(self, no_code_runs):
        array = table()
        array.flags.writeable = False
        with pytest.raises(ValueError, match="writable"):
            kernels.walk(array, 0, ENDS, OFFSETS, STATES)

    @pytest.mark.parametrize("m", [0, 3, 6, 12, 32])
    def test_block_sizes_outside_raise_value_error(self, m, no_code_runs):
        # the C tree keeps at most MAX_BLOCK = 16 step matrices and halves m
        # down to 1
        with pytest.raises(ValueError, match="not a power of two up to 16"):
            kernels.walk(np.zeros((3, 2, 2, m, 6)), 0, ENDS, OFFSETS, STATES)

    @pytest.mark.parametrize("d", [OFFSETS[:, None], np.float64(0.5), OFFSETS.astype(np.float32),
                                   OFFSETS.astype(">f8"), OFFSETS.astype(np.int64),
                                   OFFSETS.tolist()],
                             ids=["2-d", "0-d", "float32", "big-endian", "int64", "list"])
    def test_bad_offsets_raise_value_error(self, d, no_code_runs):
        with pytest.raises(ValueError, match="1-D float64"):
            kernels.walk(table(), 0, ENDS, d, STATES)

    @pytest.mark.parametrize("ends, d, states", [
        (ENDS[:2], OFFSETS, STATES), (ENDS, OFFSETS[:2], STATES), (ENDS, OFFSETS, STATES[:2]),
        (ENDS + [6], OFFSETS, STATES), ([], OFFSETS, STATES), (ENDS, OFFSETS, [])],
        ids=["ends", "offsets", "states", "one more end", "no ends", "no states"])
    def test_mismatched_lengths_raise_value_error(self, ends, d, states, no_code_runs):
        with pytest.raises(ValueError, match=r"\d ends and \d states for \d offsets"):
            kernels.walk(table(), 0, ends, d, states)

    @pytest.mark.parametrize("state", [(1.0,), (1.0, 2.0, 3.0), (), ("phi", 1.0)],
                             ids=["single", "triple", "empty", "text"])
    def test_bad_states_raise_value_error(self, state, no_code_runs):
        with pytest.raises(ValueError):
            kernels.walk(table(), 0, ENDS, OFFSETS, STATES[:2] + [state])

    @pytest.mark.parametrize("b0, ends", [(1.0, ENDS), (1, [6.0, 4, 1]),
                                          (1, [6, 4, np.float64(1)])],
                             ids=["float b0", "float end", "numpy float end"])
    def test_blocks_that_are_not_integers_raise_type_error(self, b0, ends, no_code_runs):
        with pytest.raises(TypeError):
            kernels.walk(table(), b0, ends, OFFSETS, STATES)

    @pytest.mark.parametrize("python", [False, True], ids=["compiled", "numpy"])
    def test_numpy_integers_serve_as_blocks(self, python, monkeypatch):
        if python:
            monkeypatch.setattr(kernels, "_library", False)
        assert (repr(kernels.walk(table(), np.int64(1), np.array(ENDS), OFFSETS, STATES))
                == repr(numpy_answer(False)))

    @pytest.mark.parametrize("b0, ends", [(-1, [1, 1, 1]), (0, [7, 1, 1]), (5, [6, 4, 6]),
                                          (7, [7, 7, 7]), (-2, [-1, -1, -1]), (0, [3, 3, -1])],
                             ids=["b0 < 0", "end past the table", "end before b0",
                                  "b0 past the table", "both < 0", "last end < 0"])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_blocks_outside_raise_value_error(self, b0, ends, reverse, no_code_runs):
        with pytest.raises(ValueError, match="outside"):
            kernels.walk(table(), b0, ends, OFFSETS, STATES, reverse)

    @pytest.mark.parametrize("blocks", [6, 0], ids=["at the end", "of an empty table"])
    @pytest.mark.parametrize("python", [False, True], ids=["compiled", "numpy"])
    def test_empty_walks_keep_the_state(self, python, blocks, monkeypatch):
        if python:
            monkeypatch.setattr(kernels, "_library", False)
        array = table()[..., :blocks].copy()
        assert (repr(kernels.walk(array, blocks, [blocks], OFFSETS[:1], [(-0.0, 3)], True))
                == "[(-0.0, 3.0, 0)]")
        assert kernels.walk(array, 0, [], OFFSETS[:0], []) == []


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
