"""Hot inner loop of the shooting integrator.

The per-step RK4 propagators come from closed-form expressions in the
coefficient table, evaluated with vectorized numpy; the only sequential
piece is the 2x2 propagation sweep.  It counts a node when phi changes sign
strictly (+ -> 0 -> - counts none) and rescales (phi, phi') by 1e-250 once
|phi| passes 1e250.  ``sweep`` is that loop in Python.  Each step tests the
next phi against one open range: (0, 1e250) after a positive phi,
(-1e250, 0) after a negative one, and the empty range after a zero or NaN
phi (or before the first step).  Inside it the step can count no node and
need no rescale, so it only moves (phi, phi'); any other step is the plain
step, which counts, rescales and sets the range again.  A NaN next phi lies
in no range, and NaN counts nothing, so every result is bit for bit that of
the plain step alone.

Compiled sweep (``sweep_row``).  The oracle's sweeps walk rows of the block
arrays of ``block_products``.  ``sweep_row`` runs them in ``_sweep.c``, a C99
copy of the plain step, which its first call builds with the system C
compiler (sysconfig's CC, found on PATH) and the flags _FLAGS.  With
-ffp-contract=off no product and sum fuse into one rounding, and with no
-march and no fast-math every operation rounds to double as CPython's float
operations do, so the compiled loop gives the Python loop's bits (NaN for
NaN, whatever its payload).  The library is cached per user, in
$XDG_CACHE_HOME/pdmorse (~/.cache/pdmorse where that variable is unset or
not an absolute path), as sweep-<CRC-32 of the platform, the compile
command and the source>.so; it is compiled under a temporary name and
moved into place with ``os.replace``.  The cache directory is made private
(mode 0o700), and nothing is loaded unless the current user owns both the
directory and the library (``_owned``).  The library is loaded with ctypes
and used only after a known-answer check against ``sweep`` (``_check``).
If any step fails (no compiler, a compile error, an unwritable cache, a
cache or library of another user, a load error or a wrong answer),
``sweep_row`` runs ``sweep`` instead; ``sweep_kernel`` says which loop
runs and why.  Nothing is built on import.

Settled tail (Sturm comparison, Pryce 1993).  Suppose that from step t on
every propagator entry is >= 0 (NaN counts as negative).  If phi, phi' >= 0
then p = m00 phi + m01 phi' and d = m10 phi + m11 phi' are >= 0 (or NaN),
rescaling keeps signs, and NaN stays NaN and counts nothing; by induction
phi never again falls below zero, so no later step counts a node.  The same
holds with both <= 0 (:func:`settled`).  A sweep that needs only the node
count may therefore stop at the first such state at or after t.  For h > 0
all four entries are >= 0 wherever q >= 0 at a step's three points, as in
the forbidden right tail.

Blocks (:func:`block_products`).  The sweep may walk products of m
consecutive step matrices instead of single steps; it then sees phi only at
block ends.  That count equals the per-step count when no block holds two
nodes.  By Sturm comparison, zeros of a solution of phi'' = q phi lie at
least pi / sqrt(max(-q)) apart, so blocks with m h sqrt(max(-q)) <= pi/2 hold
at most one; the factor 2 of margin covers the RK4 phase error, a relative
O((kh)^4) per step.  A product of non-negative matrices is non-negative, so
the settled-tail argument holds block by block.

Run ``benchmarks/bench_shooting.py`` to time the propagators, both sweeps
and the oracle's counting and half-sweeps.
"""
from __future__ import annotations

import ctypes
import math
import operator
import os
from pathlib import Path

import numpy as np

USE_NUMBA = False  # recorded by e2ebench/run.py; the compiled sweep is sweep_row's C loop

# Renormalization threshold; rescaling both components leaves nodes and
# log-derivatives unchanged while keeping the growing solution finite.
_RESCALE_LIMIT = 1e250
_SOURCE = Path(__file__).with_name("_sweep.c")
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_FLOAT64 = np.dtype(np.float64)
_ONE, _PAIR = ctypes.c_double * 1, ctypes.c_double * 2  # the loop's views of blocks and state
_loop = None  # the compiled loop once built and checked, False where sweep runs instead
_kernel = "not loaded"  # what sweep_kernel reports


def settled(phi: float, dphi: float) -> bool:
    """phi and phi' of one sign: in a non-negative tail no later step adds a node."""
    return (phi >= 0.0 and dphi >= 0.0) or (phi <= 0.0 and dphi <= 0.0)


def sweep(m00, m01, m10, m11, phi0: float, dphi0: float):
    """Propagate (phi, phi') through per-step 2x2 matrices, counting nodes.

    The four entry rows are 1-D float64 arrays of one length; strided and
    reversed views are fine.  They are iterated as memoryviews, with no
    copy or dtype conversion.  Returns (phi, phi', nodes) at the last point.
    """
    lim = _RESCALE_LIMIT
    phi, dphi, nodes = float(phi0), float(dphi0), 0
    lo = hi = 0.0  # the same-sign range of the next p; empty, so the first step is plain
    # memoryviews hand out plain floats without building four lists;
    # plain-float arithmetic is several times faster than numpy scalars
    for a, b, c, e in zip(memoryview(m00), memoryview(m01), memoryview(m10), memoryview(m11)):
        p = a * phi + b * dphi
        dphi = c * phi + e * dphi
        if not lo < p < hi:  # a plain step: phi may change sign or pass the limit
            if (p < 0.0 and phi > 0.0) or (p > 0.0 and phi < 0.0):
                nodes += 1
            if p > lim or p < -lim:
                p *= 1e-250
                dphi *= 1e-250
            lo, hi = (0.0, lim) if p > 0.0 else (-lim, 0.0) if p < 0.0 else (0.0, 0.0)
        phi = p
    return phi, dphi, nodes


def rk4_propagators(q_nodes: np.ndarray, q_mids: np.ndarray, h: float):
    """Per-step RK4 propagator entries for the linear system phi'' = q(x) phi.

    For a linear ODE every classical RK4 step is a 2x2 matrix acting on
    (phi, phi').  Expanding the four stages symbolically gives each entry in
    closed form in the step's start, midpoint and end values qi, qm, qp:

        m00 = 1 + h^2 (qi/6 + qm/3) + h^4 qi qm / 24
        m01 = h + h^3 qm / 6
        m10 = h (qi/6 + 2 qm/3 + qp/6) + h^3 qm (qi + qp) / 12
        m11 = 1 + h^2 (qm/3 + qp/6) + h^4 qm qp / 24

    q_nodes holds q at the sweep points (N,), q_mids at midpoints (N-1,);
    h is the signed step.  Returns four (N-1,) arrays.  Tables of K energies
    side by side, (N, K) and (N-1, K), give four (N-1, K) arrays whose
    columns hold, bit for bit, what each energy's own tables give.
    """
    qi = q_nodes[:-1]
    qm = q_mids
    qp = q_nodes[1:]
    h2 = h * h
    h2qm = h2 * qm
    m00 = 1.0 + h2 * (qi / 6.0 + qm / 3.0) + (h2qm * h2 * qi) / 24.0
    m01 = h + h * h2qm / 6.0
    m10 = h * (qi / 6.0 + (2.0 / 3.0) * qm + qp / 6.0) + (h * h2qm * (qi + qp)) / 12.0
    m11 = 1.0 + h2 * (qm / 3.0 + qp / 6.0) + (h2qm * h2 * qp) / 24.0
    return m00, m01, m10, m11


def block_products(steps: np.ndarray):
    """Products of consecutive step matrices, one per block of m steps, at K energies.

    steps is a C-contiguous array of shape (K, 2, 2, m, nb): entry (i, j) of
    step k of block b at energy e, with m a power of two and steps in sweep
    order along k.  The product M_{m-1} ... M_1 M_0 of each block is taken
    as a pairwise tree, one batched 2x2 product (``einsum``, the fastest
    numpy form measured for these shapes) per halving of m, for all K
    energies at once.  Each block's product depends on that block's steps
    alone, so every energy gets, bit for bit, what it gets alone.  Each
    level is a fresh array, and steps is left as it was.  Returns the
    C-contiguous (K, 2, 2, nb) array of the products, entry (i, j) of block
    b at energy e, the block array that ``sweep_row`` walks.
    """
    while steps.shape[3] > 1:
        steps = np.einsum("eijkb,ejlkb->eilkb", steps[:, :, :, 1::2], steps[:, :, :, 0::2])
    return np.ascontiguousarray(steps[:, :, :, 0])


def sweep_row(blocks: np.ndarray, row: int, b0: int, b1: int, phi: float, dphi: float,
              reverse: bool = False):
    """``sweep`` over blocks b0 .. b1 - 1 of one row of a block array, in C where it builds.

    blocks is an aligned, writable, C-contiguous float64 array of shape
    (K, 2, 2, nb), as ``block_products`` returns; row and the block range
    must lie inside it, or ValueError is raised before any loop runs.  Forward, the step
    matrices are blocks[row, :, :, b] for b = b0 .. b1 - 1.  With reverse,
    the walk takes b = b1 - 1 down to b0 with the adjugate's entries in the
    order (m11, m01, m10, m00): from (0, +1) that is the oracle's right
    half-sweep, whose phi' comes back negated.  Returns (phi, phi', nodes),
    bit for bit what ``sweep`` gives over the same steps (the module
    docstring): the compiled loop once the first call has built and checked
    it, ``sweep`` itself where that failed (``sweep_kernel``).
    """
    if not (type(blocks) is np.ndarray and blocks.ndim == 4 and blocks.dtype == _FLOAT64
            and blocks.flags.c_contiguous and blocks.flags.aligned and blocks.flags.writeable
            and blocks.shape[1] == blocks.shape[2] == 2):
        raise ValueError("sweep_row needs an aligned, writable C-contiguous float64 array "
                         "of shape (K, 2, 2, nb)")
    row, b0, b1 = operator.index(row), operator.index(b0), operator.index(b1)
    rows, _, _, nb = blocks.shape
    if not (0 <= row < rows and 0 <= b0 <= b1 <= nb < 2**31):
        raise ValueError(f"row {row} or blocks {b0}..{b1} outside an array of {rows} rows "
                         f"of {nb} blocks")
    loop = _loop if _loop is not None else _load()
    if loop and b0 < b1:
        return _compiled_row(loop, blocks, row, b0, b1, phi, dphi, reverse)
    return _python_row(blocks, row, b0, b1, phi, dphi, reverse)


def _compiled_row(loop, blocks, row, b0, b1, phi, dphi, reverse):
    """``sweep_row`` in the compiled loop, on arguments it has checked."""
    state = _PAIR(phi, dphi)
    # ctypes passes a ctypes array as a pointer to its first element and the
    # ints as C ints: loop has no argtypes, which would add a converter per
    # argument to every call
    nodes = loop(_ONE.from_buffer(blocks), blocks.shape[3], row, b0, b1, 1 if reverse else 0,
                 state)
    return state[0], state[1], nodes


def _python_row(blocks, row, b0, b1, phi, dphi, reverse):
    """``sweep_row`` in ``sweep``, over views of the row."""
    entries = blocks[row, :, :, b0:b1]
    if reverse:
        return sweep(entries[1, 1, ::-1], entries[0, 1, ::-1], entries[1, 0, ::-1],
                     entries[0, 0, ::-1], phi, dphi)
    return sweep(entries[0, 0], entries[0, 1], entries[1, 0], entries[1, 1], phi, dphi)


def sweep_kernel() -> str:
    """Which loop ``sweep_row`` runs: "compiled <library>" or "python (<why>)".

    Builds and checks the compiled loop first if no sweep has yet.
    """
    if _loop is None:
        _load()
    return _kernel


def _load():
    """Build, load and check the compiled loop once: the loop, or False if any step failed."""
    global _loop, _kernel
    try:
        library = _build()
        loop = ctypes.CDLL(str(library)).pdmorse_sweep_row
        loop.restype = ctypes.c_int
        _check(loop)
    except Exception as exc:  # whatever failed, the Python loop serves
        _loop, _kernel = False, f"python ({type(exc).__name__}: {exc})"
    else:
        _loop, _kernel = loop, f"compiled {library}"
    return _loop


def _compiler() -> str | None:
    """Path of the system C compiler (the program of sysconfig's CC) on PATH, or None."""
    import shlex
    import shutil
    import sysconfig

    cc = shlex.split(sysconfig.get_config_var("CC") or "")
    return shutil.which(cc[0]) if cc else None


def _build() -> Path:
    """The compiled library in the per-user cache, compiled there first if it is missing."""
    import sysconfig
    import zlib

    compiler = _compiler()
    if compiler is None:
        raise FileNotFoundError("no C compiler (sysconfig's CC) on PATH")
    source = _SOURCE.read_bytes()
    command = [compiler, *_FLAGS, "-x", "c", "-", "-o"]
    # a CRC, not hashlib, whose OpenSSL adds megabytes to the process; the
    # check guards against a wrong library.  The platform keeps hosts that
    # share a home directory apart.
    key = zlib.crc32("\0".join([sysconfig.get_platform(), *command]).encode() + source)
    base = os.environ.get("XDG_CACHE_HOME", "")  # a relative one is ignored (XDG spec)
    cache = (Path(base) if os.path.isabs(base) else Path.home() / ".cache") / "pdmorse"
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    os.chmod(_owned(cache), 0o700)  # one made under umask 002 is group-writable
    library = cache / f"sweep-{key:08x}.so"
    if not library.is_file():
        import subprocess
        import tempfile

        fd, partial = tempfile.mkstemp(prefix="sweep-", suffix=".so.partial", dir=cache)
        os.close(fd)
        try:
            subprocess.run([*command, partial], input=source, capture_output=True,
                           check=True, timeout=120)
            os.replace(partial, library)
        finally:
            if os.path.exists(partial):
                os.unlink(partial)
    return _owned(library)


def _owned(path: Path) -> Path:
    """path if the current user owns it; PermissionError if another user does.

    Anyone can work out the library's name, and ctypes runs a library's
    initialisers on load, before ``_check`` compares anything."""
    owner = path.stat().st_uid
    if owner != os.getuid():
        raise PermissionError(f"{path} belongs to uid {owner}, not to this user "
                              f"(uid {os.getuid()})")
    return path


def _check(loop) -> None:
    """Known answers: the compiled loop must give ``sweep``'s results (NaN
    where it gives NaN, otherwise the same bits), forward and in reverse,
    over ranges of 1 to 24 blocks from 5 start states.  The rows: random
    entries of mixed signs, signed zeros and magnitudes up to 1e200, two of
    them with NaN and +-inf entries and half of them with a non-negative
    tail; then the edge steps of the node rule and the rescale (+ -> 0 -> -,
    a node on a rescale step, NaN, a landing on 1e250, a signed zero in
    phi').  Raises ArithmeticError.  The random rows come from the stdlib
    ``random``, which is loaded already; numpy.random would add megabytes
    to the process."""
    import random

    rng = random.Random(19771012)
    nb, rows = 24, []
    for row in range(8):
        top = (1.0, 60.0, 200.0)[row % 3]
        entries = []
        for i in range(4 * nb):
            kind = rng.random() if row >= 6 else 0.04 + 0.96 * rng.random()
            sign = 1.0 if row % 2 and i % nb >= nb // 2 else rng.choice((-1.0, 1.0))
            entries.append(sign * (math.nan if kind < 0.02 else math.inf if kind < 0.04
                                   else 0.0 if kind < 0.25
                                   else 10.0 ** (-2.0 + (top + 2.0) * rng.random())))
        rows.append(entries)
    one = (1.0, 0.0, 0.0, 1.0)
    for steps in (((0.0, 0.0, 0.0, 1.0), (1.0, -1.0, 0.0, 1.0)), ((-1e251, 0.0, 0.0, 1.0), one),
                  ((1e251, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, 1.0)),
                  ((math.nan, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, 1.0)),
                  (one, (1e250, 0.0, 0.0, 1.0)), (one, (1.0, 0.0, 1.0, 1.0))):
        rows.append([x for column in zip(*steps, *[one] * (nb - 2)) for x in column])
    blocks = np.array(rows).reshape(len(rows), 2, 2, nb)
    for row in range(len(rows)):
        for b0, b1 in ((0, 1), (row % 8, row % 8 + 3), (2, 12), (0, nb)):
            for phi in (0.0, 1.0, -1.0, 1e-300, math.nan):
                for reverse in (False, True):
                    got = _compiled_row(loop, blocks, row, b0, b1, phi, 1.0, reverse)
                    want = _python_row(blocks, row, b0, b1, phi, 1.0, reverse)
                    if got[2] != want[2] or not all(
                            x == y and math.copysign(1.0, x) == math.copysign(1.0, y)
                            or math.isnan(x) and math.isnan(y)
                            for x, y in zip(got[:2], want[:2])):
                        raise ArithmeticError(f"the compiled sweep gave {got} where sweep "
                                              f"gives {want}")
