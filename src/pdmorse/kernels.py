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

Compiled library (``walk``).  The oracle's sweeps walk products of the
steps of its step table (Blocks, below), and ``walk`` makes each block's
product and steps over it at once, so no array of products outlives a
call.  ``_sweep.c`` holds a C99 copy of its Horner evaluation and product
tree and of the plain step.  The first call builds it with the system C
compiler (sysconfig's CC, found on PATH) and the flags _FLAGS.  With
-ffp-contract=off no product and sum fuse into one rounding, and with no
-march and no fast-math every operation rounds to double as CPython's
float operations and numpy's element-wise ones do, so the compiled code
gives the bits of the numpy products and the Python loop (NaN for NaN,
whatever its payload).  The library is cached per user, in
$XDG_CACHE_HOME/pdmorse (~/.cache/pdmorse where that variable is unset or
not an absolute path), as sweep-<CRC-32 of the platform, the compile
command and the source>.so; it is compiled under a temporary name and
moved into place with ``os.replace``.  The cache directory is made private
(mode 0o700), and nothing is loaded unless the current user owns both the
directory and the library (``_owned``).  The library is loaded with ctypes
and used only after a known-answer check against the numpy products and
``sweep`` (``_check``).  If any step fails (no compiler, a compile error,
an unwritable cache, a cache or library of another user, a load error or a
wrong answer), ``walk`` runs numpy and ``sweep`` instead; ``sweep_kernel``
says which code runs and why.  Nothing is built on import.

Settled tail (Sturm comparison, Pryce 1993).  Suppose that from step t on
every propagator entry is >= 0 (NaN counts as negative).  If phi, phi' >= 0
then p = m00 phi + m01 phi' and d = m10 phi + m11 phi' are >= 0 (or NaN),
rescaling keeps signs, and NaN stays NaN and counts nothing; by induction
phi never again falls below zero, so no later step counts a node.  The same
holds with both <= 0 (:func:`settled`).  A sweep that needs only the node
count may therefore stop at the first such state at or after t.  For h > 0
all four entries are >= 0 wherever q >= 0 at a step's three points, as in
the forbidden right tail.

Blocks (:func:`walk`).  The sweep may walk products of m <=
MAX_BLOCK consecutive step matrices instead of single steps, each step
evaluated from a table that holds its entries as quadratics in an energy
offset; it then sees phi only at block ends.  That count equals the
per-step count when no block holds two nodes.  By Sturm comparison, zeros
of a solution of phi'' = q phi lie at least pi / sqrt(max(-q)) apart, so
blocks with m h sqrt(max(-q)) <= pi/2 hold at most one; the factor 2 of
margin covers the RK4 phase error, a relative O((kh)^4) per step.  A
product of non-negative matrices is non-negative, so the settled-tail
argument holds block by block.

Run ``benchmarks/bench_shooting.py`` to time the propagators, both sweeps
and the oracle's counting sweeps, half-sweeps and rounds, compiled and in
numpy.
"""
from __future__ import annotations

import ctypes
import math
import operator
import os
from pathlib import Path

import numpy as np

USE_NUMBA = False  # recorded by e2ebench/run.py; the compiled sweep is walk's C loop

# Renormalization threshold; rescaling both components leaves nodes and
# log-derivatives unchanged while keeping the growing solution finite.
_RESCALE_LIMIT = 1e250
_SOURCE = Path(__file__).with_name("_sweep.c")
_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")
_FLOAT64 = np.dtype(np.float64)
_ONE = ctypes.c_double * 1  # the C view of an array
# Most steps per block: the compiled product tree's buffer (MAX_BLOCK in _sweep.c).
MAX_BLOCK = 16
# Steps per numpy evaluation of the fallback's products (its walks times
# their steps), so that its largest array, four entries per step, is 256 KiB.
TABLE_CHUNK = 8192
_library = None  # the compiled library once built and checked, False where Python serves
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


def walk(table: np.ndarray, b0: int, ends, d: np.ndarray, states, reverse: bool = False):
    """``sweep`` over products of consecutive step matrices, one per block of m steps,
    at K energy offsets.

    table is an aligned, writable, C-contiguous float64 array of shape
    (3, 2, 2, m, nbt): the coefficients (c2, f, c1) of entry (i, j) of step
    k of block b, with m a power of two up to MAX_BLOCK and steps in sweep
    order along k; d is a 1-D float64 array of the K offsets, ends the K
    end blocks and states the K start states (phi, phi').  Walk e takes the
    blocks b0 .. ends[e] - 1, which must lie inside the table.  Anything
    else raises ValueError before any code runs.  Each step entry at offset
    d[e] is ((c2 d) + c1) d + f (Horner's rule), and the product
    M_{m-1} ... M_1 M_0 of each block is taken as a pairwise tree, step
    2 s + 1 times step 2 s per halving of m, each product entry summed as
    (0.0 + A[i,0] B[0,l]) + A[i,1] B[1,l]: the order of ``_numpy_products``,
    one ``einsum`` per halving, whose sum starts from +0.0.  Each product is
    then one step of ``sweep``.  With reverse, walk e takes the blocks
    ends[e] - 1 down to b0 with each product's entries in the adjugate's
    order (m11, m01, m10, m00): from (0, +1) that is the oracle's right
    half-sweep, whose phi' comes back negated.

    The compiled library runs it once the first call has built and checked
    it, numpy and ``sweep`` where that failed (``sweep_kernel``), with the
    same bits (NaN for NaN).  Each product depends on its block's steps and
    its walk's offset alone, so every walk gives, bit for bit, what it gives
    alone.  An inf * 0 gives NaN without a numpy warning.  Returns
    [(phi, phi', nodes)], one per walk, bit for bit what ``sweep`` gives
    over the products (the module docstring); table is left as it was.
    """
    if not (type(table) is np.ndarray and table.ndim == 5 and table.dtype == _FLOAT64
            and table.flags.c_contiguous and table.flags.aligned and table.flags.writeable
            and table.shape[:3] == (3, 2, 2)):
        raise ValueError("walk needs an aligned, writable C-contiguous float64 table of "
                         "shape (3, 2, 2, m, nbt)")
    m, nbt = table.shape[3:]
    if not (0 < m <= MAX_BLOCK and m & (m - 1) == 0):
        raise ValueError(f"{m} steps per block is not a power of two up to {MAX_BLOCK}")
    if not (type(d) is np.ndarray and d.ndim == 1 and d.dtype == _FLOAT64):
        raise ValueError("walk needs the offsets as a 1-D float64 array")
    b0, ends = operator.index(b0), [operator.index(end) for end in ends]
    states = [(float(phi), float(dphi)) for phi, dphi in states]
    if not len(ends) == len(states) == d.size:
        raise ValueError(f"{len(ends)} ends and {len(states)} states for {d.size} offsets")
    outside = [end for end in ends if not b0 <= end <= nbt]
    if b0 < 0 or outside or nbt >= 2**31:
        raise ValueError(f"blocks {b0}..{outside[0] if outside else b0} outside a table of "
                         f"{nbt} blocks")
    library = _library if _library is not None else _load()
    if library and nbt:  # ctypes maps no view of an empty table
        return _compiled_walk(library.pdmorse_walk, table, b0, ends, d, states, reverse)
    return _numpy_walk(table, b0, ends, d, states, reverse)


def _compiled_walk(run, table, b0, ends, d, states, reverse):
    """``walk`` in the compiled library, on arguments it has checked."""
    k = len(ends)
    out = (ctypes.c_double * (2 * k))(*[x for state in states for x in state])
    nodes = (ctypes.c_int * k)()
    # ctypes passes a ctypes array as a pointer to its first element and the
    # ints as C ints: run has no argtypes, which would add a converter per
    # argument to every call
    run(_ONE.from_buffer(table), table.shape[3], table.shape[4], b0, (ctypes.c_int * k)(*ends),
        (ctypes.c_double * k)(*d.tolist()), k, 1 if reverse else 0, out, nodes)
    return list(zip(out[0::2], out[1::2], nodes))


def _numpy_walk(table, b0, ends, d, states, reverse):
    """``walk`` in numpy and ``sweep``, on arguments it has checked.

    The walks go in groups of consecutive ones, as many as keep a group's
    products within TABLE_CHUNK steps (one at least), each group's products
    in one ``_numpy_products`` call; ``sweep`` then walks views of each
    walk's products."""
    size = max(1, TABLE_CHUNK // (table.shape[3] * max(1, max(ends, default=b0) - b0)))
    out = []
    for i in range(0, len(ends), size):
        group = ends[i:i + size]
        nb = max(group) - b0
        (a, b), (c, e) = _numpy_products(table, b0, b0 + nb, d[i:i + size]).transpose(1, 2, 0, 3)
        if reverse:  # the adjugate's entries, blocks from the last one down
            a, b, c, e = (x[:, ::-1] for x in (e, b, c, a))
        for j, (end, (phi, dphi)) in enumerate(zip(group, states[i:i + size])):
            span = slice(nb - (end - b0), None) if reverse else slice(end - b0)
            out.append(sweep(a[j, span], b[j, span], c[j, span], e[j, span], phi, dphi))
    return out


def _numpy_products(table, b0, b1, d):
    """The products of blocks b0 .. b1 - 1 at the offsets d in numpy: a fresh C-contiguous
    (K, 2, 2, b1 - b0) array, entry (i, j) of block b0 + b at offset e."""
    c2, f, c1 = table[..., b0:b1]
    d = d[:, None, None, None, None]
    with np.errstate(invalid="ignore"):  # inf * 0, as on a grid with a non-finite U
        steps = c2 * d  # Horner's rule, (c2 d + c1) d + f, in one array
        steps += c1
        steps *= d
        steps += f
    while steps.shape[3] > 1:
        steps = np.einsum("eijkb,ejlkb->eilkb", steps[:, :, :, 1::2], steps[:, :, :, 0::2])
    return np.ascontiguousarray(steps[:, :, :, 0])


def sweep_kernel() -> str:
    """What ``walk`` runs: "compiled <library>" or "python (<why>)", where
    numpy and ``sweep`` serve.

    Builds and checks the compiled library first if no call has yet.
    """
    if _library is None:
        _load()
    return _kernel


def _load():
    """Build, load and check the compiled library once: the library, or False if any step
    failed."""
    global _library, _kernel
    try:
        path = _build()
        library = ctypes.CDLL(str(path))
        library.pdmorse_walk.restype = None
        _check(library)
    except Exception as exc:  # whatever failed, numpy and sweep serve
        _library, _kernel = False, f"python ({type(exc).__name__}: {exc})"
    else:
        _library, _kernel = library, f"compiled {path}"
    return _library


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


def _check(library) -> None:
    """Known answers: the compiled walk must give the results of
    ``_numpy_walk``, NaN where it gives NaN and otherwise the same bits,
    forward and in reverse.  Every call makes one walk per offset and start
    state, and its odd walks end one block short, so some are empty.  The
    tables:

    * for m = 1, 2, 4, ..., MAX_BLOCK steps per block, three blocks of
      random coefficients of mixed signs, signed zeros, NaN, +-inf and
      magnitudes 0.1 to 10, at the offsets 0, -0, 0.75, -1.5 and 3e-3 (so
      that inf * 0 gives NaN), over all three blocks, from block 1 and over
      block 1 alone; then steps [[-0, -0], [1, 1]] times [[1, 1], [1, 1]]
      (at d = -0), whose product sums (-0)(1) + (-0)(1) from +0.0 to +0.
      The walks start from (1, 0), (0, 1) and (1, 1): over one block the
      first two give the columns of its product;
    * one step per block with c2 = c1 = 0 at d = -0, where each step is its
      f bit for bit, over ranges of 1 to 24 blocks from (phi, 1) for phi in
      0, 1, -1, 1e-300 and NaN: rows of random entries of mixed signs,
      signed zeros and magnitudes up to 1e200, two of them with NaN and
      +-inf entries and half of them with a non-negative tail; then the
      edge steps of the node rule and the rescale (+ -> 0 -> -, a node on a
      rescale step, NaN, a landing on 1e250, a signed zero in phi').

    Raises ArithmeticError.  The random entries come from the stdlib
    ``random``, which is loaded already; numpy.random would add megabytes
    to the process."""
    import random

    rng = random.Random(19771012)
    cases = []  # (table, offsets, block ranges, start states)
    columns = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
    for m in (1 << k for k in range(MAX_BLOCK.bit_length())):
        table = np.array([
            rng.choice((-1.0, 1.0)) * (math.nan if kind < 0.01 else math.inf if kind < 0.03
                                       else 0.0 if kind < 0.25
                                       else 10.0 ** (2.0 * rng.random() - 1.0))
            for kind in (rng.random() for _ in range(12 * m * 3))]).reshape(3, 2, 2, m, 3)
        cases.append((table, (0.0, -0.0, 0.75, -1.5, 3e-3), ((0, 3), (1, 3), (1, 2)), columns))
    edge = np.zeros((3, 2, 2, 2, 3))  # c2 = 0, c1 = 1, f = -0 in step 1, row 0
    edge[2] = edge[1] = 1.0
    edge[1, 0, :, 1] = -0.0
    cases.append((edge, (-0.0,), ((0, 3), (1, 3), (1, 2)), columns))
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
    for row, entries in enumerate(rows):
        table = np.zeros((3, 2, 2, 1, nb))
        table[1] = np.reshape(entries, (2, 2, 1, nb))
        cases.append((table, (-0.0,), ((0, 1), (row % 8, row % 8 + 3), (2, 12), (0, nb)),
                      [(phi, 1.0) for phi in (0.0, 1.0, -1.0, 1e-300, math.nan)]))
    for table, offsets, ranges, starts in cases:
        d = np.repeat(offsets, len(starts))
        states = starts * len(offsets)
        for b0, b1 in ranges:
            ends = [b1 - e % 2 for e in range(d.size)]
            for reverse in (False, True):
                got = _compiled_walk(library.pdmorse_walk, table, b0, ends, d, states, reverse)
                want = _numpy_walk(table, b0, ends, d, states, reverse)
                for x, y in zip(got, want):
                    if x[2] != y[2] or not all(
                            a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
                            or math.isnan(a) and math.isnan(b) for a, b in zip(x[:2], y[:2])):
                        raise ArithmeticError(
                            f"the compiled walk over blocks of {table.shape[3]} steps gave "
                            f"{x} where numpy and sweep give {y}")
