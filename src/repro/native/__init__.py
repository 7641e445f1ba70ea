"""On-demand-compiled native kernels for the columnar numeric lane.

The columnar lane (docs/model.md, "Lanes") stores raw numeric keys instead
of :class:`~repro.universe.item.Item` wrappers, which makes two summary
loops expressible over flat ``int64`` arrays:

* ``gk_batch`` (``gk_kernel.c``) — GK's insert/compress loop;
* ``kll_batch`` (``kll_kernel.c``) — KLL's level-0 fill and compaction
  cascade, drawing each coin from a port of CPython's Mersenne Twister so
  the coin stream equals ``random.Random.randrange(2)``'s.

Both sources are compiled into one library with the system C compiler the
first time either kernel is needed (never at import), and driven through
:mod:`ctypes`, which releases the GIL for the duration of each call.
Buffers cross as raw addresses (``array.buffer_info()``): a per-call
``c_int64 * len`` view would create, and keep for the life of the process,
one ctypes array type per distinct length.

Nothing here is required for correctness: every caller treats a ``None``
return as "take the pure-Python columnar path", and each kernel is an exact
port of the Python semantics (state-identical GK tuples, ``n``,
``since_compress`` and ``max_item_count``; state-identical KLL compactors,
``n``, ``max_item_count``, draw count and generator state), which the
lane-equivalence and kernel tests pin down.

Knobs:

* ``REPRO_NO_NATIVE=1`` — kill switch; never compile or call native code.
* ``REPRO_NATIVE_CACHE=DIR`` — where compiled objects are cached (default
  ``$TMPDIR/repro-native``).  The cache key hashes the kernel sources and
  compiler, and the object lands under its final name via an atomic rename,
  so concurrent workers never load a half-written library.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from array import array
from pathlib import Path

DISABLE_ENV = "REPRO_NO_NATIVE"
CACHE_ENV = "REPRO_NATIVE_CACHE"

_SOURCES = tuple(
    Path(__file__).with_name(name) for name in ("gk_kernel.c", "kll_kernel.c")
)
#: eps numerator/denominator cap: keeps the kernel's __int128 threshold
#: product (eps_p * n) well inside range for any guarded n.
_FRACTION_LIMIT = 1 << 62
#: Cap on n + batch size: bounds thresholds (hence g/delta sums and band
#: shifts) far below int64.
_COUNT_LIMIT = 1 << 40

#: MT19937 words plus the index, as ``random.Random.getstate()[1]`` holds.
_MT_STATE_LEN = 625

_ADDRESS = ctypes.c_void_p

_lib: ctypes.CDLL | None = None
_load_failed = False


def native_disabled() -> bool:
    """True when the ``REPRO_NO_NATIVE`` kill switch is set."""
    return bool(os.environ.get(DISABLE_ENV))


def _cache_dir() -> Path:
    override = os.environ.get(CACHE_ENV)
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / "repro-native"


def _compiler() -> str | None:
    return os.environ.get("CC") or shutil.which("cc") or shutil.which("gcc")


def _compile() -> Path | None:
    compiler = _compiler()
    if compiler is None:
        return None
    # A missing kernel source or an unusable cache directory means no
    # native code, like a missing compiler: never an error.
    try:
        sources = "\n".join(path.read_text() for path in _SOURCES)
        digest = hashlib.sha256(f"{compiler}\n{sources}".encode()).hexdigest()[:16]
        cache = _cache_dir()
        target = cache / f"kernels-{digest}.so"
        if target.exists():
            return target
        cache.mkdir(parents=True, exist_ok=True)
        fd, scratch = tempfile.mkstemp(suffix=".so", dir=cache)
        os.close(fd)
    except OSError:
        return None
    try:
        subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC", "-o", scratch]
            + [str(path) for path in _SOURCES],
            check=True,
            capture_output=True,
            timeout=120,
        )
        os.replace(scratch, target)
    except (OSError, subprocess.SubprocessError):
        try:
            os.unlink(scratch)
        except OSError:
            pass
        return None
    return target


def _load() -> ctypes.CDLL | None:
    global _lib, _load_failed
    if _lib is not None:
        return _lib
    if _load_failed:
        return None
    path = _compile()
    if path is None:
        _load_failed = True
        return None
    try:
        lib = ctypes.CDLL(str(path))
        lib.gk_batch.restype = ctypes.c_int64
        lib.gk_batch.argtypes = [
            _ADDRESS,  # vals
            _ADDRESS,  # gs
            _ADDRESS,  # deltas
            ctypes.c_int64,  # size
            _ADDRESS,  # batch
            ctypes.c_int64,  # batch_len
            _ADDRESS,  # state [n, since_compress, max_item_count]
            ctypes.c_int64,  # period
            ctypes.c_int64,  # eps_p
            ctypes.c_int64,  # eps_q
            ctypes.c_int32,  # greedy
            _ADDRESS,  # bands scratch
        ]
        lib.kll_batch.restype = ctypes.c_int64
        lib.kll_batch.argtypes = [
            _ADDRESS,  # items, levels back to back
            _ADDRESS,  # sizes
            ctypes.c_int64,  # height
            _ADDRESS,  # batch
            ctypes.c_int64,  # batch_len
            _ADDRESS,  # capacities by depth
            ctypes.c_int64,  # capacities_len
            _ADDRESS,  # state [n, max_item_count, rng_draws, stored count]
            _ADDRESS,  # mt: 624 uint32 words + index
            ctypes.POINTER(_ADDRESS),  # out: malloc'd sizes + items
        ]
        lib.kll_free.restype = None
        lib.kll_free.argtypes = [_ADDRESS]
    except (OSError, AttributeError):
        _load_failed = True
        return None
    _lib = lib
    return _lib


def _address(buffer: array) -> int:
    """The address of ``buffer``'s storage, passed as a ``void *``.

    The caller keeps ``buffer`` alive (and unresized) across the call.
    """
    return buffer.buffer_info()[0]


def gk_batch(
    values: list,
    gs: list,
    deltas: list,
    batch: list,
    n: int,
    since_compress: int,
    max_item_count: int,
    period: int,
    eps_p: int,
    eps_q: int,
    greedy: bool,
):
    """Apply ``batch`` to GK tuple state with the native insert loop.

    Returns ``(values, gs, deltas, n, since_compress, max_item_count)`` on
    success, or ``None`` when the kernel is unavailable or the inputs are
    outside its int64-safe envelope (huge ints, floats, enormous epsilon
    fractions, streams past 2^40 items) — callers then run the pure-Python
    columnar path, which is state-identical.
    """
    if native_disabled():
        return None
    lib = _load()
    if lib is None:
        return None
    if eps_p >= _FRACTION_LIMIT or eps_q >= _FRACTION_LIMIT:
        return None
    if n + len(batch) >= _COUNT_LIMIT or period >= _COUNT_LIMIT:
        return None
    padding = bytes(8 * len(batch))
    try:
        vals_arr = array("q", values)
        g_arr = array("q", gs)
        d_arr = array("q", deltas)
        batch_arr = array("q", batch)
    except (OverflowError, TypeError):
        return None
    vals_arr.frombytes(padding)
    g_arr.frombytes(padding)
    d_arr.frombytes(padding)
    bands = array("q", bytes(8 * len(vals_arr)))
    state = array("q", [n, since_compress, max_item_count])
    new_size = lib.gk_batch(
        _address(vals_arr),
        _address(g_arr),
        _address(d_arr),
        len(values),
        _address(batch_arr),
        len(batch),
        _address(state),
        period,
        eps_p,
        eps_q,
        1 if greedy else 0,
        _address(bands),
    )
    if new_size < 0 or new_size > len(vals_arr):  # pragma: no cover - guard
        return None
    return (
        vals_arr[:new_size].tolist(),
        g_arr[:new_size].tolist(),
        d_arr[:new_size].tolist(),
        state[0],
        state[1],
        state[2],
    )


def _int64_keys(values) -> array | None:
    """``values`` as an int64 buffer, or ``None`` unless every key is an
    exact ``int`` (bools and floats excluded) inside int64."""
    if isinstance(values, array):
        return values if values.typecode == "q" else None
    if not set(map(type, values)) <= {int}:
        return None
    try:
        return array("q", values)
    except OverflowError:
        return None


def kll_batch(
    levels: list,
    batch,
    n: int,
    max_item_count: int,
    draws: int,
    capacities: tuple,
    mt_state: tuple,
):
    """Apply ``batch`` to KLL compactor state with the native kernel.

    ``levels`` are the compactors (lists of keys, level 0 first),
    ``capacities`` KLL's capacity-by-depth table and ``mt_state`` the
    generator's ``getstate()[1]`` (624 words plus the index).  Returns
    ``(levels, n, max_item_count, draws, mt_state)`` on success, or
    ``None`` when the kernel is unavailable or a stored or batch key is not
    an exact int inside int64 — callers then run the pure-Python path,
    which is state-identical.
    """
    if native_disabled() or not levels:
        return None
    lib = _load()
    if lib is None:
        return None
    if n + len(batch) >= _COUNT_LIMIT:
        return None
    keys = _int64_keys(batch)
    items = _int64_keys([key for level in levels for key in level])
    if keys is None or items is None:
        return None
    sizes = array("q", map(len, levels))
    table = array("q", capacities)
    state = array("q", [n, max_item_count, draws, 0])
    mt = array("I", mt_state)
    if mt.itemsize != 4 or len(mt) != _MT_STATE_LEN:
        return None
    out = _ADDRESS()
    height = lib.kll_batch(
        _address(items),
        _address(sizes),
        len(sizes),
        _address(keys),
        len(keys),
        _address(table),
        len(table),
        _address(state),
        _address(mt),
        ctypes.byref(out),
    )
    if height < 1:  # pragma: no cover - allocation failure
        return None
    try:
        block = array("q")
        block.frombytes(ctypes.string_at(out.value, 8 * (height + state[3])))
    finally:
        lib.kll_free(out)
    new_levels = []
    position = height
    for size in block[:height]:
        new_levels.append(block[position : position + size].tolist())
        position += size
    return new_levels, state[0], state[1], state[2], tuple(mt)
