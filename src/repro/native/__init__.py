"""On-demand-compiled native kernels for the columnar numeric lane.

The columnar lane (docs/model.md, "Lanes") stores raw numeric keys instead
of :class:`~repro.universe.item.Item` wrappers, which makes the summary
loops expressible over flat ``int64`` arrays:

* ``gk_batch`` (``gk_kernel.c``) — GK's insert/compress loop over tuple
  columns the summary owns (``array('q')`` values, g and Delta, edited in
  place and grown on demand): each compress-period chunk is stably sorted
  and spliced into the tuples in one backward merge, and each compress is
  one right-to-left pass;
* ``gk_merge`` (``gk_kernel.c``) — ``merge_gk``'s fold of two such column
  sets into fresh ones, so two columnar GK shards fold without Python;
* ``kll_batch`` (``kll_kernel.c``) — KLL's level-0 fill and compaction
  cascade, drawing each coin from a port of CPython's Mersenne Twister so
  the coin stream equals ``random.Random.randrange(2)``'s.  KLL's levels and
  generator words still cross every call as copies.

Both sources are compiled into one library with the system C compiler the
first time a kernel is needed (never at import), and driven through
:mod:`ctypes`, which releases the GIL for the duration of each call.
Buffers cross as raw addresses (``array.buffer_info()``): a per-call
``c_int64 * len`` view would create, and keep for the life of the process,
one ctypes array type per distinct length.

Nothing here is required for correctness: every caller treats a ``None``
return as "take the pure-Python path", and each kernel is an exact port of
the Python semantics (state-identical GK tuples, ``n``, ``since_compress``
and ``max_item_count``, and ``merge_gk``'s merged tuples; state-identical
KLL compactors, ``n``, ``max_item_count``, draw count and generator state),
which the lane-equivalence and kernel tests pin down.

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
            ctypes.c_int64,  # capacity
            _ADDRESS,  # batch
            ctypes.c_int64,  # batch_len
            _ADDRESS,  # state [n, since_compress, max_item_count, size, needed]
            ctypes.c_int64,  # period
            ctypes.c_int64,  # eps_p
            ctypes.c_int64,  # eps_q
            ctypes.c_int32,  # greedy
        ]
        lib.gk_merge.restype = ctypes.c_int64
        lib.gk_merge.argtypes = [
            _ADDRESS,  # vals_a
            _ADDRESS,  # gs_a
            _ADDRESS,  # deltas_a
            ctypes.c_int64,  # size_a
            _ADDRESS,  # vals_b
            _ADDRESS,  # gs_b
            _ADDRESS,  # deltas_b
            ctypes.c_int64,  # size_b
            _ADDRESS,  # state [n_a, n_b, max_item_count]
            ctypes.c_int64,  # eps_p
            ctypes.c_int64,  # eps_q
            ctypes.c_int32,  # greedy
            _ADDRESS,  # out vals
            _ADDRESS,  # out gs
            _ADDRESS,  # out deltas
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


def available() -> bool:
    """Whether the native kernels can run: not switched off, and compiled.

    The first call compiles (or loads the cached) library.
    """
    return not native_disabled() and _load() is not None


def int64_array(values) -> array | None:
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


def _gk_envelope(eps_p: int, eps_q: int, count: int) -> bool:
    """The int64-safe envelope both GK kernels share."""
    return eps_p < _FRACTION_LIMIT and eps_q < _FRACTION_LIMIT and count < _COUNT_LIMIT


def _grow(columns: list, capacity: int) -> None:
    padding = bytes(8 * (capacity - len(columns[0])))
    for column in columns:
        column.frombytes(padding)


def gk_batch(
    columns: list,
    batch,
    n: int,
    since_compress: int,
    max_item_count: int,
    period: int,
    eps_p: int,
    eps_q: int,
    greedy: bool,
):
    """Apply ``batch`` to GK tuple state held in owned int64 columns.

    ``columns`` are the summary's values, g and Delta as ``array('q')``,
    each holding exactly the live tuples.  The kernel edits them in place
    and they hold exactly the new tuples on return.  Capacity grows on
    demand (the kernel stops before a chunk that does not fit) and is
    trimmed after the call, so no batch-sized buffer outlives it.

    Returns ``(n, since_compress, max_item_count)`` on success, or ``None``,
    with the columns untouched, when the kernel is unavailable or the inputs
    are outside its int64-safe envelope (keys that are not int64 ints,
    enormous epsilon fractions, streams past 2^40 items) — callers then run
    the pure-Python path, which is state-identical.
    """
    if not available():
        return None
    if not _gk_envelope(eps_p, eps_q, n + len(batch)) or period >= _COUNT_LIMIT:
        return None
    keys = int64_array(batch)
    if keys is None:
        return None
    total = len(keys)
    state = array("q", [n, since_compress, max_item_count, len(columns[0]), 0])
    _grow(columns, len(columns[0]) + min(total, period) + 16)
    done = 0
    while True:
        vals, gs, deltas = columns
        # Addresses are re-read every call: growing may move the buffers.
        applied = _lib.gk_batch(
            _address(vals),
            _address(gs),
            _address(deltas),
            len(vals),
            _address(keys) + 8 * done,
            total - done,
            _address(state),
            period,
            eps_p,
            eps_q,
            1 if greedy else 0,
        )
        if applied < 0:  # pragma: no cover - allocation failure
            raise MemoryError("the native GK kernel could not allocate scratch")
        done += applied
        if done >= total:
            break
        _grow(columns, max(state[4], 2 * len(vals)))
    for column in columns:
        del column[state[3] :]
    return state[0], state[1], state[2]


def gk_merge(
    first: tuple,
    first_n: int,
    second: tuple,
    second_n: int,
    max_item_count: int,
    eps_p: int,
    eps_q: int,
    greedy: bool,
):
    """Merge two GK summaries' (values, g, Delta) columns natively.

    ``max_item_count`` is the larger of the inputs'.  Returns
    ``(columns, max_item_count)``, the merged and compressed tuples as
    fresh ``array('q')`` columns, or ``None`` when the kernel is unavailable
    or an input is outside the envelope :func:`gk_batch` keeps (a key that
    is not an int64 int, a g below 1, a g, Delta or n past 2^40, unsorted
    keys, an enormous epsilon fraction) — callers then run the Python
    merge, which is state-identical.
    """
    if not available() or not _gk_envelope(eps_p, eps_q, first_n + second_n):
        return None
    inputs = [int64_array(column) for column in (*first, *second)]
    if any(column is None for column in inputs):
        return None
    size = len(inputs[0]) + len(inputs[3])
    out = [array("q", bytes(8 * size)) for _ in range(3)]
    state = array("q", [first_n, second_n, max_item_count])
    size = _lib.gk_merge(
        *map(_address, inputs[:3]),
        len(inputs[0]),
        *map(_address, inputs[3:]),
        len(inputs[3]),
        _address(state),
        eps_p,
        eps_q,
        1 if greedy else 0,
        *map(_address, out),
    )
    if size == -1:  # pragma: no cover - allocation failure
        raise MemoryError("the native GK merge could not allocate scratch")
    if size < 0:
        return None
    for column in out:
        del column[size:]
    return out, state[2]


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
    keys = int64_array(batch)
    items = int64_array([key for level in levels for key in level])
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
