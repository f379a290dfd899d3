"""Counter-based RNG streams for reproducible (parallel) Monte Carlo."""

import functools
import operator
import os

from .model import _numpy, _require_count

np = _numpy()

_UINT64 = 1 << 64

# stream index reserved for bootstrap resampling inside estimate_critical_value;
# simulation paths use indices 0, 1, 2, ... and never reach this value
BOOTSTRAP_STREAM = 1 << 62


class _StreamKey(tuple):
    """The Philox key of one stream, (index, seed) mod 2**64, standing in
    for its seed sequence.

    Philox asks its seed sequence for two 64-bit key words, low word first,
    so no SeedSequence is built and no OS entropy is drawn. The class is
    registered as a numpy ISeedSequence at the first stream (_philox), so
    that importing this module loads no numpy.random.
    """

    __slots__ = ()

    def generate_state(self, n_words, dtype=None):
        return np.array(self, dtype=np.uint64)


@functools.cache
def _philox():
    """numpy's Philox class, once _StreamKey is registered as a seed
    sequence; numpy.random loads at this first call."""
    from numpy.random import Philox
    from numpy.random.bit_generator import ISeedSequence
    ISeedSequence.register(_StreamKey)
    return Philox


# numpy annotations are quoted here and in the other modules, so that numpy,
# and numpy.random with it, loads at the first array or stream, not at import
def rng_stream(seed: int, index: int) -> "np.random.Generator":
    """Independent generator for stream `index` under master `seed`.

    Streams are Philox counter-based and keyed directly by (seed, index):
    the key is (seed mod 2**64) * 2**64 + (index mod 2**64), so any worker
    can recreate stream i without touching the other streams. Results are
    therefore identical no matter how work is batched or distributed over
    processes. No OS entropy is drawn, and the generator carries no
    spawnable seed sequence (Generator.spawn raises).
    """
    # float keys round many indices to one stream; numpy ints overflow in %
    seed, index = operator.index(seed), operator.index(index)
    key = _StreamKey((index % _UINT64, seed % _UINT64))
    return np.random.Generator(_philox()(key))


def _map_blocks(fn, reps: int, block: int, threads: int) -> list:
    """fn(start, count) on consecutive blocks of stream indices covering
    0 .. reps-1, over min(threads, number of blocks) processes, where
    threads is first capped at the number of CPUs this process may use.

    block is the widest block allowed. Blocks are min(block, ceil(reps /
    threads)) wide, narrowed where needed so that there are at least
    min(threads, reps) of them; only the last may be narrower. So one process
    runs one block when block allows it, and no worker is left without one.
    Results come back in block order, and each block draws from its own
    streams, so they are the same for any thread count. With threads > 1, fn
    must pickle: a module-level function or a functools.partial of one.
    """
    _require_count(threads, "threads", 1)
    # the pool starts every worker at once; more than the CPUs only wait
    threads = min(threads, len(os.sched_getaffinity(0))
                  if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
    parts = min(threads, reps)
    width = min(block, -(-reps // parts))
    if parts > 1:
        # ceil(reps / parts) can leave a worker idle: 5 over 4 gives 2, 2, 1
        width = min(width, (reps - 1) // (parts - 1))
    starts = range(0, reps, width)
    counts = [min(width, reps - start) for start in starts]
    workers = min(threads, len(starts))
    if workers > 1:
        # imported here, so serial runs and CLI calls never load
        # multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, starts, counts))
    return [fn(start, count) for start, count in zip(starts, counts)]
