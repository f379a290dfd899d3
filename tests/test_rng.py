import concurrent.futures
import os
import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pagecusum import ValidationError, experiments, rng
from pagecusum.cli import dispatch


class FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    started = []

    def __init__(self, max_workers):
        self.started.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


CPUS = 8  # the usable CPU count the tests pretend to have


def fake_cpus(mp, cpus=CPUS):
    """Pretend this process may run on cpus CPUs."""
    mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
               raising=False)


@pytest.fixture
def fake_pool(monkeypatch):
    FakePool.started = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    fake_cpus(monkeypatch)
    return FakePool.started


@pytest.mark.parametrize("threads, n_blocks, started", [
    (8, 3, [3]), (2, 5, [2]), (8, 1, []), (1, 4, []),
])
def test_workers_capped_at_block_count(fake_pool, threads, n_blocks, started):
    assert rng._map_blocks(lambda start, count: start * start, n_blocks, 1,
                           threads) == [b * b for b in range(n_blocks)]
    assert fake_pool == started


@pytest.mark.parametrize("threads", [1, 2])
def test_blocks_are_consecutive_and_in_order(fake_pool, threads):
    assert rng._map_blocks(lambda start, count: (start, count), 7, 3,
                           threads) == [(0, 3), (3, 3), (6, 1)]
    assert rng._map_blocks(lambda start, count: (start, count), 6, 3,
                           threads) == [(0, 3), (3, 3)]


@given(reps=st.integers(1, 3000), block=st.integers(1, 700),
       threads=st.integers(1, 12))
def test_blocks_cover_every_index_once(reps, block, threads):
    with pytest.MonkeyPatch.context() as mp:
        FakePool.started = []
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        fake_cpus(mp)
        blocks = rng._map_blocks(lambda start, count: (start, count), reps,
                                 block, threads)
    assert [i for s, c in blocks for i in range(s, s + c)] == list(range(reps))
    assert all(1 <= c <= block for _, c in blocks)
    assert len(blocks) >= min(threads, CPUS, reps)
    assert len({c for _, c in blocks[:-1]}) <= 1  # only the last is narrower
    if threads == 1 and reps <= block:
        assert len(blocks) == 1
    workers = min(threads, CPUS, len(blocks))
    assert FakePool.started == ([workers] if workers > 1 else [])


@pytest.mark.parametrize("affinity", [True, False])
def test_threads_capped_at_usable_cpus(fake_pool, monkeypatch, affinity):
    # only the fake pool's max_workers is read; no process starts
    if affinity:
        fake_cpus(monkeypatch, 3)
    else:  # a platform without sched_getaffinity falls back to cpu_count
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
    blocks = rng._map_blocks(lambda start, count: (start, count), 10, 500,
                             4096)
    assert blocks == [(0, 4), (4, 4), (8, 2)]
    assert fake_pool == [3]
    # one usable CPU runs every block in this process
    fake_cpus(monkeypatch, 1)
    assert rng._map_blocks(lambda start, count: (start, count), 10, 500,
                           4096) == [(0, 10)]
    assert fake_pool == [3]


def test_default_width_keeps_both_workers(fake_pool):
    # 250 replications fit one default block, yet two threads get two
    assert experiments._BLOCK >= 250
    assert rng._map_blocks(lambda start, count: (start, count), 250,
                           experiments._BLOCK, 2) == [(0, 125), (125, 125)]
    assert fake_pool == [2]


def test_threads_below_one_rejected(fake_pool, capsys, tmp_path):
    with pytest.raises(ValidationError, match="threads"):
        rng._map_blocks(divmod, 2, 1, 0)
    code = dispatch(["critvals", "--gamma", "0", "--alpha", "0.1", "--reps",
                     "100", "--grid", "10", "--threads", "0"])
    assert code == 2 and capsys.readouterr().out == ""
    cfg = tmp_path / "sim.cfg"
    cfg.write_text("m = 60\ndelta = 1.5\nkstar = 2\nreps = 10\n"
                   "omega = 0.5\n")
    out_dir = tmp_path / "out"
    code = dispatch(["simulate", "--config", str(cfg), "--out", str(out_dir),
                     "--threads", "0"])
    assert code == 2 and capsys.readouterr().out == ""
    assert not out_dir.exists()  # a rejected study leaves no directory
    assert fake_pool == []


def test_numpy_integer_seed_keys_the_same_streams():
    for seed in (17, -1, 2 ** 63):
        assert rng.rng_stream(np.uint64(seed % 2 ** 64), 3).random() == \
            rng.rng_stream(seed, 3).random()
    # a float seed or index once keyed one stream for many indices
    for seed, index in ((1.0, 0), (1, 2.0)):
        with pytest.raises(TypeError):
            rng.rng_stream(seed, index)


def keyed_philox(seed, index):
    """The generator rng_stream stands for, keyed through Philox's key=."""
    key = (int(seed) % 2**64) * 2**64 + int(index) % 2**64
    return np.random.Generator(np.random.Philox(key=key))


def philox_state(gen):
    """Counter, key, buffer and the half-used 32-bit word, as lists."""
    state = gen.bit_generator.state
    return (state["state"]["counter"].tolist(),
            state["state"]["key"].tolist(), state["buffer"].tolist(),
            state["buffer_pos"], state["has_uint32"], state["uinteger"])


DRAWS = (lambda g: g.standard_normal(7), lambda g: g.random(5),
         # three 32-bit draws leave half of a 64-bit word buffered
         lambda g: g.integers(0, 1000, size=3),
         lambda g: g.standard_normal(2), lambda g: g.integers(0, 2**40, 2),
         lambda g: g.integers(0, 10, size=5), lambda g: g.random(3))


@pytest.mark.parametrize("seed", [0, -5, 2**70 + 3, np.int64(-5),
                                  np.uint64(2**64 - 1)])
@pytest.mark.parametrize("index", [0, 2**64 - 1, rng.BOOTSTRAP_STREAM,
                                   np.uint64(2**64 - 1), np.int32(7)])
def test_stream_is_the_keyed_philox(seed, index):
    got, want = rng.rng_stream(seed, index), keyed_philox(seed, index)
    assert philox_state(got) == philox_state(want)
    for draw in DRAWS:
        assert draw(got).tobytes() == draw(want).tobytes()
        assert philox_state(got) == philox_state(want)


def test_pickled_stream_continues_the_same_draws():
    gen = rng.rng_stream(11, 3)
    gen.integers(0, 1000, size=3)  # leave a half-used 32-bit buffer
    copy = pickle.loads(pickle.dumps(gen))
    assert philox_state(copy) == philox_state(gen)
    for draw in DRAWS:
        assert draw(copy).tobytes() == draw(gen).tobytes()


def test_stream_has_no_spawnable_seed_sequence():
    with pytest.raises(TypeError):
        rng.rng_stream(1, 2).spawn(1)
