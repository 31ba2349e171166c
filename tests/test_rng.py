import operator
import os
import tracemalloc

import numpy as np
import pytest

from relay_outage.mutual_info import HopConfig
from relay_outage.outage import DuplexMode, NetworkConfig, montecarlo_outage
from relay_outage.rng import CHUNK_SIZE, run_chunks, substream

SEED = 606

# three full chunks and a short one
N_DRAWS = 3 * CHUNK_SIZE + 1234


def _count_draw_and_pid(stream, count):
    return count, int(stream.integers(2**62)), os.getpid()


def test_run_chunks_runs_every_chunk_in_order_in_the_caller():
    results = run_chunks(N_DRAWS, substream(SEED, 3), _count_draw_and_pid)
    assert [count for count, _, _ in results] == [CHUNK_SIZE] * 3 + [1234]
    serial = [int(s.integers(2**62)) for s in substream(SEED, 3).spawn(4)]
    assert [draw for _, draw, _ in results] == serial
    assert {pid for _, _, pid in results} == {os.getpid()}
    with pytest.raises(ChildProcessError):  # no process was started
        os.waitpid(-1, os.WNOHANG)


def test_fold_counts_every_chunk_once():
    for n_chunks in (1, 2, 3, 40):
        total = run_chunks(n_chunks * CHUNK_SIZE, substream(SEED, 9), lambda s, c: c, operator.add)
        assert total == n_chunks * CHUNK_SIZE


def test_failing_chunk_raises_in_the_caller():
    # the short last chunk fails, after the full chunks before it have run
    ran = []

    def chunk(stream, count):
        if count != CHUNK_SIZE:
            raise FloatingPointError("short chunk failed")
        ran.append(count)
        return count

    with pytest.raises(FloatingPointError, match="short chunk"):
        run_chunks(N_DRAWS, substream(SEED, 5), chunk)
    assert ran == [CHUNK_SIZE] * 3


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_montecarlo_memory_does_not_grow_with_realizations():
    # each chunk counts its own outages and drops its samples, so the peak
    # stays flat from 10^5 to 10^6
    cfg = NetworkConfig(hops=(HopConfig(2, 2, 20.0),), mode=DuplexMode.FULL_DUPLEX)
    rates = np.arange(0.0, 14.01, 0.05)

    def peak(n):
        return _peak_bytes(lambda: montecarlo_outage(cfg, rates, substream(SEED, 6), n))

    peak(1000)  # one-time allocations (caches, lazy imports) stay out of both
    small, large = peak(100_000), peak(1_000_000)
    assert large <= 1.25 * small, (small, large)
