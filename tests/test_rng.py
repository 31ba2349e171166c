import functools
import mmap
import operator
import os
import select
import time
import tracemalloc
import types

import numpy as np
import pytest

from relay_outage.mutual_info import EXACT, EXACT_MI, MIDPOINT, HopConfig, sample_hop_fields
from relay_outage.outage import DuplexMode, NetworkConfig, analytical_outage, montecarlo_outage
from relay_outage import rng
from relay_outage.rng import CHUNK_SIZE, run_chunks, substream

SEED = 606

# three full chunks and a short one
N_DRAWS = 3 * CHUNK_SIZE + 1234

RSI_CHAIN = NetworkConfig(
    hops=(
        HopConfig(tx_antennas=2, rx_antennas=2, snr_db=20.0, rsi_snr_db=8.0),
        HopConfig(tx_antennas=2, rx_antennas=2, snr_db=20.0, rsi_snr_db=8.0),
        HopConfig(tx_antennas=2, rx_antennas=2, snr_db=20.0),
    ),
    mode=DuplexMode.FULL_DUPLEX,
)


@pytest.fixture()
def cpus(monkeypatch):
    """Set how many CPUs the process may use."""

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return use


def _outputs():
    rates = np.arange(0.0, 14.01, 0.25)
    return (
        *montecarlo_outage(RSI_CHAIN, rates, substream(SEED, 1), N_DRAWS),
        analytical_outage(RSI_CHAIN, rates, substream(SEED, 0), N_DRAWS),
        *sample_hop_fields(RSI_CHAIN.hops[0], N_DRAWS, substream(SEED, 2), (EXACT, MIDPOINT, EXACT_MI)),
    )


def test_outputs_do_not_depend_on_cpu_count(cpus):
    cpus(1)
    serial = _outputs()
    cpus(2)
    shared = _outputs()
    assert all(np.array_equal(a, b) for a, b in zip(serial, shared))


def _assert_no_child_processes():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _recorder():
    """A chunk function that reports its count, a draw and its process.

    Each chunk in the calling process waits until the helper has started
    one more chunk, so the caller runs the first chunk and the helper the
    last: the helper sends a result before it starts its next chunk.
    """
    caller = os.getpid()
    started, starting = os.pipe()

    def chunk(stream, count):
        if os.getpid() == caller:
            assert select.select([started], [], [], 10.0)[0], "no helper ran a chunk"
            os.read(started, 1)
        else:
            os.write(starting, b"x")
        return count, int(stream.integers(2**62)), os.getpid()

    return chunk


def test_run_chunks_shares_chunks_with_a_helper_in_chunk_order(cpus):
    cpus(2)
    results = run_chunks(N_DRAWS, substream(SEED, 3), _recorder())
    assert [count for count, _, _ in results] == [CHUNK_SIZE] * 3 + [1234]
    serial = [int(s.integers(2**62)) for s in substream(SEED, 3).spawn(4)]
    assert [draw for _, draw, _ in results] == serial
    pids = [pid for _, _, pid in results]
    assert pids[0] == os.getpid() and pids[-1] != os.getpid()  # caller from the front
    assert len(set(pids)) == 2
    _assert_no_child_processes()  # the helper is gone


def _pids(results):
    return {pid for _, pid in results}


def _count_and_pid(stream, count):
    return count, os.getpid()


def test_one_cpu_runs_every_chunk_in_the_caller(cpus):
    cpus(1)
    assert _pids(run_chunks(N_DRAWS, substream(SEED, 3), _count_and_pid)) == {os.getpid()}


def test_failed_fork_runs_every_chunk_in_the_caller(cpus, monkeypatch):
    cpus(2)

    def no_fork():
        raise BlockingIOError("no process to spare")

    monkeypatch.setattr(os, "fork", no_fork)
    results = run_chunks(N_DRAWS, substream(SEED, 3), _count_and_pid)
    assert results == [(CHUNK_SIZE, os.getpid())] * 3 + [(1234, os.getpid())]


def test_wrapped_chunk_function_runs_in_the_calling_process(cpus):
    # a tracer's wrapper counts in this process, so its chunks are not shared out
    cpus(4)

    @functools.wraps(_count_and_pid)
    def traced(stream, count):
        return _count_and_pid(stream, count)

    results = run_chunks(N_DRAWS, substream(SEED, 3), traced)
    assert _pids(results) == {os.getpid()}


def test_single_chunk_starts_no_helper(cpus):
    cpus(4)
    results = run_chunks(100, substream(SEED, 4), _count_and_pid)
    assert results == [(100, os.getpid())]


def test_fold_counts_every_chunk_once(cpus):
    # both processes may run the chunk where they meet; it is folded once
    cpus(2)
    for n_chunks in (2, 3, 40):
        total = run_chunks(n_chunks * CHUNK_SIZE, substream(SEED, 9), lambda s, c: c, operator.add)
        assert total == n_chunks * CHUNK_SIZE
    _assert_no_child_processes()


def _helper_runs(n_chunks):
    """A chunk function that returns 1, and the pipe end the helper's chunks tick.

    Each chunk in the caller waits until the helper has run ``n_chunks``
    chunks, then lets the last result reach the pipe.
    """
    caller = os.getpid()
    ran, running = os.pipe()

    def chunk(stream, count):
        if os.getpid() == caller:
            for _ in range(n_chunks):
                assert select.select([ran], [], [], 10.0)[0], "the helper stopped"
                os.read(ran, 1)
            time.sleep(0.1)
        else:
            os.write(running, b"x")
        return 1

    return chunk, ran


def test_helper_stops_at_the_chunks_the_caller_has_started(cpus):
    # the caller's first chunk outlasts the helper's other three; the
    # helper then finds chunk 0 started and runs no fourth chunk
    cpus(2)
    chunk, ran = _helper_runs(3)
    assert run_chunks(4 * CHUNK_SIZE, substream(SEED, 9), chunk, operator.add) == 4
    assert not select.select([ran], [], [], 0.0)[0]
    _assert_no_child_processes()


def test_chunk_run_by_both_processes_is_kept_once(cpus, monkeypatch):
    # with the caller's progress private to it, the helper runs every chunk
    # while the caller runs its first; the caller then receives a result for
    # the chunk it has run too, and counts that chunk once
    cpus(2)
    private = types.SimpleNamespace(mmap=lambda fd, size: mmap.mmap(fd, size, flags=mmap.MAP_PRIVATE))
    monkeypatch.setattr(rng, "mmap", private)
    chunk, _ = _helper_runs(4)
    assert run_chunks(4 * CHUNK_SIZE, substream(SEED, 9), chunk, operator.add) == 4
    _assert_no_child_processes()


def test_chunk_that_fails_in_the_helper_is_rerun_in_the_caller(cpus):
    # the helper fails on its first chunk, the last, and exits; the caller
    # runs every chunk itself
    cpus(2)
    caller = os.getpid()
    failed, failing = os.pipe()

    def chunk(stream, count):
        if os.getpid() != caller:
            os.write(failing, b"x")
            raise FloatingPointError("chunk failed in the helper")
        assert select.select([failed], [], [], 10.0)[0], "no helper ran a chunk"
        return count, int(stream.integers(2**62))

    results = run_chunks(N_DRAWS, substream(SEED, 5), chunk)
    assert [r[1] for r in results] == [int(s.integers(2**62)) for s in substream(SEED, 5).spawn(4)]
    _assert_no_child_processes()


def test_failing_chunk_raises_in_the_caller(cpus):
    # the short last chunk fails: the helper meets it first and exits, and
    # the caller raises the error when it reaches that chunk
    cpus(2)

    def chunk(stream, count):
        if count != CHUNK_SIZE:
            raise FloatingPointError("short chunk failed")
        return count

    with pytest.raises(FloatingPointError, match="short chunk"):
        run_chunks(N_DRAWS, substream(SEED, 5), chunk)
    _assert_no_child_processes()


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_montecarlo_memory_does_not_grow_with_realizations(cpus):
    # each running chunk counts its own outages and drops its samples, so the
    # peak stays flat from 10^5 to 10^6 (tracemalloc sees this process only,
    # so the test runs every chunk here)
    cpus(1)
    cfg = NetworkConfig(hops=(HopConfig(2, 2, 20.0),), mode=DuplexMode.FULL_DUPLEX)
    rates = np.arange(0.0, 14.01, 0.05)

    def peak(n):
        return _peak_bytes(lambda: montecarlo_outage(cfg, rates, substream(SEED, 6), n))

    peak(1000)  # one-time allocations (caches, lazy imports) stay out of both
    small, large = peak(100_000), peak(1_000_000)
    assert large <= 1.25 * small, (small, large)
