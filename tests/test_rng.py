import numpy as np
import pytest

from conftest import traced_peak

from relay_outage.mutual_info import HopConfig
from relay_outage.outage import DuplexMode, NetworkConfig, montecarlo_outage
from relay_outage.rng import CHUNK_SIZE, chunk_streams, substream

SEED = 606

# three full chunks and a short one
N_DRAWS = 3 * CHUNK_SIZE + 1234


def test_chunk_streams_are_the_spawned_children_in_order():
    chunks = list(chunk_streams(N_DRAWS, substream(SEED, 3)))
    assert [count for _, count in chunks] == [CHUNK_SIZE] * 3 + [1234]
    draws = [int(stream.integers(2**62)) for stream, _ in chunks]
    assert draws == [int(s.integers(2**62)) for s in substream(SEED, 3).spawn(4)]


def test_chunk_counts_add_up_to_the_total():
    for n_chunks in (1, 2, 3, 40):
        for n_total in (n_chunks * CHUNK_SIZE, (n_chunks - 1) * CHUNK_SIZE + 7):
            chunks = list(chunk_streams(n_total, substream(SEED, 9)))
            assert len(chunks) == n_chunks
            assert sum(count for _, count in chunks) == n_total


def test_no_draws_raise():
    with pytest.raises(ValueError, match="at least one draw"):
        chunk_streams(0, substream(SEED, 5))


def test_chunk_streams_spawn_as_the_loop_reaches_them():
    # 10^8 draws are 12 208 chunks; spawning every chunk's generator up
    # front held about 11 MB before the first draw, while spawning each as
    # it is reached holds one
    def first_two():
        chunks = chunk_streams(10**8, substream(SEED, 7))
        next(chunks), next(chunks)

    first_two()  # one-time allocations stay out of the measurement
    assert traced_peak(first_two) < 2**20


def test_montecarlo_memory_does_not_grow_with_realizations():
    # each chunk counts its own outages and drops its samples, so the peak
    # stays flat from 10^5 to 10^6
    cfg = NetworkConfig(hops=(HopConfig(2, 2, 20.0),), mode=DuplexMode.FULL_DUPLEX)
    rates = np.arange(0.0, 14.01, 0.05)

    def peak(n):
        return traced_peak(lambda: montecarlo_outage(cfg, rates, substream(SEED, 6), n))

    peak(1000)  # one-time allocations (caches, lazy imports) stay out of both
    small, large = peak(100_000), peak(1_000_000)
    assert large <= 1.25 * small, (small, large)
