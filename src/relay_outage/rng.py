"""Deterministic random-stream management for Monte Carlo sampling.

Stream scheme (stable across releases of this package): the stream
addressed by ``(seed, path)`` is a PCG64 generator seeded with
``numpy.random.SeedSequence(seed, spawn_key=path)``.  Top-level path ids
are fixed per sampling domain (constants below); chunked samplers spawn
one child stream per chunk of ``CHUNK_SIZE`` draws, a fixed constant.
Results therefore depend only on ``(seed, path, n_samples)`` and never on
how chunks are evaluated.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

# Domain ids for top-level substreams (part of the stream contract).
STREAM_HOP_MOMENTS = 0
STREAM_NETWORK_MC = 1
STREAM_DISTRIBUTION = 2
STREAM_VALIDATION = 3

# Draws per chunk; part of the determinism contract, do not change casually.
CHUNK_SIZE = 8192

def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator addressed by ``(seed, path)``.

    Same ``(seed, path)`` always yields the same stream; distinct paths
    yield statistically independent streams.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def run_chunks(
    n_total: int,
    rng: np.random.Generator,
    chunk_fn: Callable[[np.random.Generator, int], tuple[np.ndarray, ...]],
):
    """Evaluate ``chunk_fn(stream, count)`` over per-chunk substreams.

    ``n_total`` draws split into full chunks of ``CHUNK_SIZE`` plus one
    remainder chunk.  ``chunk_fn`` must return a tuple of 1-d arrays of
    length ``count``; the tuples are concatenated field-wise in chunk order.
    """
    if n_total < 1:
        raise ValueError(f"need at least one draw, got {n_total}")
    n_full, rest = divmod(n_total, CHUNK_SIZE)
    sizes = [CHUNK_SIZE] * n_full + ([rest] if rest else [])
    streams = rng.spawn(len(sizes))
    pieces = [chunk_fn(stream, size) for stream, size in zip(streams, sizes)]
    return tuple(np.concatenate(field) for field in zip(*pieces))
