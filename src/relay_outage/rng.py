"""Deterministic random-stream management for Monte Carlo sampling.

Stream scheme (stable across releases of this package): the stream
addressed by ``(seed, path)`` is a PCG64 generator seeded with
``numpy.random.SeedSequence(seed, spawn_key=path)``.  Top-level path ids
are fixed per sampling domain (constants below).  Every sampler uses one
layout, domain -> hop -> chunk: one child stream per hop, and from each
hop's, one per chunk of ``CHUNK_SIZE`` draws (a fixed constant) through
:func:`chunk_streams`.  Each chunk draws only from its own stream, so
results depend only on ``(seed, path, n_samples)``.
"""
from __future__ import annotations

from collections.abc import Iterator

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


def chunk_streams(
    n_total: int, rng: np.random.Generator
) -> Iterator[tuple[np.random.Generator, int]]:
    """The ``(stream, count)`` of every chunk of ``n_total`` draws, in chunk order.

    ``n_total`` draws split into full chunks of ``CHUNK_SIZE`` plus one
    remainder chunk, each with its own child stream of ``rng``, spawned
    when the loop reaches it: the keys of one up-front ``rng.spawn``, if
    nothing else spawns from ``rng`` meanwhile.
    """
    if n_total < 1:
        raise ValueError(f"need at least one draw, got {n_total}")
    return ((rng.spawn(1)[0], min(CHUNK_SIZE, n_total - i)) for i in range(0, n_total, CHUNK_SIZE))
