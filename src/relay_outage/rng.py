"""Deterministic random-stream management for Monte Carlo sampling.

Stream scheme (stable across releases of this package): the stream
addressed by ``(seed, path)`` is a PCG64 generator seeded with
``numpy.random.SeedSequence(seed, spawn_key=path)``.  Top-level path ids
are fixed per sampling domain (constants below); chunked samplers spawn
one child stream per chunk of ``CHUNK_SIZE`` draws, a fixed constant.
Chunks run in order in the calling process, and each draws only from its
own stream, so results depend only on ``(seed, path, n_samples)``.
"""
from __future__ import annotations

import functools
from typing import Callable, TypeVar

import numpy as np

# Domain ids for top-level substreams (part of the stream contract).
STREAM_HOP_MOMENTS = 0
STREAM_NETWORK_MC = 1
STREAM_DISTRIBUTION = 2
STREAM_VALIDATION = 3

# Draws per chunk; part of the determinism contract, do not change casually.
CHUNK_SIZE = 8192

T = TypeVar("T")


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator addressed by ``(seed, path)``.

    Same ``(seed, path)`` always yields the same stream; distinct paths
    yield statistically independent streams.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def run_chunks(
    n_total: int,
    rng: np.random.Generator,
    chunk_fn: Callable[[np.random.Generator, int], T],
    fold: Callable[[T, T], T] | None = None,
):
    """``chunk_fn(stream, count)`` of every chunk, in chunk order, or their ``fold``.

    ``n_total`` draws split into full chunks of ``CHUNK_SIZE`` plus one
    remainder chunk, each with its own child stream of ``rng``.  Given
    ``fold``, results are folded in chunk order as they come, and only the
    running fold is kept.  An exception in a chunk propagates.
    """
    if n_total < 1:
        raise ValueError(f"need at least one draw, got {n_total}")
    n_full, rest = divmod(n_total, CHUNK_SIZE)
    sizes = [CHUNK_SIZE] * n_full + ([rest] if rest else [])
    results = (chunk_fn(stream, size) for stream, size in zip(rng.spawn(len(sizes)), sizes))
    return functools.reduce(fold, results) if fold is not None else list(results)
