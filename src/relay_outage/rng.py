"""Deterministic random-stream management for Monte Carlo sampling.

Stream scheme (stable across releases of this package): the stream
addressed by ``(seed, path)`` is a PCG64 generator seeded with
``numpy.random.SeedSequence(seed, spawn_key=path)``.  Top-level path ids
are fixed per sampling domain (constants below); chunked samplers spawn
one child stream per chunk of ``CHUNK_SIZE`` draws, a fixed constant.
When the process may use two or more CPUs, a forked helper process runs
chunks from the back while the caller runs them from the front.  Each chunk
draws only from its own stream, so results depend only on
``(seed, path, n_samples)`` and never on how many CPUs there are or which
process ran a chunk.
"""
from __future__ import annotations

import contextlib
import functools
import mmap
import os
import pickle
import signal
import sys
from typing import Callable, Iterator, TypeVar

import numpy as np

# Domain ids for top-level substreams (part of the stream contract).
STREAM_HOP_MOMENTS = 0
STREAM_NETWORK_MC = 1
STREAM_DISTRIBUTION = 2
STREAM_VALIDATION = 3

# Draws per chunk; part of the determinism contract, do not change casually.
CHUNK_SIZE = 8192

# Bytes of the length that precedes each pickled result the helper sends.
_LENGTH_BYTES = 8

T = TypeVar("T")


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator addressed by ``(seed, path)``.

    Same ``(seed, path)`` always yields the same stream; distinct paths
    yield statistically independent streams.
    """
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=path))


def _use_helper(chunk_fn: Callable, n_chunks: int) -> bool:
    """Whether a forked helper process shares the ``n_chunks`` chunks.

    Only on Linux (``os.sched_getaffinity``), with two or more usable CPUs.
    A chunk function that wraps another (``functools.wraps`` sets
    ``__wrapped__``) runs every chunk in the calling process: wrappers are
    how call tracers and counters hook in, and their tallies live there.
    """
    if n_chunks < 2 or hasattr(chunk_fn, "__wrapped__"):
        return False
    return hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) >= 2


def run_chunks(
    n_total: int,
    rng: np.random.Generator,
    chunk_fn: Callable[[np.random.Generator, int], T],
    fold: Callable[[T, T], T] | None = None,
):
    """``chunk_fn(stream, count)`` of every chunk, in chunk order, or their ``fold``.

    ``n_total`` draws split into full chunks of ``CHUNK_SIZE`` plus one
    remainder chunk, each with its own child stream of ``rng``.  With a
    helper (``_use_helper``), the helper's results come back pickled, so
    they must be picklable, and a chunk's side effects stay in the process
    that ran it.  Given ``fold``, results are combined as they finish,
    which is out of chunk order, so ``fold`` must be associative and
    commutative (integer ``np.add``, say); only the running fold is kept.
    An exception in a chunk is raised here.
    """
    if n_total < 1:
        raise ValueError(f"need at least one draw, got {n_total}")
    n_full, rest = divmod(n_total, CHUNK_SIZE)
    sizes = [CHUNK_SIZE] * n_full + ([rest] if rest else [])
    chunks = list(zip(rng.spawn(len(sizes)), sizes))
    with contextlib.closing(_finished(chunk_fn, chunks)) as finished:
        if fold is not None:
            return functools.reduce(fold, (value for _, value in finished))
        results: list = [None] * len(chunks)
        for i, value in finished:
            results[i] = value
        return results


def _finished(chunk_fn: Callable, chunks: list) -> Iterator[tuple[int, object]]:
    """Each ``(index, chunk_fn(*chunk))`` once, in the order the chunks finish.

    With a helper, this process runs chunks 0, 1, ... and the helper runs
    chunks n - 1, n - 2, ..., sending each result as it finishes, until
    the two meet.  Two processes share no interpreter lock, and this one
    never waits for the helper: it reads what has arrived between chunks,
    so at the meeting point both may run a chunk, which is kept once.  The
    helper stops at the first chunk this process has started.  It exits on
    any error; this process then runs the chunks it did not send, so a
    failing chunk fails here.  The helper is killed once every chunk is in,
    or when this process stops early.
    """
    helper = None
    if _use_helper(chunk_fn, len(chunks)):
        # How many chunks this process has started; the helper reads it and
        # stops once it reaches them.  An aligned 8-byte store is not torn.
        started = memoryview(mmap.mmap(-1, 8)).cast("q")
        helper = _start_helper(chunk_fn, chunks, started)
    if helper is None:
        for i, chunk in enumerate(chunks):
            yield i, chunk_fn(*chunk)
        return
    pid, read_fd = helper
    try:
        inbox = bytearray()
        sent_from = len(chunks)  # the helper has sent chunks sent_from, ..., n - 1
        i = 0
        while i < sent_from:
            started[0] = i + 1
            yield i, chunk_fn(*chunks[i])
            i += 1
            for j, value in _received(read_fd, inbox):
                if j >= i:  # a chunk both ran is kept once
                    sent_from = j
                    yield j, value
    finally:
        os.close(read_fd)
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def _start_helper(chunk_fn: Callable, chunks: list, started) -> tuple[int, int] | None:
    """Fork the helper: its pid and the read end of its pipe, or None if the fork fails."""
    for stream in (sys.stdout, sys.stderr):  # the helper must not repeat buffered output
        if stream is not None:
            stream.flush()
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the caller runs every chunk
        os.close(read_fd)
        os.close(write_fd)
        return None
    if pid == 0:
        try:
            os.close(read_fd)
            _send_from_the_back(chunk_fn, chunks, started, write_fd)
        finally:
            os._exit(0)
    os.close(write_fd)
    os.set_blocking(read_fd, False)
    return pid, read_fd


def _send_from_the_back(chunk_fn: Callable, chunks: list, started, write_fd: int) -> None:
    """In the helper: run chunks last first, and send each ``(index, result)``.

    Stops at the first chunk the caller has started (``started[0]``).
    """
    with open(write_fd, "wb") as pipe:
        for j in range(len(chunks) - 1, -1, -1):
            if j < started[0]:
                return
            message = pickle.dumps((j, chunk_fn(*chunks[j])), pickle.HIGHEST_PROTOCOL)
            pipe.write(len(message).to_bytes(_LENGTH_BYTES, "little"))
            pipe.write(message)
            pipe.flush()


def _received(read_fd: int, inbox: bytearray) -> list[tuple[int, object]]:
    """The helper's results that have fully arrived, read without waiting."""
    while True:
        try:
            data = os.read(read_fd, 1 << 16)
        except BlockingIOError:
            break
        if not data:  # the helper has exited
            break
        inbox += data
    messages = []
    while len(inbox) >= _LENGTH_BYTES:
        end = _LENGTH_BYTES + int.from_bytes(inbox[:_LENGTH_BYTES], "little")
        if len(inbox) < end:
            break
        messages.append(pickle.loads(inbox[_LENGTH_BYTES:end]))
        del inbox[:end]
    return messages
