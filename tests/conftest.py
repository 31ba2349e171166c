"""Shared test plumbing: collect acceptance verdicts and print them last,
name the hop shapes of the law tests, form dense Gram matrices from
closed-form entries or factors and take their log-dets, the reference
route for the hop kernel, draw channels, the reference route for the
Bartlett draw, name the numpy version that pinned bytes hold on, and trace
a call's peak heap."""
import math
import tracemalloc

import numpy as np

ACCEPTANCE_LINES: list[str] = []

# Hop shapes (rx, tx, interferer tx) of the law tests: square, rank-one
# (rx > tx), wide, and one-row links, and three rows with a tall desired
# and a wide interference link
LAW_CASES = ((1, 1, 1), (2, 2, 2), (2, 1, 3), (2, 4, 2), (1, 3, 2), (3, 2, 4))

# Pinned sha256 digests of drawn bytes hold on this numpy version; elsewhere
# their tests skip.
PINNED_NUMPY = "2.4.6"


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def dense_gram(gram):
    """The ``(n, rows, rows)`` Hermitian matrices that a ``SmallGram``'s
    entries or a stacked factor ``L`` (``W = L L^+``) describe.  A
    ``SmallGram`` keeps no phase of ``W[0, 1]``; it is taken as real,
    ``sqrt(b_sq)``."""
    if isinstance(gram, np.ndarray):
        return gram @ np.conj(np.swapaxes(gram, -1, -2))
    n = len(gram.a)
    w = np.zeros((n, gram.rows, gram.rows), dtype=complex)
    w[:, 0, 0] = gram.a
    if gram.rows == 2:
        w[:, 1, 1] = gram.d
        w[:, 0, 1] = w[:, 1, 0] = np.sqrt(gram.b_sq)
    return w


def logdet2_psd(a):
    """``log2 det(A)`` of stacked Hermitian positive definite ``A``, from the
    Cholesky factor of the formed matrix."""
    diag = np.diagonal(np.linalg.cholesky(a), axis1=-2, axis2=-1).real
    return 2.0 * np.log(diag).sum(axis=-1) / math.log(2.0)


def traced_peak(call):
    """Peak bytes that ``tracemalloc`` sees allocated during ``call()``."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def draw_channels(n, rows, cols, rng):
    """``n`` unit-power complex Gaussian ``rows x cols`` channels: a block of
    real parts, then one of imaginary parts."""
    parts = np.sqrt(0.5) * rng.standard_normal((2, n, rows, cols))
    return parts[0] + 1j * parts[1]


def channel_grams(n, rows, cols, rng):
    """Receive Gram forms ``H H^+`` of ``n`` drawn channels, as dense arrays."""
    return dense_gram(draw_channels(n, rows, cols, rng))
