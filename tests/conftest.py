"""Shared test plumbing: collect acceptance verdicts and print them last,
and build dense Gram matrices from closed-form entries."""
import numpy as np

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


def dense_gram(gram):
    """The ``(n, rows, rows)`` Hermitian matrices whose entries a ``SmallGram`` holds."""
    n = len(gram.a)
    w = np.zeros((n, gram.rows, gram.rows), dtype=complex)
    w[:, 0, 0] = gram.a
    if gram.rows == 2:
        w[:, 1, 1] = gram.d
        w[:, 0, 1] = gram.b_re + 1j * gram.b_im
        w[:, 1, 0] = np.conj(w[:, 0, 1])
    return w
