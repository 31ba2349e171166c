"""Wishart Gram forms of complex Gaussian channels, and their eigen-spectra.

Channel entries are i.i.d. circularly symmetric complex Gaussian with zero
mean and unit total variance (real and imaginary parts each have variance
1/2), so the mean squared magnitude of an entry is 1.  All sampling is a
pure function of the generator handed in; see :mod:`relay_outage.rng` for
the stream addressing scheme.

Receive Gram forms of at most two rows are drawn directly, entry by entry,
by Bartlett's decomposition (:meth:`SmallGram.sample`), and their spectra
have a closed form; no channel is drawn for them.  Larger ones draw the
channels (``sample_channels``), form ``receive_gram`` and go through the
batched LAPACK eigensolver in ``descending_spectra``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Eigenvalues of a PSD Gram matrix may come back slightly negative from
# the solver; anything above -PSD_RTOL * max(1, |lambda|_max) is clamped
# to zero, anything below is an error.
PSD_RTOL = 1e-8

_SQRT_HALF = np.sqrt(0.5)

# Largest receive dimension handled by the closed-form Gram (SmallGram).
MAX_CLOSED_FORM_RX = 2


@dataclass(frozen=True)
class WishartParams:
    """Order ``m`` and degrees of freedom ``p`` of a Gram-form sample.

    ``m`` is the smaller of the two channel dimensions, ``p`` the larger.
    """

    m: int
    p: int

    def __post_init__(self) -> None:
        if not (1 <= self.m <= self.p):
            raise ValueError(f"need p >= m >= 1, got m={self.m}, p={self.p}")

    @property
    def d(self) -> int:
        """Dimension surplus ``p - m``."""
        return self.p - self.m


def sample_channels(
    n: int, rows: int, cols: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n`` independent ``rows x cols`` channel matrices.

    Draw order is fixed: one block of real parts, then one block of
    imaginary parts, each of shape ``(n, rows, cols)``.  Both are drawn in
    one call and scaled straight into the complex result.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"channel dimensions must be positive, got {rows}x{cols}")
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    parts = rng.standard_normal((2, n, rows, cols))
    h = np.empty((n, rows, cols), dtype=complex)
    np.multiply(parts[0], _SQRT_HALF, out=h.real)
    np.multiply(parts[1], _SQRT_HALF, out=h.imag)
    return h


def receive_gram(h: np.ndarray) -> np.ndarray:
    """Receive-side Gram form ``H H^+`` (stacked matrices allowed).

    Always ``N x N`` for an ``N x M`` channel, regardless of which
    dimension is smaller; rank-deficient when ``N > M``.
    """
    h = np.asarray(h)
    return h @ np.conj(np.swapaxes(h, -1, -2))


def descending_spectra(ws: np.ndarray) -> np.ndarray:
    """Spectra of a stack of Hermitian PSD matrices, descending per matrix.

    The matrices must be Hermitian by construction (Gram forms); symmetry
    is not checked.  Round-off negatives within the PSD tolerance are
    clamped to zero; larger negatives raise ``ValueError``.
    """
    vals = np.linalg.eigvalsh(np.asarray(ws))
    scale = np.maximum(np.abs(vals).max(axis=-1), 1.0)
    tol = PSD_RTOL * scale
    worst = (vals.min(axis=-1) + tol).min()
    if worst < 0.0:
        raise ValueError(
            f"matrix is not positive semidefinite within tolerance "
            f"(eigenvalue undershoot {worst:.3e})"
        )
    return np.maximum(vals[..., ::-1], 0.0)


@dataclass(frozen=True)
class SmallGram:
    """Entries of stacked receive Gram forms ``W = H H^+`` with ``rows <= 2``.

    ``rows`` is 1 or 2.  ``a`` and ``d`` are the diagonal entries, ``b_re``
    and ``b_im`` the real and imaginary parts of ``W[0, 1]``, and ``det`` is
    ``det W``.  For one row ``W`` is the scalar ``a`` and the other entries
    are the plain float ``0.0``, which broadcasts against the stacked arrays.
    """

    rows: int
    a: np.ndarray
    d: np.ndarray | float = 0.0
    b_re: np.ndarray | float = 0.0
    b_im: np.ndarray | float = 0.0
    det: np.ndarray | float = 0.0

    @classmethod
    def sample(cls, n: int, rows: int, cols: int, rng: np.random.Generator) -> "SmallGram":
        """Draw the Gram forms of ``n`` independent ``rows x cols`` channels, ``rows <= 2``.

        Bartlett's decomposition ``W = L L^+`` (Goodman, Ann. Math. Stat.
        34, 1963) with ``|L00|^2 = g1 ~ Gamma(cols)``, ``L10 = z ~ CN(0, 1)``
        and ``|L11|^2 = g2 ~ Gamma(cols - 1)`` gives ``a = g1``,
        ``W[0, 1] = sqrt(g1) z``, ``d = |z|^2 + g2`` and ``det = g1 g2``, the
        law of ``H H^+`` for unit-power complex Gaussian ``H``.  The draw
        order is fixed: g1, then z (real part, then imaginary part), then g2,
        which is exactly 0 and not drawn at ``cols = 1``.  ``det`` is a
        product, so it is 0 at rank one and never cancels.  With one row, ``W``
        is the single ``Gamma(cols)`` draw.
        """
        if rows > MAX_CLOSED_FORM_RX:
            raise ValueError(
                f"closed-form Gram needs at most {MAX_CLOSED_FORM_RX} rows, got {rows}"
            )
        g1 = rng.standard_gamma(cols, n)
        if rows == 1:
            return cls(rows=1, a=g1)
        z = rng.standard_normal((2, n))
        z *= _SQRT_HALF
        g2 = rng.standard_gamma(cols - 1, n) if cols > 1 else 0.0
        root = np.sqrt(g1)
        return cls(
            rows=2,
            a=g1,
            d=z[0] * z[0] + z[1] * z[1] + g2,
            b_re=root * z[0],
            b_im=root * z[1],
            det=g1 * g2,
        )

    @property
    def trace(self) -> np.ndarray:
        return self.a + self.d

    def cross(self, other: "SmallGram") -> np.ndarray | float:
        """``tr(adj(other) W)``, the mixed term of ``det(x W + y other)``.

        Non-negative in exact arithmetic; round-off negatives are clamped.
        """
        value = (
            self.a * other.d
            + self.d * other.a
            - 2.0 * (self.b_re * other.b_re + self.b_im * other.b_im)
        )
        return np.maximum(value, 0.0)

    def spectrum(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues ``(largest, smallest)`` of ``W``; both >= 0.

        The smaller one is ``det / largest`` rather than a difference, so
        it keeps full relative precision when ``W`` is near singular.  For
        one row the smaller one is 0.
        """
        half_gap = 0.5 * (self.a - self.d)
        largest = 0.5 * self.trace + np.sqrt(
            half_gap * half_gap + self.b_re * self.b_re + self.b_im * self.b_im
        )
        smallest = np.divide(
            self.det, largest, out=np.zeros_like(largest), where=largest > 0.0
        )
        return largest, np.minimum(smallest, largest)
