"""Wishart Gram forms of complex Gaussian channels, and their eigen-spectra.

Channel entries are i.i.d. circularly symmetric complex Gaussian with zero
mean and unit total variance (real and imaginary parts each have variance
1/2), so the mean squared magnitude of an entry is 1.  All sampling is a
pure function of the generator handed in; see :mod:`relay_outage.rng` for
the stream addressing scheme.

Every receive Gram form ``W = H H^+`` is drawn directly, by Bartlett's
decomposition (:func:`sample_gram`); no channel is ever drawn.  Those of at
most ``MAX_CLOSED_FORM_RX`` rows come back as their entries
(:class:`SmallGram`), whose spectra have a closed form; larger ones come
back as their factor ``L`` (``W = L L^+`` is never formed), whose spectra
the batched LAPACK eigensolver in ``descending_spectra`` takes from ``L^+ L``.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Eigenvalues of a PSD Gram matrix may come back slightly negative from
# the solver; anything above -PSD_RTOL * max(1, |lambda|_max) is clamped
# to zero, anything below is an error.
PSD_RTOL = 1e-8

_SQRT_HALF = np.sqrt(0.5)

# Largest receive dimension drawn as a closed-form Gram (SmallGram).
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

    def spectrum(self) -> np.ndarray:
        """Descending eigenvalues of ``W``, an ``(n, rows)`` array; all >= 0.

        The smaller of two is ``det / largest`` rather than a difference, so
        it keeps full relative precision when ``W`` is near singular.
        """
        half_gap = 0.5 * (self.a - self.d)
        largest = 0.5 * self.trace + np.sqrt(
            half_gap * half_gap + self.b_re * self.b_re + self.b_im * self.b_im
        )
        smallest = np.divide(
            self.det, largest, out=np.zeros_like(largest), where=largest > 0.0
        )
        return np.stack((largest, np.minimum(smallest, largest))[: self.rows], axis=-1)


def sample_gram(
    n: int, rows: int, cols: int, rng: np.random.Generator
) -> SmallGram | np.ndarray:
    """Receive Gram forms ``W = H H^+`` of ``n`` independent ``rows x cols`` channels.

    Bartlett's decomposition (Goodman, Ann. Math. Stat. 34, 1963) draws the
    ``rows x min(rows, cols)`` lower-trapezoidal LQ factor ``L`` of ``H``,
    with ``W = L L^+``: its below-diagonal entries are CN(0, 1) and its
    diagonal ones satisfy ``|L_ii|^2 ~ Gamma(cols - i)``, all independent.
    That is the law of ``H H^+`` for unit-power complex Gaussian ``H``, and
    no channel is drawn.  The draw order is fixed, row by row: the row's
    below-diagonal entries (a block of real parts, then one of imaginary
    parts), then, while ``i < cols``, its ``|L_ii|^2``.

    Up to ``MAX_CLOSED_FORM_RX`` rows the result is a :class:`SmallGram`.
    With ``g1 = |L00|^2``, ``z = L10`` and ``g2 = |L11|^2`` (exactly 0 at
    ``cols = 1``) it holds ``a = g1``, ``W[0, 1] = sqrt(g1) z``,
    ``d = |z|^2 + g2`` and ``det = g1 g2``, a product, so it is 0 at rank
    one and never cancels.  Above, it is the ``(n, rows, min(rows, cols))`` factor ``L``.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"channel dimensions must be positive, got {rows}x{cols}")
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    factor_rows = []
    for i in range(rows):
        below = rng.standard_normal((2, n, min(i, cols)))
        below *= _SQRT_HALF
        factor_rows.append((below, rng.standard_gamma(cols - i, n) if i < cols else 0.0))
    if rows == 1:
        return SmallGram(rows=1, a=factor_rows[0][1])
    if rows <= MAX_CLOSED_FORM_RX:
        (_, g1), (below, g2) = factor_rows
        z_re, z_im = below[0, :, 0], below[1, :, 0]
        root = np.sqrt(g1)
        return SmallGram(
            rows=2,
            a=g1,
            d=z_re * z_re + z_im * z_im + g2,
            b_re=root * z_re,
            b_im=root * z_im,
            det=g1 * g2,
        )
    factor = np.zeros((n, rows, min(rows, cols)), dtype=complex)
    for i, (below, square) in enumerate(factor_rows):
        factor[:, i, : below.shape[-1]].real = below[0]
        factor[:, i, : below.shape[-1]].imag = below[1]
        if i < cols:
            factor[:, i, i] = np.sqrt(square)
    return factor
