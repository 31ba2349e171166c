"""Complex Gaussian channel sampling and Wishart eigen-spectra.

Channel matrices are dense complex arrays whose entries are i.i.d.
circularly symmetric complex Gaussian with zero mean and unit total
variance (real and imaginary parts each have variance 1/2), so the mean
squared magnitude of an entry is 1.  All sampling is a pure function of
the generator handed in; see :mod:`relay_outage.rng` for the stream
addressing scheme.

Receive Gram forms of at most two rows have a closed form
(:class:`SmallGram`); larger ones go through ``receive_gram`` and the
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
    """Closed-form receive Gram ``W = H H^+`` of stacked channels with <= 2 rows.

    ``a`` and ``d`` are the diagonal entries, ``b_re`` and ``b_im`` the
    real and imaginary parts of ``W[0, 1]``, and ``det`` is ``det W``.  For
    single-row channels ``W`` is the scalar ``a`` and the other entries are
    the plain float ``0.0``, which broadcasts against the stacked arrays.
    """

    a: np.ndarray
    d: np.ndarray | float
    b_re: np.ndarray | float
    b_im: np.ndarray | float
    det: np.ndarray | float

    @classmethod
    def of(cls, h: np.ndarray) -> "SmallGram":
        """Gram entries of ``(n, rows, cols)`` channels, ``rows <= 2``.

        Entries come straight from the real and imaginary parts.  ``det``
        is the Cauchy-Binet sum of the squared 2x2 minors of ``H``, a sum
        of non-negative terms, so it never cancels below zero.
        """
        rows, cols = h.shape[-2:]
        if rows > MAX_CLOSED_FORM_RX:
            raise ValueError(
                f"closed-form Gram needs at most {MAX_CLOSED_FORM_RX} rows, got {rows}"
            )
        hr, hi = h.real, h.imag
        r0, i0 = hr[..., 0, :], hi[..., 0, :]
        if rows == 1:
            return cls(a=(r0 * r0 + i0 * i0).sum(axis=-1), d=0.0, b_re=0.0, b_im=0.0, det=0.0)
        r1, i1 = hr[..., 1, :], hi[..., 1, :]
        a = d = b_re = b_im = det = 0.0
        for j in range(cols):
            a = a + (r0[..., j] * r0[..., j] + i0[..., j] * i0[..., j])
            d = d + (r1[..., j] * r1[..., j] + i1[..., j] * i1[..., j])
            b_re = b_re + (r0[..., j] * r1[..., j] + i0[..., j] * i1[..., j])
            b_im = b_im + (i0[..., j] * r1[..., j] - r0[..., j] * i1[..., j])
            for k in range(j + 1, cols):
                # minor h0j h1k - h0k h1j
                m_re = (r0[..., j] * r1[..., k] - i0[..., j] * i1[..., k]
                        - r0[..., k] * r1[..., j] + i0[..., k] * i1[..., j])
                m_im = (r0[..., j] * i1[..., k] + i0[..., j] * r1[..., k]
                        - r0[..., k] * i1[..., j] - i0[..., k] * r1[..., j])
                det = det + (m_re * m_re + m_im * m_im)
        return cls(a=a, d=d, b_re=b_re, b_im=b_im, det=det)

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
        single-row channels the smaller one is 0.
        """
        half_gap = 0.5 * (self.a - self.d)
        largest = 0.5 * self.trace + np.sqrt(
            half_gap * half_gap + self.b_re * self.b_re + self.b_im * self.b_im
        )
        smallest = np.divide(
            self.det, largest, out=np.zeros_like(largest), where=largest > 0.0
        )
        return largest, np.minimum(smallest, largest)
