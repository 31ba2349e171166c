"""Wishart Gram forms of complex Gaussian channels, and their eigen-spectra.

Channel entries are i.i.d. circularly symmetric complex Gaussian with zero
mean and unit total variance (real and imaginary parts each have variance
1/2), so the mean squared magnitude of an entry is 1.  All sampling is a
pure function of the generator handed in; see :mod:`relay_outage.rng` for
the stream addressing scheme.

Every receive Gram form ``W = H H^+`` is drawn directly, by Bartlett's
decomposition (:func:`sample_gram`); no channel is ever drawn.  Those of at
most ``MAX_CLOSED_FORM_RX`` rows come back as their entries
(:class:`SmallGram`), whose spectra have a closed form (one array per
rank), drawn from unit exponentials alone: no phase is drawn, since no hop
field depends on one, and integer Gamma shapes up to 3 are sums of
exponentials.  Larger ones come back as their factor ``L`` (``W = L L^+`` is
never formed), whose spectra the batched LAPACK eigensolver in
``descending_spectra`` takes from ``L^+ L``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Eigenvalues of a PSD Gram matrix may come back slightly negative from
# the solver; anything above -PSD_RTOL * max(1, |lambda|_max) is clamped
# to zero, anything below is an error.
PSD_RTOL = 1e-8

_SQRT_HALF = np.sqrt(0.5)

# Largest receive dimension drawn as a closed-form Gram (SmallGram).
MAX_CLOSED_FORM_RX = 2

# Largest integer Gamma shape drawn as a sum of unit exponentials, the
# measured crossover: per 8192 draws (numpy 2.4.6, PCG64, 2-vCPU x86-64) the
# sum took 104, 163 and 245 us at shapes 2, 3 and 4, standard_gamma 212, 228
# and 224 us (medians of 40 paired rounds, BENCH_exponential_draw.json).
_EXPONENTIAL_SUM_MAX_SHAPE = 3


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


def _gamma(k: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` draws of ``Gamma(k)`` for an integer shape ``k >= 1``.

    Up to ``_EXPONENTIAL_SUM_MAX_SHAPE`` the draw is the sum of ``k`` unit
    exponentials (one ``(k, n)`` block), which numpy draws faster than its
    ``standard_gamma`` at those shapes; above it, ``standard_gamma``.
    """
    if k <= _EXPONENTIAL_SUM_MAX_SHAPE:
        return rng.standard_exponential((k, n)).sum(axis=0)
    return rng.standard_gamma(k, n)


@dataclass(frozen=True)
class SmallGram:
    """Entries of stacked receive Gram forms ``W`` with ``rows <= 2``.

    ``rows`` is 1 or 2.  ``a`` and ``d`` are the diagonal entries,
    ``b_sq = |W[0, 1]|^2`` and ``det = det W = a d - b_sq``.  For one row
    ``W`` is the scalar ``a`` and the other entries are the plain float
    ``0.0``, which broadcasts against the stacked arrays.

    The phase of ``W[0, 1]`` is not kept: no hop field depends on it.  A
    desired link's entries are those of ``V^+ W V`` in the eigenframe
    ``Wbar = V diag(spectrum) V^+`` of its interference form (see
    :func:`sample_gram`), where the mixed term of the hop's determinant
    reads only the diagonal ``a``, ``d``.
    """

    rows: int
    a: np.ndarray
    d: np.ndarray | float = 0.0
    b_sq: np.ndarray | float = 0.0
    det: np.ndarray | float = 0.0

    @property
    def trace(self) -> np.ndarray:
        return self.a + self.d

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, ...]:
        """Descending eigenvalues of ``W``, one length-``n`` array per rank; all >= 0.

        The ``(largest, smallest)`` pair for two rows, ``(largest,)`` for
        one, where it is ``W`` itself.  The smaller of two is ``det / largest``
        rather than a difference, so it keeps full relative precision when
        ``W`` is near singular.  Computed on first read, then kept.
        """
        if self.rows == 1:
            return (self.a,)
        half_gap = 0.5 * (self.a - self.d)
        largest = 0.5 * self.trace + np.sqrt(half_gap * half_gap + self.b_sq)
        smallest = np.divide(
            self.det, largest, out=np.zeros_like(largest), where=largest > 0.0
        )
        return largest, np.minimum(smallest, largest)


def sample_gram(
    n: int, rows: int, cols: int, rng: np.random.Generator
) -> SmallGram | np.ndarray:
    """Receive Gram forms ``W = H H^+`` of ``n`` independent ``rows x cols`` channels.

    Bartlett's decomposition (Goodman, Ann. Math. Stat. 34, 1963) draws the
    ``rows x min(rows, cols)`` lower-trapezoidal LQ factor ``L`` of ``H``,
    with ``W = L L^+``: its below-diagonal entries are CN(0, 1) and its
    diagonal ones satisfy ``|L_ii|^2 ~ Gamma(cols - i)``, all independent.
    That is the law of ``H H^+`` for unit-power complex Gaussian ``H``, and
    no channel is drawn.

    Up to ``MAX_CLOSED_FORM_RX`` rows the result is a :class:`SmallGram`,
    drawn as ``g1 = |L00|^2 ~ Gamma(cols)``, then ``|z|^2 ~ Exp(1)`` for
    ``z = L10``, then ``g2 = |L11|^2 ~ Gamma(cols - 1)`` (exactly 0 at
    ``cols = 1``), every one a unit exponential or a sum of them
    (:func:`_gamma`).  It holds ``a = g1``, ``b_sq = |W[0, 1]|^2 =
    g1 |z|^2``, ``d = |z|^2 + g2`` and ``det = g1 g2``, a product, so it is
    0 at rank one and never cancels.  The law of ``W`` is unitarily
    invariant, so the same entries are also those of ``V^+ W V`` for any
    unitary ``V`` drawn independently of them, such as the eigenvectors of
    an interference form.  Above, the result is the
    ``(n, rows, min(rows, cols))`` factor ``L``, drawn row by row: the
    row's below-diagonal entries (a block of real parts, then one of
    imaginary parts), then, while ``i < cols``, its ``|L_ii|^2``.
    """
    if rows < 1 or cols < 1:
        raise ValueError(f"channel dimensions must be positive, got {rows}x{cols}")
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    if rows <= MAX_CLOSED_FORM_RX:
        g1 = _gamma(cols, n, rng)
        if rows == 1:
            return SmallGram(rows=1, a=g1)
        z_sq = rng.standard_exponential(n)
        g2 = _gamma(cols - 1, n, rng) if cols > 1 else 0.0
        return SmallGram(rows=2, a=g1, d=z_sq + g2, b_sq=g1 * z_sq, det=g1 * g2)
    factor = np.zeros((n, rows, min(rows, cols)), dtype=complex)
    for i in range(rows):
        below = rng.standard_normal((2, n, min(i, cols)))
        below *= _SQRT_HALF
        factor[:, i, : below.shape[-1]].real = below[0]
        factor[:, i, : below.shape[-1]].imag = below[1]
        if i < cols:
            factor[:, i, i] = np.sqrt(_gamma(cols - i, n, rng))
    return factor
