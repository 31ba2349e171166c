"""Analytic eigenvalue statistics of uncorrelated central Wishart matrices.

Each law is named by its channel's ``(rows, cols)``, as ``sample_gram``
draws it, and is symmetric in them.  The single-eigenvalue marginal density
is expressed through orthonormal generalized Laguerre functions for the
weight ``x^d e^-x``, ``m = min(rows, cols)`` and ``d = |rows - cols|``:

    f(x) = (1/m) * sum_{i=0}^{m-1} [i!/(i+d)!] (L_i^d(x))^2 x^d e^-x

Expectations under it come from one fixed Gauss-Legendre rule
(``QUADRATURE_NODES`` nodes, numpy only) in the variable ``t = sqrt(x)``;
the validation module maps the same rule onto the normal tail.  These
quadratures are the analytical cross-check on sampled log-det moments
(``relay-outage validate``).

The same rule, at ``PAIR_NODES`` nodes, carries the unordered eigenvalue
law of a Gram form of at most two rows (:func:`eigen_weights`), for two
rows the pair density of James (Ann. Math. Stat. 35, 1964)

    f(a1, a2) = (a1 - a2)^2 (a1 a2)^(cols-2) e^(-a1-a2) / (2 (cols-1)! (cols-2)!),

from which :func:`quadrature_hop_moments` computes, without sampling, the
hop moments that feed the Gaussian closed form wherever it converges.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .mutual_info import LN2, HopConfig, HopMoments, pair_gain

# Absolute quadrature tolerance for expectations, in bits.
QUAD_ABS_TOL = 1e-6
# The integration interval is cut where the weight x^(rows+cols) e^-x
# drops below this level.
WEIGHT_FLOOR = 1e-12
# Gauss-Legendre nodes per integral; the error estimate is the gap to the
# rule with half as many.
QUADRATURE_NODES = 256
# Nodes of the eigenvalue rule behind the quadrature hop moments; their
# error estimate is the gap to the rule with twice as many.
PAIR_NODES = 64
# Largest receive dimension whose hop moments have the quadrature form: up
# to two rows the pairing midpoint is the mean over all eigenvalue pairs.
MAX_QUADRATURE_RX = 2
# Largest error estimate accepted for quadrature hop moments: in standard
# deviations for the mean, relative for the variance.  It is 1/sqrt(10^8),
# the standard error, in the same units, of a mean sampled at the largest
# draw count a run admits, so no hop trades sampling for a less accurate
# quadrature; the Gaussian curve then moves by at most
# (phi(0) + phi(1)/2) * MOMENT_RTOL ~ 5e-5 per hop.
MOMENT_RTOL = 1e-4


@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n``-point Gauss-Legendre nodes and weights on ``[-1, 1]``, by Newton's method.

    numpy's ``leggauss`` agrees to 2e-16 but calls a threaded LAPACK solver,
    which stalled for up to 0.5 s per process on a 2-vCPU machine.  The CLI
    runs BLAS on one thread; library callers keep numpy's pool, and this
    rule still spares them the stall.
    """
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(100):
        p0, p1 = np.ones_like(x), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        slope = n * (x * p1 - p0) / (x * x - 1.0)
        step = p1 / slope
        x = x - step
        if np.abs(step).max() < 1e-15:
            break
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


def gauss_legendre(fn, a: float, b: float) -> tuple[float, float]:
    """Integral of the vectorised ``fn`` over ``[a, b]`` and its error estimate."""
    half = 0.5 * (b - a)
    value, coarse = (
        half * float(weights @ fn(a + half * (nodes + 1.0)))
        for nodes, weights in map(_legendre_rule, (QUADRATURE_NODES, QUADRATURE_NODES // 2))
    )
    return value, abs(value - coarse)


def laguerre(order: int, d: int, x):
    """Generalized Laguerre polynomial ``L_order^d`` via the three-term recurrence.

    Parameters
    ----------
    order : int
        Polynomial degree, >= 0.
    d : int
        Weight exponent (non-negative integer for Wishart spectra).
    x : float or array_like
        Evaluation points, all >= 0.

    Returns
    -------
    float or ndarray
        ``L_order^d(x)``, same shape as ``x``.
    """
    if order < 0:
        raise ValueError(f"polynomial order must be >= 0, got {order}")
    if d < 0:
        raise ValueError(f"weight exponent must be >= 0, got {d}")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0.0):
        raise ValueError("Laguerre arguments must be non-negative")
    prev = np.ones_like(x)
    if order == 0:
        return prev if prev.ndim else float(prev)
    cur = 1.0 + d - x
    for k in range(1, order):
        prev, cur = cur, ((2 * k + 1 + d - x) * cur - (k + d) * prev) / (k + 1)
    return cur if cur.ndim else float(cur)


def _order(rows: int, cols: int) -> tuple[int, int]:
    """Laguerre order ``m = min(rows, cols)`` and surplus ``d = |rows - cols|``
    of the Gram-form law of a ``rows x cols`` channel."""
    if rows < 1 or cols < 1:
        raise ValueError(f"channel dimensions must be positive, got {rows}x{cols}")
    return min(rows, cols), abs(rows - cols)


def marginal_eigen_density(rows: int, cols: int, lam):
    """Marginal density of one (unordered) nonzero eigenvalue of a ``rows x cols`` channel.

    Non-negative and normalized to unit mass on ``[0, inf)``.
    """
    m, d = _order(rows, cols)
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0.0):
        raise ValueError("eigenvalue arguments must be non-negative")
    total = np.zeros_like(lam)
    for i in range(m):
        total += laguerre(i, d, lam) ** 2 / math.perm(i + d, d)  # i!/(i+d)!
    dens = total * lam**d * np.exp(-lam) / m
    return dens if dens.ndim else float(dens)


def integration_cutoff(rows: int, cols: int) -> float:
    """Upper integration limit: where ``x^(rows+cols) e^-x`` falls below WEIGHT_FLOOR."""
    m, d = _order(rows, cols)
    k = 2 * m + d
    target = -math.log(WEIGHT_FLOOR)
    x = target + k
    for _ in range(100):
        nxt = target + k * math.log(x)
        if abs(nxt - x) < 1e-9:
            break
        x = nxt
    return x


def eigen_expectation(rows: int, cols: int, fn) -> tuple[float, float]:
    """``integral fn(x) f(x) dx`` over ``[0, integration_cutoff]``, and its error estimate.

    By ``gauss_legendre`` in ``t = sqrt(x)`` (``dx = 2t dt``), where the
    log-det singularity at ``x = -1/scale`` moves far enough from the
    interval for the rule to converge up to ``scale ~ 1e6``.
    """
    return gauss_legendre(
        lambda t: 2.0 * t * fn(t * t) * marginal_eigen_density(rows, cols, t * t),
        0.0, math.sqrt(integration_cutoff(rows, cols)),
    )


def expected_logdet(rows: int, cols: int, scale: float) -> float:
    """Mean of ``log2 det(I + scale * H H^+)`` over ``rows x cols`` channels ``H``.

    Evaluated as ``m * integral log2(1 + scale x) f(x) dx`` by
    ``eigen_expectation``, accurate to ``QUAD_ABS_TOL`` bits.
    """
    m, _ = _order(rows, cols)
    if scale < 0.0:
        raise ValueError(f"scale must be non-negative, got {scale}")
    value, err = eigen_expectation(rows, cols, lambda lam: np.log1p(scale * lam) / LN2)
    if m * err > QUAD_ABS_TOL:
        raise ArithmeticError(
            f"quadrature error estimate {m * err:.2e} bits exceeds "
            f"tolerance {QUAD_ABS_TOL}"
        )
    return m * value


def eigen_grid(rows: int, cols: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Points and weights of the ``n``-node rule for the eigenvalues of a ``rows x cols`` channel.

    The Gauss-Legendre nodes in ``t = sqrt(x)`` on
    ``[0, sqrt(integration_cutoff)]``, as points ``x`` with weights for
    ``dx``, after the point ``x = 0`` of weight 0, which carries the zero
    eigenvalues of rank-deficient and interference-free links.
    """
    nodes, weights = _legendre_rule(n)
    half = 0.5 * math.sqrt(integration_cutoff(rows, cols))
    t = half * (nodes + 1.0)
    return (
        np.concatenate(([0.0], t * t)),
        np.concatenate(([0.0], 2.0 * half * weights * t)),  # dx = 2t dt
    )


@functools.cache
def eigen_weights(rows: int, cols: int, n: int = PAIR_NODES) -> tuple[np.ndarray, np.ndarray]:
    """Unordered eigenvalue law of the ``rows x rows`` Gram form of a ``rows x cols`` channel.

    Returns the points ``x`` of ``eigen_grid`` and the law's weights on
    them: for one row a vector (``Gamma(cols)``), for two rows the
    symmetric matrix of the unordered pair ``(a1, a2)``, whose row sums are
    the law of one eigenvalue.  A rank-one two-row form (``cols = 1``) puts
    its pairs on ``(0, a)`` and ``(a, 0)``, half each.  Both sum to 1 up to
    the rule's error.  Read-only and cached.
    """
    if rows not in (1, MAX_QUADRATURE_RX):
        raise ValueError(f"eigenvalue weights need 1 or 2 rows, got {rows}")
    m, d = _order(rows, cols)
    x, w = eigen_grid(rows, cols, n)
    if m == 1:
        single = w * (1.0 / math.factorial(d) * x**d * np.exp(-x))  # Gamma(d + 1)
        if rows == 1:
            law = single
        else:
            law = np.zeros((x.size, x.size))
            law[0, :] = law[:, 0] = 0.5 * single
    else:
        g = w * x**d * np.exp(-x)
        law = np.subtract.outer(x, x) ** 2 * np.outer(g, g)
        law /= 2.0 * math.factorial(d + 1) * math.factorial(d)
    x.flags.writeable = law.flags.writeable = False
    return x, law


def _hop_moments_on_grid(hop: HopConfig, n: int) -> tuple[float, float]:
    """Mean and variance of ``X = (1/r) sum_ij G(alpha_i, beta_j)`` under the ``n``-node law.

    ``G`` is :func:`~relay_outage.mutual_info.pair_gain` over the ``r``
    eigenvalues ``alpha`` of the interference and ``beta`` of the desired
    Gram form; for ``r <= 2`` that is exactly ``APPROX_MI``, a sum with no
    subtraction and no ordering.  For ``r = 2`` the
    variance is taken about the mean, with ``C = G - mean/2``:
    ``Var X = 1/2 sum_ij A_ij (F_ii + F_jj + 2 F_ij)`` with
    ``F = C diag(m_beta) C^T + C B C^T`` (``A``, ``B`` the pair weights,
    ``m_beta`` the row sums of ``B``).  Without RSI ``alpha`` is pinned to 0.
    """
    rows = hop.rx_antennas
    x_beta, beta = eigen_weights(rows, hop.tx_antennas, n)
    if hop.has_rsi:
        x_alpha, alpha = eigen_weights(rows, hop.interferer_antennas, n)
    else:
        x_alpha, alpha = np.zeros(1), np.ones((1,) * rows)
    g = pair_gain(x_alpha[:, np.newaxis], x_beta, hop.eta, hop.rho)
    # einsum rather than matmul: BLAS would bring its threads and work
    # buffers into an outage run for these small products (about 0.5 MB
    # of peak RSS), and numpy's own loops take well under a millisecond.
    # The CLI's pool is one thread, but a library caller keeps numpy's.
    if rows == 1:
        mean = np.einsum("i,ij,j->", alpha, g, beta)
        c = g - mean
        return float(mean), float(np.einsum("i,ij,j->", alpha, c * c, beta))
    m_beta = beta.sum(axis=1)
    mean = 2.0 * np.einsum("i,ij,j->", alpha.sum(axis=1), g, m_beta)
    c = g - 0.5 * mean
    f = np.einsum("ik,jk->ij", c * m_beta + np.einsum("ik,kl->il", c, beta), c)
    diag = np.diag(f)
    return float(mean), float(0.5 * np.sum(alpha * (diag[:, np.newaxis] + diag + 2.0 * f)))


def quadrature_hop_moments(hop: HopConfig) -> HopMoments | None:
    """One hop's closed-form moments by quadrature, or ``None`` where that fails.

    The mean and variance of ``APPROX_MI``, which
    :func:`~relay_outage.mutual_info.sampled_moments` otherwise samples, in
    full-duplex form, under the exact eigenvalue laws of ``eigen_weights``.
    ``None`` for more than ``MAX_QUADRATURE_RX`` receive antennas, and
    where the ``PAIR_NODES`` rule's values differ from those of the
    ``2 * PAIR_NODES`` rule by more than ``MOMENT_RTOL`` (RSI far above the
    link); an unconverged value is never returned.
    """
    if hop.rx_antennas > MAX_QUADRATURE_RX:
        return None
    (mean, variance), (fine_mean, fine_variance) = (
        _hop_moments_on_grid(hop, n) for n in (PAIR_NODES, 2 * PAIR_NODES)
    )
    converged = (
        variance >= 0.0
        and abs(mean - fine_mean) <= MOMENT_RTOL * math.sqrt(variance)
        and abs(variance - fine_variance) <= MOMENT_RTOL * variance
    )
    return HopMoments(mean=mean, variance=variance) if converged else None
