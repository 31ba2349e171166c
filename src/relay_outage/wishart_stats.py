"""Analytic eigenvalue statistics of uncorrelated central Wishart matrices.

The single-eigenvalue marginal density is expressed through orthonormal
generalized Laguerre functions for the weight ``x^d e^-x`` with
``d = p - m``:

    f(x) = (1/m) * sum_{i=0}^{m-1} [i!/(i+d)!] (L_i^d(x))^2 x^d e^-x

Expectations under it come from one fixed Gauss-Legendre rule
(``QUADRATURE_NODES`` nodes, numpy only) in the variable ``t = sqrt(x)``;
the validation module maps the same rule onto the normal tail.  These
quadratures are the independent analytical cross-check on the Monte Carlo
moment estimates elsewhere in the package.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from .mutual_info import LN2
from .randmat import WishartParams

# Absolute quadrature tolerance for expectations, in bits.
QUAD_ABS_TOL = 1e-6
# The integration interval is cut where the weight x^(p+m) e^-x drops
# below this level.
WEIGHT_FLOOR = 1e-12
# Gauss-Legendre nodes per integral; the error estimate is the gap to the
# rule with half as many.
QUADRATURE_NODES = 256


@functools.cache
def _legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``n``-point Gauss-Legendre nodes and weights on ``[-1, 1]``, by Newton's method.

    numpy's ``leggauss`` agrees to 2e-16 but calls a threaded LAPACK solver,
    which stalled for up to 0.5 s per process on a 2-vCPU machine.
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


def marginal_eigen_density(params: WishartParams, lam):
    """Marginal density of one (unordered) eigenvalue of an ``(m, p)`` sample.

    Non-negative and normalized to unit mass on ``[0, inf)``.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0.0):
        raise ValueError("eigenvalue arguments must be non-negative")
    m, d = params.m, params.d
    total = np.zeros_like(lam)
    for i in range(m):
        total += laguerre(i, d, lam) ** 2 / math.perm(i + d, d)  # i!/(i+d)!
    dens = total * lam**d * np.exp(-lam) / m
    return dens if dens.ndim else float(dens)


def integration_cutoff(params: WishartParams) -> float:
    """Upper integration limit: where ``x^(p+m) e^-x`` falls below WEIGHT_FLOOR."""
    k = params.p + params.m
    target = -math.log(WEIGHT_FLOOR)
    x = target + k
    for _ in range(100):
        nxt = target + k * math.log(x)
        if abs(nxt - x) < 1e-9:
            break
        x = nxt
    return x


def eigen_expectation(params: WishartParams, fn) -> tuple[float, float]:
    """``integral fn(x) f(x) dx`` over ``[0, integration_cutoff]``, and its error estimate.

    In ``t = sqrt(x)`` the log-det singularity at ``x = -1/scale`` moves far
    enough from the interval for the rule to converge up to ``scale ~ 1e6``.
    """

    def integrand(t):
        lam = t * t
        return 2.0 * t * fn(lam) * marginal_eigen_density(params, lam)

    return gauss_legendre(integrand, 0.0, math.sqrt(integration_cutoff(params)))


def expected_logdet(params: WishartParams, scale: float) -> float:
    """Mean of ``log2 det(I + scale * W)`` over ``(m, p)`` Wishart samples.

    Evaluated as ``m * integral log2(1 + scale x) f(x) dx`` by
    ``eigen_expectation``, accurate to ``QUAD_ABS_TOL`` bits.
    """
    if scale < 0.0:
        raise ValueError(f"scale must be non-negative, got {scale}")
    if scale == 0.0:
        return 0.0
    value, err = eigen_expectation(params, lambda lam: np.log1p(scale * lam) / LN2)
    total = params.m * value
    if params.m * err > QUAD_ABS_TOL:
        raise ArithmeticError(
            f"quadrature error estimate {params.m * err:.2e} bits exceeds "
            f"tolerance {QUAD_ABS_TOL}"
        )
    return total
