"""Analytic eigenvalue statistics of uncorrelated central Wishart matrices.

The single-eigenvalue marginal density is expressed through orthonormal
generalized Laguerre functions for the weight ``x^d e^-x`` with
``d = p - m``:

    f(x) = (1/m) * sum_{i=0}^{m-1} [i!/(i+d)!] (L_i^d(x))^2 x^d e^-x

These quadrature expectations are the independent analytical cross-check
on the Monte Carlo moment estimates elsewhere in the package.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln

from .mutual_info import LN2
from .randmat import WishartParams

# Absolute quadrature tolerance for expectations, in bits.
QUAD_ABS_TOL = 1e-6
# The integration interval is cut where the weight x^(p+m) e^-x drops
# below this level.
WEIGHT_FLOOR = 1e-12


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
        weight = math.exp(gammaln(i + 1) - gammaln(i + d + 1))
        total += weight * laguerre(i, d, lam) ** 2
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


def expected_logdet(params: WishartParams, scale: float) -> float:
    """Mean of ``log2 det(I + scale * W)`` over ``(m, p)`` Wishart samples.

    Evaluated as ``m * integral log2(1 + scale x) f(x) dx`` by adaptive
    quadrature, accurate to ``QUAD_ABS_TOL`` bits.
    """
    if scale < 0.0:
        raise ValueError(f"scale must be non-negative, got {scale}")
    if scale == 0.0:
        return 0.0

    def integrand(lam: float) -> float:
        return math.log1p(scale * lam) / LN2 * marginal_eigen_density(params, lam)

    value, err = quad(
        integrand, 0.0, integration_cutoff(params), epsabs=1e-9, epsrel=1e-9, limit=200
    )
    total = params.m * value
    if params.m * err > QUAD_ABS_TOL:
        raise ArithmeticError(
            f"quadrature error estimate {params.m * err:.2e} bits exceeds "
            f"tolerance {QUAD_ABS_TOL}"
        )
    return total
