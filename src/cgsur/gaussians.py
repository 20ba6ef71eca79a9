"""Diagonal Gaussian densities, entropies and KL terms.

All variances are plain variances (not standard deviations) and all
functions are exact closed forms. Sums run over the last axis: (B, d) rows
give B values, one (d,) vector one value.
"""

from __future__ import annotations

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


def diag_logpdf(x, mean, var):
    r = x - mean
    return -0.5 * np.sum(r * r / var + np.log(var) + LOG_2PI, axis=-1)


def diag_logpdf_grads(x, mean, var):
    """diag_logpdf and its gradients w.r.t. mean and var, from one residual; the
    gradient w.r.t. x is the negative of the mean's."""
    r = x - mean
    rr = r * r
    value = -0.5 * np.sum(rr / var + np.log(var) + LOG_2PI, axis=-1)
    return value, r / var, 0.5 * (rr / (var * var) - 1.0 / var)


def entropy_diag(var):
    return 0.5 * np.sum(np.log(var) + LOG_2PI + 1.0, axis=-1)


def kl_diag_standard(mean, var):
    """KL( N(mean, diag var) || N(0, I) )."""
    return 0.5 * np.sum(var + mean * mean - 1.0 - np.log(var), axis=-1)


def standard_logpdf_expectation(mean, var):
    """E_q[log N(z | 0, I)] for q = N(mean, diag var), in closed form."""
    d = mean.shape[-1]
    return -0.5 * (d * LOG_2PI + np.sum(mean * mean + var, axis=-1))
