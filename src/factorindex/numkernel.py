"""Symmetric eigendecomposition and the distribution functions built on it.

Everything downstream (factor extraction, KMO, t and F p-values,
confidence intervals) reduces to the primitives here:

* :func:`sym_eigen` — LAPACK ``eigh`` behind a fixed contract: symmetry
  check, descending order, canonical eigenvector signs
* :func:`invert_spd` — SPD inverse through the eigendecomposition
* :func:`reg_incomplete_beta` — regularized incomplete beta I_x(a, b)
* :func:`f_tail_p` — F tail probability through the incomplete beta, with
  the complement 1 - x formed from the statistic so that small statistics
  keep their digits; :func:`t_two_tailed_p` is its tail of t^2 on 1 and df
* :func:`t_quantile` — Student-t quantile by safeguarded Newton steps on
  that t tail, started from the standard library's normal quantile
  (``statistics.NormalDist().inv_cdf``), within 1e-10 relative of the
  exact quantile after 2 to 11 incomplete-beta evaluations

All functions are pure and deterministic: no randomness, no hidden state.
"""

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError

# Continued fraction controls for the incomplete beta.
_BETA_CF_TOL = 1e-14
_BETA_CF_MAX_ITER = 300

_SPD_MIN_EIGENVALUE = 1e-12


def as_matrix(a, name="matrix"):
    """Coerce to a 2-D float64 array, rejecting empty or non-finite input."""
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValidationError(f"{name} must have at least one row and column")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (descending) and matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def canonical_signs(m):
    """Per column, the sign (+1 or -1) that makes its largest-magnitude entry positive."""
    peaks = m[np.argmax(np.abs(m), axis=0), np.arange(m.shape[1])]
    return np.where(peaks < 0.0, -1.0, 1.0)


def sym_eigen(a):
    """Eigendecomposition of a symmetric matrix by LAPACK ``eigh``.

    The input is symmetrized by averaging (rejected if the asymmetry
    exceeds 1e-9) and handed to :func:`numpy.linalg.eigh`; a LAPACK
    failure to converge raises :class:`NumericalError`.

    Returns an :class:`EigenDecomposition` with eigenvalues sorted
    descending (stable for ties) and each eigenvector's largest-magnitude
    entry positive; both arrays are read-only.
    """
    a = as_matrix(a)
    n, m = a.shape
    if n != m:
        raise ValidationError(f"matrix must be square, got {n}x{m}")
    asym = float(np.max(np.abs(a - a.T)))
    if asym >= 1e-9:
        raise ValidationError(
            f"matrix is not symmetric: max |a[i][j] - a[j][i]| = {asym:.3e}"
        )
    try:
        values, vecs = np.linalg.eigh((a + a.T) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"symmetric eigensolver failed: {exc}") from None
    order = np.argsort(-values, kind="stable")
    values = values[order]
    vecs = vecs[:, order]
    vecs *= canonical_signs(vecs)
    values.setflags(write=False)
    vecs.setflags(write=False)
    return EigenDecomposition(eigenvalues=values, eigenvectors=vecs)


def invert_spd(a):
    """Invert a symmetric positive-definite matrix via its eigendecomposition.

    Raises :class:`NumericalError` naming the offending eigenvalue when the
    matrix is singular or indefinite (smallest eigenvalue <= 1e-12).
    """
    decomp = sym_eigen(a)
    smallest = float(decomp.eigenvalues[-1])
    if smallest <= _SPD_MIN_EIGENVALUE:
        raise NumericalError(
            f"matrix is singular or not positive definite: "
            f"smallest eigenvalue {smallest:.6e} <= {_SPD_MIN_EIGENVALUE:g}"
        )
    v = decomp.eigenvectors
    inv = (v / decomp.eigenvalues) @ v.T
    # Eigenvector round-off can leave a tiny asymmetry; remove it.
    return (inv + inv.T) / 2.0


def _beta_continued_fraction(a, b, x):
    """Modified Lentz evaluation of the incomplete-beta continued fraction."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _BETA_CF_TOL:
            return h
    raise NumericalError(
        f"incomplete beta continued fraction did not converge in "
        f"{_BETA_CF_MAX_ITER} iterations (a={a:g}, b={b:g}, x={x:g})"
    )


def reg_incomplete_beta(a, b, x):
    """Regularized incomplete beta function I_x(a, b).

    Continued-fraction evaluation with the usual symmetry switch at
    x > (a + 1) / (a + b + 2), so that I_x(a, b) = 1 - I_{1-x}(b, a) holds
    to machine precision.
    """
    if not (a > 0.0 and b > 0.0):
        raise ValidationError(f"shape parameters must be positive, got a={a!r}, b={b!r}")
    if not 0.0 <= x <= 1.0:
        raise ValidationError(f"x must lie in [0, 1], got {x!r}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x <= (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def t_two_tailed_p(t, df):
    """Two-tailed Student-t p-value: the F tail of t^2 on 1 and ``df`` degrees of freedom."""
    if not df > 0.0:
        raise ValidationError(f"degrees of freedom must be positive, got {df!r}")
    t = float(t)
    return f_tail_p(t * t, 1, df)


_T_QUANTILE_MAX_STEPS = 200


def t_quantile(prob, df):
    """Student-t quantile by safeguarded Newton steps on :func:`t_two_tailed_p`.

    For prob >= 0.5 it solves log p(t) = log(2 * (1 - prob)) for t >= 0. The
    start is the standard normal quantile z = ``NormalDist().inv_cdf(prob)``
    plus the first Cornish-Fisher term, z + (z^3 + z) / (4 df) (Hill 1970,
    CACM Algorithm 396); at prob = 0.5 it is 0, the exact root. The slope
    is the closed-form t density. A bracket around the root is kept, and a
    step that leaves it is replaced by bisection (by doubling t while the
    bracket has no upper end). Iteration stops when the
    step is below an ulp or no longer shrinks the residual, which is where
    the p-value engine's own rounding begins. The result is therefore the
    root of the p-value engine: on df from 1 to 1e5 it is within 1e-10
    relative of the exact quantile, after 2 to 11 incomplete-beta
    evaluations (4.4 on average over 11 df from 1 to 1e5 and 11
    probabilities from 1e-6 to 0.9999).

    The lower half is the exact mirror, t_quantile(prob, df) ==
    -t_quantile(1 - prob, df), so it inherits the rounding of 1 - prob.
    """
    if not df > 0.0:
        raise ValidationError(f"degrees of freedom must be positive, got {df!r}")
    if not 0.0 < prob < 1.0:
        raise ValidationError(f"probability must lie strictly in (0, 1), got {prob!r}")
    if prob < 0.5:
        return -t_quantile(1.0 - prob, df)
    df = float(df)
    log_target = math.log(2.0 * (1.0 - prob))
    # log of the t density's normaliser, Gamma((df+1)/2) / (sqrt(df pi) Gamma(df/2))
    log_norm = (math.lgamma((df + 1.0) / 2.0) - math.lgamma(df / 2.0)
                - 0.5 * math.log(df * math.pi))
    z = statistics.NormalDist().inv_cdf(prob)
    q = z + (z * z * z + z) / (4.0 * df)
    lo, hi = 0.0, math.inf
    best_q, best_residual = q, math.inf
    newton = False
    for _ in range(_T_QUANTILE_MAX_STEPS):
        p = t_two_tailed_p(q, df)
        residual = math.log(p) - log_target if p > 0.0 else -math.inf
        if residual == 0.0:
            return q
        if abs(residual) < best_residual:
            best_q, best_residual = q, abs(residual)
        elif newton and p > 0.0:
            # A Newton step that did not shrink the residual has reached the
            # p-value engine's rounding, where it would only walk by ulps.
            return best_q
        if residual > 0.0:
            lo = q
        else:
            hi = q
        newton = False
        if p > 0.0:
            # d log p / dt = -2 f(t) / p, with f the t density
            density = math.exp(log_norm - 0.5 * (df + 1.0) * math.log1p(q * q / df))
            step = residual * p / (2.0 * density) if density > 0.0 else math.inf
            if abs(step) <= math.ulp(q):
                return q
            newton = lo < q + step < hi
        if newton:
            q += step
        else:
            mid = 2.0 * q if hi == math.inf else 0.5 * (lo + hi)
            if not lo < mid < hi:
                return best_q
            q = mid
    raise NumericalError(
        f"t quantile did not converge in {_T_QUANTILE_MAX_STEPS} steps "
        f"(prob={prob!r}, df={df!r})"
    )


def f_tail_p(f, df1, df2):
    """Upper-tail probability P(F >= f) for the F distribution."""
    if not (df1 > 0.0 and df2 > 0.0):
        raise ValidationError(
            f"degrees of freedom must be positive, got df1={df1!r}, df2={df2!r}"
        )
    f = float(f)
    if f < 0.0:
        raise ValidationError(f"F statistic must be non-negative, got {f!r}")
    if f == 0.0:
        return 1.0
    scaled = df1 * f
    a, b = df2 / 2.0, df1 / 2.0
    x = df2 / (df2 + scaled)
    if x <= (a + 1.0) / (a + b + 2.0):
        return reg_incomplete_beta(a, b, x)
    # Past the continued fraction's switch point the tail is 1 - I_y(b, a),
    # with y = 1 - x formed from the statistic: recomputing 1 - x from an x
    # close to 1 would keep only the digits of x that differ from 1.
    return 1.0 - reg_incomplete_beta(b, a, scaled / (df2 + scaled))
