"""Factor extraction, rotation, diagnostics, and scoring.

The pipeline here is the classic principal-components route: correlation
matrix -> eigendecomposition -> loadings -> varimax rotation -> regression
score coefficients -> per-case factor scores. All steps are deterministic;
identical inputs give bit-identical models.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dataset import StandardizedMatrix
from .errors import NumericalError, ValidationError, with_stage
from .numkernel import (_SPD_MIN_EIGENVALUE, as_matrix, canonical_signs,
                        invert_spd, sym_eigen)

# Fixed-point tolerance for the rotation: a sweep whose largest pairwise
# angle is below this leaves the loadings unchanged to ~1e-12, which keeps
# re-rotation idempotent well inside the 1e-10 contract. Both are also the
# defaults of the rotation.tol and rotation.max_iter config keys.
DEFAULT_ROTATION_TOL = 1e-12
DEFAULT_MAX_SWEEPS = 1000

KMO_LABELS = (
    (0.9, "marvelous"),
    (0.8, "meritorious"),
    (0.7, "middling"),
    (0.6, "mediocre"),
    (0.5, "miserable"),
)


@dataclass(frozen=True)
class KmoResult:
    overall: float
    per_variable: np.ndarray
    label: str


@dataclass(frozen=True)
class VarimaxResult:
    loadings: np.ndarray
    rotation: np.ndarray
    criterion_history: tuple
    converged: bool
    sweeps: int


@dataclass(frozen=True)
class FactorModel:
    """Everything the extraction + rotation + diagnostics step produces."""

    indicator_names: tuple
    eigenvalues: np.ndarray          # all p, descending
    retained: int
    loadings_unrotated: np.ndarray   # p x k
    loadings_rotated: np.ndarray     # p x k
    rotation: np.ndarray             # k x k orthogonal
    communalities: np.ndarray        # per variable, from retained factors
    variance_explained: float        # sum of first k eigenvalues / p
    kmo: KmoResult
    score_coefficients: np.ndarray   # p x k
    rotation_method: str
    rotation_converged: bool


@dataclass(frozen=True)
class FactorScores:
    case_ids: tuple
    scores: np.ndarray  # n x k


def correlation_matrix(z):
    """Pearson correlation matrix of standardized columns: r = z'z / (n-1)."""
    if isinstance(z, StandardizedMatrix):
        z = z.values
    z = as_matrix(z, "standardized data")
    n = z.shape[0]
    if n < 3:
        raise ValidationError(f"need at least 3 cases to correlate, got {n}")
    r = z.T @ z / (n - 1)
    r = (r + r.T) / 2.0
    r = np.clip(r, -1.0, 1.0)
    np.fill_diagonal(r, 1.0)
    return r


def extract_pca(r, rule="kaiser", k=None):
    """Principal-components extraction from a correlation matrix.

    Returns ``(eigenvalues, loadings, retained)`` where loading column j is
    eigenvector_j * sqrt(eigenvalue_j). Retention is either ``"kaiser"``
    (strictly eigenvalue > 1) or ``"fixed"`` with an explicit ``k``.
    """
    r = as_matrix(r, "correlation matrix")
    p = r.shape[0]
    decomp = sym_eigen(r)
    eigenvalues = decomp.eigenvalues
    if rule == "kaiser":
        retained = int(np.sum(eigenvalues > 1.0))
        if retained == 0:
            raise NumericalError(
                "no eigenvalue exceeds 1, so the Kaiser rule retains nothing; "
                "use fixed retention (rule='fixed', k=...) instead"
            )
    elif rule == "fixed":
        if k is None or k < 1:
            raise ValidationError("fixed retention requires k >= 1")
        if k > p:
            raise ValidationError(f"cannot retain k={k} factors from p={p} variables")
        retained = int(k)
    else:
        raise ValidationError(f"unknown retention rule {rule!r}")
    scale = np.sqrt(np.maximum(eigenvalues[:retained], 0.0))
    loadings = decomp.eigenvectors[:, :retained] * scale
    return eigenvalues, loadings, retained


def kmo_label(value):
    """Kaiser's adjective for a sampling-adequacy value."""
    for bound, label in KMO_LABELS:
        if value >= bound:
            return label
    return "unacceptable"


def kmo(r):
    """Kaiser-Meyer-Olkin sampling adequacy, overall and per variable.

    Compares squared correlations against squared anti-image partial
    correlations q_ij = -s_ij / sqrt(s_ii * s_jj) with s the inverse
    correlation matrix.
    """
    r = as_matrix(r, "correlation matrix")
    s = invert_spd(r)
    d = np.sqrt(np.diag(s))
    q = -s / np.outer(d, d)
    off = ~np.eye(r.shape[0], dtype=bool)
    r2 = np.where(off, r * r, 0.0)
    q2 = np.where(off, q * q, 0.0)
    num = float(np.sum(r2))
    denom = num + float(np.sum(q2))
    if denom == 0.0:
        raise NumericalError(
            "KMO is undefined: all off-diagonal correlations are zero"
        )
    overall = num / denom
    col_num = r2.sum(axis=0)
    col_den = col_num + q2.sum(axis=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        per_variable = np.where(col_den > 0.0, col_num / col_den, np.nan)
    per_variable.setflags(write=False)
    return KmoResult(overall=overall, per_variable=per_variable, label=kmo_label(overall))


def _varimax_criterion(b):
    """Sum over factors of the variance of squared loadings."""
    sq = b * b
    return float(np.sum(sq * sq, axis=0).sum() / b.shape[0] - np.sum((sq.mean(axis=0)) ** 2))


def _canonicalize_columns(loadings, rotation):
    """Order columns by explained sum of squares, then fix signs."""
    ss = np.sum(loadings * loadings, axis=0)
    order = np.argsort(-ss, kind="stable")
    loadings = loadings[:, order]
    signs = canonical_signs(loadings)
    return loadings * signs, rotation[:, order] * signs


def varimax(loadings, kaiser_normalize=True, tol=DEFAULT_ROTATION_TOL,
            max_iter=DEFAULT_MAX_SWEEPS):
    """Varimax rotation by pairwise plane rotations in fixed lexicographic order.

    Each pair (i, j) gets the exact single-angle optimum of the pairwise
    criterion; sweeps repeat until no angle exceeds ``tol`` radians (a fixed
    point) or ``max_iter`` sweeps pass, in which case the best-so-far result
    is returned with ``converged=False``.

    With ``kaiser_normalize`` the rows are scaled to unit communality before
    rotation and unscaled after. Output columns are sorted by explained sum
    of squares (descending) and sign-flipped so each column's largest
    absolute loading is positive; the returned rotation matrix includes that
    reordering, so ``loadings @ rotation`` reproduces the rotated matrix.
    """
    a = as_matrix(loadings, "loadings")
    p, k = a.shape
    if k < 1:
        raise ValidationError("need at least one factor column")
    if p < k:
        raise ValidationError(f"need at least as many variables as factors ({p} < {k})")
    if max_iter < 1:
        raise ValidationError("max_iter must be >= 1")

    rotation = np.eye(k)
    if k == 1:
        out, rotation = _canonicalize_columns(a, rotation)
        return VarimaxResult(out, rotation, (_varimax_criterion(out),), True, 0)

    h = np.sqrt(np.sum(a * a, axis=1))
    scale = np.where(h > DEFAULT_ROTATION_TOL, h, 1.0) if kaiser_normalize else np.ones(p)
    b = a / scale[:, None]

    history = [_varimax_criterion(b)]
    converged = False
    sweeps = 0
    for sweeps in range(1, max_iter + 1):
        max_angle = 0.0
        for i in range(k - 1):
            for j in range(i + 1, k):
                x = b[:, i]
                y = b[:, j]
                u = x * x - y * y
                v = 2.0 * x * y
                su = float(np.sum(u))
                sv = float(np.sum(v))
                num = 2.0 * (float(np.dot(u, v)) - su * sv / p)
                den = float(np.dot(u, u) - np.dot(v, v)) - (su * su - sv * sv) / p
                angle = 0.25 * math.atan2(num, den)
                if angle == 0.0:
                    continue
                c = math.cos(angle)
                s = math.sin(angle)
                new_i = c * x + s * y
                new_j = -s * x + c * y
                b[:, i] = new_i
                b[:, j] = new_j
                ri = rotation[:, i].copy()
                rj = rotation[:, j].copy()
                rotation[:, i] = c * ri + s * rj
                rotation[:, j] = -s * ri + c * rj
                max_angle = max(max_angle, abs(angle))
        history.append(_varimax_criterion(b))
        if max_angle <= tol:
            converged = True
            break

    out = b * scale[:, None]
    out, rotation = _canonicalize_columns(out, rotation)
    return VarimaxResult(
        loadings=out,
        rotation=rotation,
        criterion_history=tuple(history),
        converged=converged,
        sweeps=sweeps,
    )


def score_coefficients(r, rotated_loadings):
    """Regression-method score coefficients W = r^-1 * loadings."""
    r = as_matrix(r, "correlation matrix")
    lam = as_matrix(rotated_loadings, "loadings")
    if lam.shape[0] != r.shape[0]:
        raise ValidationError(
            f"loadings rows ({lam.shape[0]}) must match correlation size ({r.shape[0]})"
        )
    return invert_spd(r) @ lam


def factor_scores(z, w):
    """Per-case factor scores: the weighted sum of standardized data.

    Each score is sum_i W[i, k] * z[case, i]; in matrix form simply z @ W.
    """
    if not isinstance(z, StandardizedMatrix):
        raise ValidationError("factor_scores expects a StandardizedMatrix")
    w = as_matrix(w, "score coefficients")
    if z.values.shape[1] != w.shape[0]:
        raise ValidationError(
            f"coefficient rows ({w.shape[0]}) must match data columns "
            f"({z.values.shape[1]})"
        )
    scores = z.values @ w
    scores.setflags(write=False)
    return FactorScores(case_ids=z.case_ids, scores=scores)


def _singular_cause(r, z):
    """Why R is singular: fewer cases than variables, or a null space
    (eigenvalues <= 1e-12, invert_spd's bound). The indicators named are
    those with an entry above 1e-6 in a null vector."""
    n, p = z.values.shape
    if n <= p:
        return (f"the correlation matrix is singular: {n} cases for {p} "
                "variables; add cases or select fewer variables with --variables")
    decomp = sym_eigen(r)
    null = decomp.eigenvectors[:, decomp.eigenvalues <= _SPD_MIN_EIGENVALUE]
    # A null vector has at least two such entries: R's diagonal is 1.
    *names, last = (z.indicator_names[j]
                    for j in np.flatnonzero(np.any(np.abs(null) > 1e-6, axis=1)))
    return (f"the correlation matrix is singular: {', '.join(names)} and {last} "
            "are collinear; drop one of them")


def build_factor_model(z, retention_rule="kaiser", retention_k=None,
                       rotation_method="varimax", kaiser_normalize=True,
                       rotation_tol=DEFAULT_ROTATION_TOL,
                       rotation_max_iter=DEFAULT_MAX_SWEEPS):
    """Run extraction, rotation, diagnostics, and score coefficients in order."""
    p = len(z.indicator_names)
    if p < 2:  # KMO needs an off-diagonal correlation
        raise ValidationError(f"need at least 2 indicators, got {p}")
    if rotation_method not in ("varimax", "none"):
        raise ValidationError(f"unknown rotation method {rotation_method!r}")
    r = with_stage("correlation", correlation_matrix, z)
    eigenvalues, unrotated, retained = with_stage(
        "extraction", extract_pca, r, rule=retention_rule, k=retention_k)
    # After extraction, so that a bad k is reported first; before rotation.
    if eigenvalues[-1] <= _SPD_MIN_EIGENVALUE:
        raise NumericalError(_singular_cause(r, z), stage="diagnostics")
    if rotation_method == "varimax":
        rot = with_stage("rotation", varimax, unrotated,
                      kaiser_normalize=kaiser_normalize,
                      tol=rotation_tol, max_iter=rotation_max_iter)
        rotated, rotation = rot.loadings, rot.rotation
        rotation_converged = rot.converged
    else:
        # C order, unlike LAPACK's eigenvectors; the bytes depend on it.
        rotated, rotation = unrotated.copy(), np.eye(retained)
        rotation_converged = True
    communalities = np.sum(rotated * rotated, axis=1)
    variance_explained = float(np.sum(eigenvalues[:retained]) / r.shape[0])
    adequacy = with_stage("diagnostics", kmo, r)
    w = with_stage("scoring", score_coefficients, r, rotated)
    for arr in (unrotated, rotated, rotation, communalities, w):
        arr.setflags(write=False)
    return FactorModel(
        indicator_names=z.indicator_names,
        eigenvalues=eigenvalues,
        retained=retained,
        loadings_unrotated=unrotated,
        loadings_rotated=rotated,
        rotation=rotation,
        communalities=communalities,
        variance_explained=variance_explained,
        kmo=adequacy,
        score_coefficients=w,
        rotation_method=rotation_method,
        rotation_converged=rotation_converged,
    )
