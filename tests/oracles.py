"""Independent reference implementations used to check the real code paths.

These deliberately take the dumb-but-obvious route (exhaustive angle
search, residual regressions, greedy congruence matching) so they share no
code with the implementations they verify.
"""

import math

import numpy as np


def varimax_criterion(b):
    """Sum over factors of the variance of squared loadings."""
    sq = np.asarray(b) ** 2
    return float((sq * sq).mean(axis=0).sum() - np.sum(sq.mean(axis=0) ** 2))


def grid_search_best(a, step=1e-4):
    """Exhaustive single-angle rotation oracle for two-column loadings."""
    thetas = np.arange(0.0, math.pi / 2, step)
    c = np.cos(thetas)[:, None]
    s = np.sin(thetas)[:, None]
    x, y = a[:, 0], a[:, 1]
    xi = c * x + s * y          # (T, p)
    yj = -s * x + c * y
    sq1, sq2 = xi ** 2, yj ** 2
    v = ((sq1 ** 2).mean(axis=1) - sq1.mean(axis=1) ** 2
         + (sq2 ** 2).mean(axis=1) - sq2.mean(axis=1) ** 2)
    return float(v.max())


def kmo_regression_oracle(x):
    """KMO from partial correlations obtained by regressing out the rest."""
    n, p = x.shape
    xc = x - x.mean(axis=0)
    r = np.corrcoef(xc, rowvar=False)
    q = np.zeros((p, p))
    for i in range(p):
        for j in range(p):
            if i == j:
                continue
            others = [m for m in range(p) if m not in (i, j)]
            oth = xc[:, others]
            bi, *_ = np.linalg.lstsq(oth, xc[:, i], rcond=None)
            bj, *_ = np.linalg.lstsq(oth, xc[:, j], rcond=None)
            res_i = xc[:, i] - oth @ bi
            res_j = xc[:, j] - oth @ bj
            q[i, j] = np.corrcoef(res_i, res_j)[0, 1]
    num = np.sum(r * r) - p
    den = num + np.sum(q * q)
    return num / den


def worst_congruence(generator, loadings):
    """Greedy |Tucker congruence| matching of generator columns to loadings."""
    used = set()
    worst = 1.0
    generator = np.asarray(generator)
    loadings = np.asarray(loadings)
    for g in range(generator.shape[1]):
        best, best_j = 0.0, None
        for j in range(loadings.shape[1]):
            if j in used:
                continue
            num = float(np.dot(generator[:, g], loadings[:, j]))
            den = math.sqrt(float(np.dot(generator[:, g], generator[:, g])
                                  * np.dot(loadings[:, j], loadings[:, j])))
            congruence = abs(num / den)
            if congruence > best:
                best, best_j = congruence, j
        used.add(best_j)
        worst = min(worst, best)
    return worst


def _json_number(x):
    """A float, or None (JSON null) where it is not finite."""
    x = float(x)
    return x if math.isfinite(x) else None


def ranking_payload(ranked, model):
    """The ranking.json document built whole, one dict per rank.

    The top loadings are the three largest |rotated loadings| on the ranked
    factor, ties to the earlier variable, by a stable sort.
    """
    column = np.asarray(model.loadings_rotated, dtype=float)[:, ranked.factor - 1]
    top = np.argsort(-np.abs(column), kind="stable")[:3]
    return {
        "factor": ranked.factor,
        "direction": ranked.direction,
        "entries": [{"rank": rank, "case_id": cid, "score": _json_number(score)}
                    for rank, (cid, score) in enumerate(
                        zip(ranked.case_ids, ranked.scores.tolist()), start=1)],
        "group_size": ranked.group_size,
        "group1_ids": list(ranked.group1_ids),
        "group2_ids": list(ranked.group2_ids),
        "top_loadings": [{"variable": model.indicator_names[i],
                          "loading": _json_number(column[i])} for i in top],
    }
