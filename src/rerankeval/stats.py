"""Significance tests: paired and two-sample t-tests with a self-contained
Student's t CDF (regularized incomplete beta via Lentz's continued fraction)."""

import math
from dataclasses import dataclass

from .errors import LengthMismatch, UserSetMismatch, ZeroVariance

# significance stars, boundary-inclusive
STAR_THRESHOLDS = ((0.001, "***"), (0.01, "**"), (0.05, "*"))

_MAX_ITER = 300
_EPS = 3e-14
_TINY = 1e-300


@dataclass
class TTestResult:
    t_value: float
    degrees_of_freedom: float
    p_value: float
    significant: str  # "", "*", "**", or "***"


def stars(p):
    for threshold, mark in STAR_THRESHOLDS:
        if p <= threshold:
            return mark
    return ""


def _betacf(a, b, x):
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def reg_incomplete_beta(a, b, x):
    """Regularized incomplete beta I_x(a, b), accurate to ~1e-13."""
    if a <= 0 or b <= 0:
        raise ValueError("a and b must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                + a * math.log(x) + b * math.log1p(-x))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_two_sided_p(t, df):
    """Two-sided p-value for a t statistic with df degrees of freedom."""
    if df <= 0:
        raise ValueError("df must be positive")
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return reg_incomplete_beta(df / 2.0, 0.5, x)


def _mean(xs):
    return sum(xs) / len(xs)


def _sample_var(xs):
    m = _mean(xs)
    return sum((x - m) ** 2 for x in xs) / (len(xs) - 1)


def paired_t_test(a, b):
    """Paired two-sided t-test on elementwise differences a - b."""
    if len(a) != len(b):
        raise LengthMismatch(f"{len(a)} vs {len(b)}")
    n = len(a)
    if n < 2:
        raise ValueError("need at least 2 pairs")
    diffs = [x - y for x, y in zip(a, b)]
    var = _sample_var(diffs)
    if var == 0.0:
        raise ZeroVariance("all differences are equal")
    t = _mean(diffs) / math.sqrt(var / n)
    p = t_two_sided_p(t, n - 1)
    return TTestResult(t_value=t, degrees_of_freedom=float(n - 1),
                       p_value=p, significant=stars(p))


def two_sample_t_test(a, b):
    """Unpaired two-sided Welch t-test."""
    if len(a) < 2 or len(b) < 2:
        raise ValueError("each sample needs at least 2 observations")
    na, nb = len(a), len(b)
    ma, mb = _mean(a), _mean(b)
    va, vb = _sample_var(a), _sample_var(b)
    if va == 0.0 and vb == 0.0:
        raise ZeroVariance("both samples are constant")
    se = math.sqrt(va / na + vb / nb)
    df = (va / na + vb / nb) ** 2 / (
        (va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    t = (ma - mb) / se
    p = t_two_sided_p(t, df)
    return TTestResult(t_value=t, degrees_of_freedom=df, p_value=p,
                       significant=stars(p))


def compare_models(results_a, results_b):
    """Paired t-tests per (metric, cutoff) between two runs' per-user metrics.

    Cells where the per-user values match exactly carry None (rendered "-").
    Returns {(metric, n): TTestResult | None}.
    """
    by_key_a = {(r.metric, r.n): r for r in results_a}
    by_key_b = {(r.metric, r.n): r for r in results_b}
    if set(by_key_a) != set(by_key_b):
        raise UserSetMismatch("metric/cutoff grids differ between runs")
    table = {}
    for key, ra in by_key_a.items():
        rb = by_key_b[key]
        if set(ra.per_user) != set(rb.per_user):
            raise UserSetMismatch(f"user sets differ for {key}")
        users = sorted(ra.per_user)
        a = [ra.per_user[u] for u in users]
        b = [rb.per_user[u] for u in users]
        try:
            table[key] = paired_t_test(a, b)
        except ZeroVariance:
            table[key] = None
    return table


def render_p(result):
    """Table cell for a comparison: p-value with stars, or "-" when the runs
    are indistinguishable."""
    if result is None:
        return "-"
    return f"{result.p_value:.3f}{result.significant}"
