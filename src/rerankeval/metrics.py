"""Top-N ranking metrics: hit ratio, recall, precision, NDCG, and run-level
aggregation."""

import math
from dataclasses import dataclass

from .errors import RerankEvalError

DEFAULT_CUTOFFS = (3, 5, 10)


@dataclass
class MetricResult:
    metric: str        # hit_ratio, recall, precision or ndcg
    n: int
    per_user: dict     # user -> value in [0, 1]
    mean: float


def hit_ratio_at(ranking, relevant, n):
    """1.0 if any relevant item appears in the top n, else 0.0."""
    return 1.0 if any(item in relevant for item in ranking[:n]) else 0.0


def recall_at(ranking, relevant, n):
    """Fraction of the relevant set retrieved in the top n (0.0 if empty)."""
    if not relevant:
        return 0.0
    hits = sum(1 for item in ranking[:n] if item in relevant)
    return hits / len(relevant)


def precision_at(ranking, relevant, n):
    """Relevant fraction of the top n; denominator stays n for short rankings."""
    hits = sum(1 for item in ranking[:n] if item in relevant)
    return hits / n


def ndcg_at(ranking, relevant, n):
    """Binary-relevance NDCG with the ideal DCG capped at min(n, |relevant|)."""
    if not relevant:
        return 0.0
    dcg = sum(1.0 / math.log2(pos + 1)
              for pos, item in enumerate(ranking[:n], start=1)
              if item in relevant)
    ideal = min(n, len(relevant))
    idcg = sum(1.0 / math.log2(pos + 1) for pos in range(1, ideal + 1))
    return dcg / idcg


_METRIC_FNS = {
    "hit_ratio": hit_ratio_at,
    "recall": recall_at,
    "precision": precision_at,
    "ndcg": ndcg_at,
}


def evaluate_run(rankings, relevance, cutoffs=DEFAULT_CUTOFFS):
    """Score every user's ranking at every cutoff.

    rankings: user -> ordered item list; relevance: user -> RelevanceSet.
    Per-user values are retained for downstream significance testing.
    """
    results = []
    users = sorted(rankings)
    for user in users:
        if user not in relevance:
            raise RerankEvalError(user)
    for name, fn in _METRIC_FNS.items():
        for n in cutoffs:
            per_user = {u: fn(rankings[u], relevance[u].relevant, n) for u in users}
            mean = sum(per_user.values()) / len(per_user) if per_user else 0.0
            results.append(MetricResult(metric=name, n=n, per_user=per_user, mean=mean))
    return results
