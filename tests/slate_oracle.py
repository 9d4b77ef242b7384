"""Reference slate selection over id strings: the eligible list, the sorted
positive pool and the heapq top-n by (-score, id) that candgen's selection
over catalog positions replaces. Kept only to check it against.

The one change from that code: the eligible list is read off
sorted(catalog.items), and scorer.score_items(user, ids) scores item ids.
"""

import heapq

import numpy as np

from rerankeval.candgen import SLATE_SIZE, Slate, stable_seed
from rerankeval.errors import CatalogTooSmall


def _eligible(catalog, exclusions, slate_size):
    """The catalog less exclusions, sorted; CatalogTooSmall unless it can
    fill a slate."""
    eligible = [i for i in sorted(catalog.items) if i not in exclusions]
    if len(eligible) < slate_size:
        raise CatalogTooSmall(f"{len(eligible)} eligible items < slate size {slate_size}")
    return eligible


def _sample_positives(user, relevance, count, catalog, exclusions, seed, taken=()):
    """A seeded sample, in draw order, of at most count of the user's
    held-out positives that are in the catalog, not excluded and not in
    taken; with the generator that drew it, or None when nothing is drawn."""
    if count < 1 or relevance is None:
        return [], None
    pool = sorted(i for i in relevance.relevant
                  if i in catalog and i not in exclusions and i not in taken)
    rng = np.random.default_rng(stable_seed(seed, "inject", user))
    picks = rng.choice(len(pool), size=min(count, len(pool)), replace=False)
    return [pool[i] for i in picks], rng


def gen_random_slate(user, catalog, exclusions, seed, slate_size=SLATE_SIZE,
                     inject_positives=0, relevance=None):
    """Uniform sample without replacement from the eligible catalog,
    deterministic per (seed, user).

    Up to inject_positives held-out positives not already in the slate then
    replace items at seeded positions, never a positive, so the slate order
    stays uninformative.
    """
    eligible = _eligible(catalog, exclusions, slate_size)
    rng = np.random.default_rng(stable_seed(seed, "random_slate", user))
    picks = rng.choice(len(eligible), size=slate_size, replace=False)
    items = [eligible[i] for i in picks]
    injected, rng = _sample_positives(user, relevance, min(inject_positives, slate_size),
                                      catalog, exclusions, seed, taken=set(items))
    if injected:
        replaceable = [p for p, item in enumerate(items) if item not in relevance.relevant]
        positions = rng.choice(len(replaceable), size=min(len(injected), len(replaceable)),
                               replace=False)
        for p, item in zip(positions, injected):
            items[replaceable[p]] = item
    return Slate(user=user, items=items, source="random")


def gen_model_slate(user, scorer, catalog, exclusions, inject_positives,
                    relevance, seed, slate_size=SLATE_SIZE, source="mf"):
    """Top-scored eligible items, with held-out positives injected.

    The injected positives are a seeded sample of the user's relevance set;
    they are merged at their model-scored positions, so the final order is
    pure score order over the selected set. Ties break by item id.
    `scorer.score_items(user, items)` gives the scores, aligned with items.
    """
    eligible = _eligible(catalog, exclusions, slate_size)
    injected, _ = _sample_positives(user, relevance, min(inject_positives, slate_size),
                                    catalog, exclusions, seed)
    scores = dict(zip(eligible, scorer.score_items(user, eligible).tolist()))
    injected_set = set(injected)

    def by_score(i):
        return -scores[i], i

    selected = injected + heapq.nsmallest(
        slate_size - len(injected),
        (i for i in eligible if i not in injected_set), key=by_score)
    selected.sort(key=by_score)
    return Slate(user=user, items=selected, source=source)
