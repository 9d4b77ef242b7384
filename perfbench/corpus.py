"""Seeded MovieLens-style corpus for the benchmark.

The same (spec, seed) always gives byte-identical files. The corpus shape is
fixed by the spec, not drawn from the seed: the total number of ratings, the
number of users and items, and the number of users who qualify for
evaluation are exact, so work per run stays the same across seeds while the
individual ratings change.
"""

import csv
from dataclasses import dataclass

import numpy as np

# ingest.split_leave_n_out defaults: a user is evaluated when at least
# n_test + min_history of their ratings reach the relevance threshold.
N_TEST = 10
MIN_HISTORY = 5
QUALIFYING = N_TEST + MIN_HISTORY
HIGH_STARS = np.array([4.0, 4.5, 5.0])
LOW_STARS = np.arange(1, 8) * 0.5          # 0.5 .. 3.5

GENRES = ["Action", "Adventure", "Animation", "Comedy", "Crime", "Drama",
          "Fantasy", "Horror", "Mystery", "Romance", "Sci-Fi", "Thriller"]
LANGUAGES = ["en", "fr", "de", "es", "ja", "ko", "it"]
WORDS = ("a young detective returns home to uncover an old family secret while "
         "the city burns and friends turn against each other in a race against "
         "time across the desert sea mountains with unlikely allies lost love "
         "hidden treasure strange signals from space quiet village war story "
         "about courage memory loss betrayal hope music school robot ship").split()


@dataclass(frozen=True)
class CorpusSpec:
    users: int
    items: int
    ratings: int
    eval_users: int
    zipf_s: float = 1.0          # item popularity exponent


def _user_counts(rng, spec, is_eval):
    """Ratings per user: lognormal activity, scaled to sum exactly to
    spec.ratings. Eval users get at least QUALIFYING + 5 ratings so that
    they keep a train history after the split."""
    floor = np.where(is_eval, QUALIFYING + 5, 3)
    cap = spec.items // 2
    spare = spec.ratings - int(floor.sum())
    if spare < 0 or spec.ratings > cap * spec.users:
        raise ValueError("ratings do not fit the user and item counts")
    weights = rng.lognormal(0.0, 1.0, spec.users)
    counts = floor.copy()
    while spare:
        room = cap - counts
        share = weights * (room > 0)
        raw = share / share.sum() * spare
        add = np.minimum(np.floor(raw).astype(np.int64), room)
        if add.sum() == 0:  # hand out the remainder by largest fraction
            order = np.argsort(-(raw - np.floor(raw)), kind="stable")
            add = np.zeros_like(counts)
            add[order[:spare]] = 1
            add = np.minimum(add, room)
        counts += add
        spare -= int(add.sum())
    return counts


def write_corpus(out_dir, spec, seed):
    """Write ratings.csv and items.csv into out_dir. Exactly spec.eval_users
    users qualify for evaluation."""
    rng = np.random.default_rng(seed)
    is_eval = np.zeros(spec.users, dtype=bool)
    is_eval[rng.choice(spec.users, size=spec.eval_users, replace=False)] = True
    counts = _user_counts(rng, spec, is_eval)

    # Zipf popularity over a seeded permutation of item ids; each item also
    # gets a latent quality so that ratings carry signal for kNN and MF.
    popularity = 1.0 / np.arange(1, spec.items + 1) ** spec.zipf_s
    log_pop = np.log(popularity[rng.permutation(spec.items)])
    quality = rng.normal(0.0, 1.0, spec.items)

    ts = 1_000_000_000
    with (out_dir / "ratings.csv").open("w", encoding="utf-8") as fh:
        fh.write("userId,itemId,rating,timestamp\n")
        for u in range(spec.users):
            m = int(counts[u])
            # Gumbel top-m: a Zipf-weighted sample without replacement
            keys = log_pop + rng.gumbel(size=spec.items)
            items = np.argpartition(-keys, m - 1)[:m]
            rng.shuffle(items)  # rating order = timestamp order
            taste = quality[items] + rng.normal(0.0, 1.0, m)
            if is_eval[u]:
                high = max(QUALIFYING, int(round(0.55 * m)))
            else:
                high = min(QUALIFYING - 1, int(round(0.4 * m)))
            stars = rng.choice(LOW_STARS, size=m)
            top = np.argsort(-taste, kind="stable")[:high]
            stars[top] = rng.choice(HIGH_STARS, size=high)
            fh.write("".join(f"u{u + 1},{i + 1},{r:g},{ts + k}\n"
                             for k, (i, r) in enumerate(zip(items, stars))))
            ts += m

    with (out_dir / "items.csv").open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "title", "genres", "language", "overview"])
        for i in range(spec.items):
            title_words = rng.choice(WORDS, size=int(rng.integers(1, 4)))
            genres = rng.choice(GENRES, size=int(rng.integers(1, 4)), replace=False)
            overview = rng.choice(WORDS, size=int(rng.integers(18, 40)))
            writer.writerow([i + 1, f"Film {i + 1}: " + " ".join(title_words).title(),
                             "|".join(genres), LANGUAGES[int(rng.integers(len(LANGUAGES)))],
                             " ".join(overview).capitalize() + "."])
