"""Re-ranking pipeline: prompt construction, output parsing, bootstrapped
shuffles, and self-consistency aggregation by summed position index."""

import logging
import re
from dataclasses import dataclass

import numpy as np

from .candgen import Slate, stable_seed
from .errors import EmptyOutputs, SlateMismatch, UnknownItem, UnparseableOutput
from .ingest import build_item_description
from .llm_client import ChatRequest, complete_batch

log = logging.getLogger(__name__)

SYSTEM_PROMPT_ZERO_SHOT = (
    "You are a movie recommendation assistant. Given a user's viewing history "
    "and a list of candidate movies, re-rank ALL candidates from most to least "
    "suitable for this user. Output exactly one line per candidate, in the "
    "form:\nRank <k>: <item id> - <reason>\n"
    "Use each candidate's item id (the number in square brackets). Do not add "
    "any other text."
)

SYSTEM_PROMPT_TRAINED = (
    "Re-rank the candidate movies for this user based on their viewing "
    "history. Output exactly one line per candidate, in the form:\n"
    "Rank <k>: <item id> - <reason>\n"
    "Use each candidate's item id (the number in square brackets). Do not add "
    "any other text."
)


@dataclass
class RankedItem:
    item: str
    rank: int
    reason: str = ""


@dataclass
class RankingOutput:
    user: str
    ranked: list            # of RankedItem, ranks contiguous from 1
    raw_text: str
    missing: set            # slate items the model never mentioned
    hallucinated: set       # tokens that resolved to nothing in the slate


@dataclass
class ConsensusRanking:
    user: str
    ordered: list           # of (item, cumulative position score), score ascending
    fallback: bool = False  # True when every bootstrap failed and the
                            # original slate order was used

    @property
    def items(self):
        return [item for item, _ in self.ordered]


def _describe(item, catalog):
    card = catalog.get(item)
    if card is None:
        raise UnknownItem(f"item {item} not in the catalog")
    return build_item_description(card)


def build_prompt(history, slate, catalog, mode="zero_shot"):
    """Deterministic (system, user) prompt pair: a rated history block plus
    the candidate list in slate order. UnknownItem or EmptyTitle when an
    item has no card or no title to show."""
    lines = ["User history:"]
    for item, rating, _ts in history.entries:
        lines.append(f"- {_describe(item, catalog)} (rated {rating:g})")
    lines.append("")
    lines.append("Candidates:")
    for pos, item in enumerate(slate.items, start=1):
        lines.append(f"{pos}. {_describe(item, catalog)}")
    system = SYSTEM_PROMPT_TRAINED if mode == "trained" else SYSTEM_PROMPT_ZERO_SHOT
    return system, "\n".join(lines)


_RANK_LINE = re.compile(r"^\s*rank\s*(\d+)\s*:\s*(.*\S)\s*$", re.IGNORECASE)
_PUNCT = re.compile(r"[^\w\s]")


def _normalize_title(text):
    return " ".join(_PUNCT.sub(" ", text.lower()).split())


def _resolve_item(token, slate_set, title_map):
    """Resolve a rank-line item token: exact/bracketed id first, then
    normalized title."""
    token = token.strip()
    if token in slate_set:
        return token
    m = re.match(r"^\[([^\]]+)\]", token)
    if m and m.group(1).strip() in slate_set:
        return m.group(1).strip()
    first = token.split(None, 1)[0].strip("[]().,:;") if token else ""
    if first in slate_set:
        return first
    if title_map:
        norm = _normalize_title(token)
        if norm in title_map:
            return title_map[norm]
    return None


def parse_ranking(raw, slate, catalog=None, lenient=False):
    """Parse model output lines of the form "Rank k: <item> - <reason>".

    Items are matched by id first, then by normalized title against the
    slate's catalog cards. Duplicates keep the first occurrence; unresolvable
    tokens are recorded as hallucinated (error in strict mode); ranks are
    renumbered contiguously by order of appearance.
    """
    slate_set = set(slate.items)
    title_map = {}
    if catalog is not None:
        for item in slate.items:
            card = catalog.get(item)
            if card is not None and card.title:
                title_map[_normalize_title(card.title)] = item

    ranked = []
    seen = set()
    hallucinated = set()
    for line in raw.splitlines():
        if not line.strip():
            continue
        m = _RANK_LINE.match(line)
        if not m:
            if lenient:
                continue
            raise UnparseableOutput(f"line fails grammar: {line!r}")
        body = m.group(2)
        token, _, reason = body.partition(" - ")
        item = _resolve_item(token, slate_set, title_map)
        if item is None:
            if not lenient:
                raise UnparseableOutput(f"unknown item token: {token!r}")
            hallucinated.add(token.strip())
            continue
        if item in seen:
            continue
        seen.add(item)
        reason = reason.strip()
        if not reason and not lenient:
            raise UnparseableOutput(f"missing reason: {line!r}")
        ranked.append(RankedItem(item=item, rank=len(ranked) + 1, reason=reason))

    if not ranked and not lenient:
        raise UnparseableOutput("no slate items recovered")
    return RankingOutput(
        user=slate.user,
        ranked=ranked,
        raw_text=raw,
        missing=slate_set - seen,
        hallucinated=hallucinated,
    )


def bootstrap_shuffles(slate, k, seed):
    """k independent uniform permutations of the slate, deterministic per
    (seed, user, k)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    rng = np.random.default_rng(stable_seed(seed, "shuffle", slate.user, k))
    shuffles = []
    for _ in range(k):
        perm = rng.permutation(len(slate.items))
        shuffles.append(Slate(user=slate.user,
                              items=[slate.items[i] for i in perm],
                              source=slate.source))
    return shuffles


def aggregate_self_consistency(outputs, slate):
    """Sum each item's position index across the outputs; omitted items incur
    a |slate|+1 penalty per output. Lower totals rank higher; ties break by
    item id ascending."""
    if not outputs:
        raise EmptyOutputs("need at least one ranking output")
    slate_set = set(slate.items)
    penalty = len(slate.items) + 1
    scores = {item: 0 for item in slate.items}
    for out in outputs:
        mentioned = {r.item for r in out.ranked}
        if not mentioned <= slate_set:
            raise SlateMismatch(f"output for user {out.user} ranks items outside the slate")
        for r in out.ranked:
            scores[r.item] += r.rank
        for item in slate_set - mentioned:
            scores[item] += penalty
    ordered = sorted(scores.items(), key=lambda t: (t[1], t[0]))
    return ConsensusRanking(user=slate.user, ordered=ordered)


def none_ranker(slate):
    """Identity baseline: the slate in its original first-stage order."""
    return ConsensusRanking(
        user=slate.user,
        ordered=[(item, pos) for pos, item in enumerate(slate.items, start=1)],
    )


def rerank_user(history, slate, catalog, backend, k=3, mode="zero_shot",
                seed=0, temperature=0.7):
    """Full per-user pipeline: rerank_users for one (history, slate) job."""
    return rerank_users([(history, slate)], catalog, backend, k=k, mode=mode,
                        seed=seed, temperature=temperature)[0]


def rerank_users(jobs, catalog, backend, k=3, mode="zero_shot", seed=0,
                 temperature=0.7):
    """Re-rank each (history, slate) job: shuffle k times, prompt, complete,
    parse leniently, and aggregate. Every job's requests go through one
    complete_batch, so up to the backend's max_concurrent_requests are in
    flight across users; results are keyed by (job, bootstrap), so the
    output does not depend on completion order. A failed request degrades
    to an all-missing output; if no bootstrap ranks any item the original
    slate order is returned with the fallback flag set. Returns one
    (consensus, outputs) pair per job, in job order."""
    shuffles = [bootstrap_shuffles(slate, k, seed) for _, slate in jobs]
    requests = []
    for (history, slate), user_shuffles in zip(jobs, shuffles):
        for n, shuffled in enumerate(user_shuffles):
            system, user = build_prompt(history, shuffled, catalog, mode=mode)
            requests.append(ChatRequest(
                system_prompt=system, user_prompt=user, temperature=temperature,
                seed=stable_seed(seed, "req", slate.user, n) % 2**31))
    results = complete_batch(backend, requests)

    ranked = []
    for j, ((_history, slate), user_shuffles) in enumerate(zip(jobs, shuffles)):
        outputs = []
        for shuffled, result in zip(user_shuffles, results[j * k:(j + 1) * k]):
            if isinstance(result, Exception):
                outputs.append(RankingOutput(user=slate.user, ranked=[], raw_text="",
                                             missing=set(slate.items),
                                             hallucinated=set()))
            else:
                outputs.append(parse_ranking(result.text, shuffled, catalog=catalog,
                                             lenient=True))
        if any(out.ranked for out in outputs):
            ranked.append((aggregate_self_consistency(outputs, slate), outputs))
        else:
            log.warning("all %d bootstraps failed for user %s; using original "
                        "slate order", k, slate.user)
            consensus = none_ranker(slate)
            consensus.fallback = True
            ranked.append((consensus, outputs))
    return ranked
