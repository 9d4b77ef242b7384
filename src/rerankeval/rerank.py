"""Re-ranking pipeline: prompt construction, output parsing, bootstrapped
shuffles, and self-consistency aggregation by summed position index.
rerank_user sends one user's bootstrap requests in sequence and returns
the consensus with every parsed output; callers run users side by side
(cli.cmd_run through bounded_map), and cmd_run's per-user step keeps only
the consensus, so each user's outputs die with that step."""

import re
from dataclasses import dataclass

import numpy as np

from .candgen import Slate, stable_seed
from .errors import BackendError, RerankEvalError, UnknownItem
from .llm_client import ChatRequest

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
    text = catalog.description(item)
    if text is None:
        raise UnknownItem(f"item {item} not in the catalog")
    return text


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


def parse_ranking(raw, slate, catalog=None):
    """Parse model output lines of the form "Rank k: <item> - <reason>".

    Lines outside that grammar are skipped. Items are matched by id first,
    then by normalized title against the slate's catalog cards. Duplicates
    keep the first occurrence; unresolvable tokens are recorded as
    hallucinated; ranks are renumbered contiguously by order of appearance.
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
        m = _RANK_LINE.match(line)
        if not m:
            continue
        token, _, reason = m.group(2).partition(" - ")
        item = _resolve_item(token, slate_set, title_map)
        if item is None:
            hallucinated.add(token.strip())
            continue
        if item in seen:
            continue
        seen.add(item)
        ranked.append(RankedItem(item=item, rank=len(ranked) + 1, reason=reason.strip()))

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
    rng = np.random.default_rng(stable_seed(seed, "shuffle", slate.user, k))
    return [Slate(user=slate.user, source=slate.source,
                  items=[slate.items[i] for i in rng.permutation(len(slate.items))])
            for _ in range(k)]


def aggregate_self_consistency(outputs, slate):
    """Sum each item's position index across the outputs; omitted items incur
    a |slate|+1 penalty per output. Lower totals rank higher; ties break by
    item id ascending."""
    if not outputs:
        raise RerankEvalError("need at least one ranking output")
    slate_set = set(slate.items)
    penalty = len(slate.items) + 1
    scores = {item: 0 for item in slate.items}
    for out in outputs:
        mentioned = {r.item for r in out.ranked}
        if not mentioned <= slate_set:
            raise RerankEvalError(f"output for user {out.user} ranks items outside the slate")
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


def rerank_user(history, slate, catalog, backend, k=3, mode="zero_shot", seed=0,
                temperature=0.7):
    """Re-rank one user's slate: shuffle k times, then prompt, complete and
    parse each shuffle in turn, and aggregate. A failed request degrades to
    an all-missing output; if no bootstrap ranks any item the original slate
    order is returned with the fallback flag set (the caller logs it, in
    user order). Returns (consensus, outputs)."""
    outputs = []
    for n, shuffled in enumerate(bootstrap_shuffles(slate, k, seed)):
        system, user = build_prompt(history, shuffled, catalog, mode=mode)
        try:
            text = backend.complete(ChatRequest(
                system_prompt=system, user_prompt=user, temperature=temperature,
                seed=stable_seed(seed, "req", slate.user, n) % 2**31)).text
        except BackendError:
            text = ""
        outputs.append(parse_ranking(text, shuffled, catalog=catalog))
    if any(out.ranked for out in outputs):
        return aggregate_self_consistency(outputs, slate), outputs
    consensus = none_ranker(slate)
    consensus.fallback = True
    return consensus, outputs
