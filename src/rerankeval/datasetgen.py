"""Training-data construction: SFT positive samples with per-item reasons,
and DPO chosen/rejected pairs from shuffled rankings."""

import hashlib
import json
import logging
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .candgen import Slate, stable_seed
from .errors import GenerationOrderDrift
from .llm_client import ChatRequest
from .rerank import build_prompt, parse_ranking

log = logging.getLogger(__name__)

OFFLINE_REASON = "Fits the user's taste based on their history."


@dataclass
class SftSample:
    prompt: str
    completion: str


@dataclass
class DpoPair:
    prompt: str
    chosen: str
    rejected: str


def _completion_from_reasons(ranking, reasons):
    return "\n".join(
        f"Rank {k}: {item} - {reasons[item]}"
        for k, item in enumerate(ranking, start=1)
    )


def make_positive_sample(backend, history, correct_ranking, catalog):
    """Build an SFT sample whose completion is the correct order with one
    generated reason per item.

    The completion is validated by re-parsing: if the backend reordered the
    items, the generation is retried once, then GenerationOrderDrift is
    raised so the caller can drop the sample.
    """
    slate = Slate(user=history.user, items=list(correct_ranking), source="training")
    system, prompt = build_prompt(history, slate, catalog, mode="trained")

    if backend is None:
        reasons = {item: OFFLINE_REASON for item in correct_ranking}
        completion = _completion_from_reasons(correct_ranking, reasons)
        return SftSample(prompt=prompt, completion=completion)

    gen_system = (
        "Given the user's history and candidate movies, the candidates are "
        "already in the correct ranked order. For each candidate, in the "
        "given order, write one line:\nRank <k>: <item id> - <reason>\n"
        "Keep the given order exactly; do not reorder."
    )
    request = ChatRequest(system_prompt=gen_system, user_prompt=prompt,
                          temperature=0.0, max_tokens=2048)
    for attempt in range(2):
        text = backend.complete(request).text
        parsed = parse_ranking(text, slate, catalog=catalog, lenient=True)
        if [r.item for r in parsed.ranked] == list(correct_ranking):
            reasons = {r.item: r.reason or OFFLINE_REASON for r in parsed.ranked}
            return SftSample(prompt=prompt,
                             completion=_completion_from_reasons(correct_ranking, reasons))
        log.debug("generation drifted from the target order (attempt %d)", attempt + 1)
    raise GenerationOrderDrift(f"backend reordered items for user {history.user}")


def make_dpo_pair(positive, seed, backend=None):
    """Derive a DPO pair: chosen is the positive completion, rejected is a
    seeded non-identity permutation of its lines with ranks renumbered.

    Reasons are carried over verbatim (deterministic offline mode) unless a
    backend is supplied to regenerate them for the shuffled order.
    """
    lines = positive.completion.splitlines()
    n = len(lines)
    if n < 2:
        raise ValueError("need at least 2 ranked items to build a rejected order")
    rng = np.random.default_rng(stable_seed(seed, "dpo", positive.prompt))
    perm = rng.permutation(n)
    while all(int(p) == i for i, p in enumerate(perm)):
        perm = rng.permutation(n)

    rejected_lines = []
    for new_rank, src in enumerate(perm, start=1):
        body = lines[src].split(":", 1)[1].strip()
        rejected_lines.append(f"Rank {new_rank}: {body}")
    rejected = "\n".join(rejected_lines)

    if backend is not None:
        request = ChatRequest(
            system_prompt=("For each line, keep the rank and item id but "
                           "rewrite the reason after ' - ' to justify this "
                           "order. Output the same number of lines."),
            user_prompt=rejected, temperature=0.0, max_tokens=2048)
        text = backend.complete(request).text.strip()
        if len(text.splitlines()) == n:
            rejected = text
    return DpoPair(prompt=positive.prompt, chosen=positive.completion,
                   rejected=rejected)


def _atomic_write(path, text):
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_training_files(samples, pairs, out_dir):
    """Emit sft.jsonl, dpo.jsonl and a manifest with counts and sha256 hashes."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    sft_text = "".join(
        json.dumps({"prompt": s.prompt, "completion": s.completion}) + "\n"
        for s in samples)
    dpo_text = "".join(
        json.dumps({"prompt": p.prompt, "chosen": p.chosen, "rejected": p.rejected}) + "\n"
        for p in pairs)

    sft_path = out_dir / "sft.jsonl"
    dpo_path = out_dir / "dpo.jsonl"
    _atomic_write(sft_path, sft_text)
    _atomic_write(dpo_path, dpo_text)

    manifest = {
        "sft": {"path": sft_path.name, "count": len(samples),
                "sha256": hashlib.sha256(sft_text.encode()).hexdigest()},
        "dpo": {"path": dpo_path.name, "count": len(pairs),
                "sha256": hashlib.sha256(dpo_text.encode()).hexdigest()},
    }
    _atomic_write(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")
    return manifest


def correct_ranking_for_user(relevance, test_interactions, catalog, size, seed):
    """Ground-truth training order: held-out relevant items by rating then
    recency, padded with a seeded sample of the catalog's other items."""
    by_item = {r.item: r for r in test_interactions if r.item in relevance.relevant}
    ranked_relevant = sorted(
        relevance.relevant,
        key=lambda i: (-(by_item[i].rating if i in by_item else 0.0),
                       -(by_item[i].timestamp if i in by_item else 0), i))
    ranking = [i for i in ranked_relevant if i in catalog][:size]
    if len(ranking) < size:
        pool = [i for i in catalog.sorted_ids if i not in relevance.relevant]
        rng = np.random.default_rng(stable_seed(seed, "filler", relevance.user))
        need = min(size - len(ranking), len(pool))
        picks = rng.choice(len(pool), size=need, replace=False) if need else []
        ranking.extend(pool[int(p)] for p in picks)
    return ranking
