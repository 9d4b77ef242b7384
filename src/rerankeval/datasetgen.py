"""Training-data construction: SFT positive samples with per-item reasons,
and DPO chosen/rejected pairs from shuffled rankings."""

import hashlib
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .candgen import Slate, stable_seed
from .errors import GenerationOrderDrift
from .ingest import commit
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
    _, prompt = build_prompt(history, slate, catalog, mode="trained")

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
        parsed = parse_ranking(text, slate, catalog=catalog)
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
    backend is supplied to regenerate them for the shuffled order. A rewrite
    is kept only when it has one line per item and parses as the shuffled
    items in the shuffled order; otherwise the verbatim lines stay.
    """
    lines = positive.completion.splitlines()
    n = len(lines)
    if n < 2:
        raise ValueError("need at least 2 ranked items to build a rejected order")
    rng = np.random.default_rng(stable_seed(seed, "dpo", positive.prompt))
    perm = rng.permutation(n)
    while all(int(p) == i for i, p in enumerate(perm)):
        perm = rng.permutation(n)

    bodies = [lines[src].split(":", 1)[1].strip() for src in perm]
    rejected = "\n".join(f"Rank {k}: {body}" for k, body in enumerate(bodies, start=1))

    if backend is not None:
        request = ChatRequest(
            system_prompt=("For each line, keep the rank and item id but "
                           "rewrite the reason after ' - ' to justify this "
                           "order. Output the same number of lines."),
            user_prompt=rejected, temperature=0.0, max_tokens=2048)
        text = backend.complete(request).text.strip()
        order = [body.partition(" - ")[0] for body in bodies]
        parsed = parse_ranking(text, Slate(user="", items=order, source="training"))
        if len(text.splitlines()) == n and [r.item for r in parsed.ranked] == order:
            rejected = text
    return DpoPair(prompt=positive.prompt, chosen=positive.completion,
                   rejected=rejected)


def _jsonl_lines(sample, pair):
    """The sft.jsonl and dpo.jsonl lines of a sample and its pair, whose
    prompt and chosen are the sample's prompt and completion: each of those
    is JSON-encoded once, for both lines, to the bytes json.dumps gives the
    whole objects."""
    prompt, completion = json.dumps(sample.prompt), json.dumps(sample.completion)
    return (f'{{"prompt": {prompt}, "completion": {completion}}}\n',
            f'{{"prompt": {prompt}, "chosen": {completion}, '
            f'"rejected": {json.dumps(pair.rejected)}}}\n')


def write_training_files(built, out_dir):
    """Emit sft.jsonl, dpo.jsonl and a manifest with counts and sha256 hashes.
    built is an iterable of (sample, make_dpo_pair's pair of that sample),
    taken one at a time: each is written, hashed and counted as it comes, and
    the files are committed with the manifest last. If a line, a write or
    built itself fails, no file changes."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    sft_sha, dpo_sha = hashlib.sha256(), hashlib.sha256()
    count = 0
    names = ("sft.jsonl", "dpo.jsonl", "manifest.json")
    with commit(*(out_dir / name for name in names)) as (sft, dpo, manifest_file):
        for count, (sample, pair) in enumerate(built, start=1):
            for fh, sha, line in zip((sft, dpo), (sft_sha, dpo_sha), _jsonl_lines(sample, pair)):
                data = line.encode()
                sha.update(data)
                fh.write(data)
        manifest = {
            "sft": {"path": "sft.jsonl", "count": count, "sha256": sft_sha.hexdigest()},
            "dpo": {"path": "dpo.jsonl", "count": count, "sha256": dpo_sha.hexdigest()},
        }
        manifest_file.write(json.dumps(manifest, indent=2).encode() + b"\n")
    return manifest


def correct_ranking_for_user(relevance, test_entries, catalog, size, seed):
    """Ground-truth training order: held-out relevant items by rating then
    recency, padded with a seeded sample of the catalog's other items.

    test_entries are the user's held-out (item, rating, timestamp) rows, one
    for each relevant item, as split_leave_n_out's test table holds them.
    """
    ranked_relevant = sorted(test_entries, key=lambda e: (-e[1], -e[2], e[0]))
    ranking = [i for i, _, _ in ranked_relevant if i in catalog][:size]
    if len(ranking) < size:
        pool = catalog.positions_without(relevance.relevant)
        rng = np.random.default_rng(stable_seed(seed, "filler", relevance.user))
        picks = rng.choice(len(pool), size=min(size - len(ranking), len(pool)), replace=False)
        ranking += catalog.ids[pool[picks]].tolist()
    return ranking
