"""Chat-model backends: a deterministic scripted backend for tests/CI and an
HTTP backend speaking the standard chat-completions JSON protocol."""

import json
import logging
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import requests

from .errors import (BackendError, ExhaustedRetries, HttpStatus,
                     MissingApiKey, Timeout)

log = logging.getLogger(__name__)

RETRYABLE_STATUS = {429, 500, 502, 503, 504}


@dataclass
class ChatRequest:
    system_prompt: str
    user_prompt: str
    temperature: float = 0.7
    max_tokens: int = 1024
    seed: int | None = None


@dataclass
class ChatResponse:
    text: str
    latency: float = 0.0
    backend_id: str = ""
    retry_count: int = 0


@dataclass
class BackendConfig:
    kind: str = "scripted"          # "scripted" | "http"
    endpoint: str = ""
    model: str = ""
    api_key_env: str = ""           # env var holding the key; "" = no auth
    timeout: float = 30.0
    max_retries: int = 3
    max_concurrent_requests: int = 4
    backoff_base: float = 0.5       # seconds; doubles per retry
    fixtures_path: str = ""         # scripted backend fixture JSONL

    def __post_init__(self):
        if self.kind == "http" and (not self.endpoint or not self.model):
            raise ValueError("http backend requires endpoint and model")
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.max_concurrent_requests < 1:
            raise ValueError("max_concurrent_requests must be >= 1")


def make_backend(config):
    if config.kind == "scripted":
        fixtures = load_fixtures(config.fixtures_path) if config.fixtures_path else []
        backend = ScriptedBackend(fixtures=fixtures)
    elif config.kind == "http":
        backend = HttpBackend(config)
    else:
        raise ValueError(f"unknown backend kind: {config.kind}")
    backend.max_concurrent_requests = config.max_concurrent_requests
    return backend


def load_fixtures(path):
    """Fixture JSONL: one {prompt_contains, response} object per line."""
    fixtures = []
    with Path(path).open(encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                obj = json.loads(line)
                fixtures.append((obj["prompt_contains"], obj["response"]))
    return fixtures


class ScriptedBackend:
    """Deterministic backend: answers from fixtures, a handler callable, or a
    default that echoes the prompt's candidate lines back in order."""

    backend_id = "scripted"

    def __init__(self, fixtures=None, handler=None, default=None):
        self.fixtures = list(fixtures or [])
        self.handler = handler
        self.default = default
        self.max_concurrent_requests = 4

    def complete(self, request):
        for needle, response in self.fixtures:
            if needle in request.user_prompt or needle in request.system_prompt:
                return ChatResponse(text=response, backend_id=self.backend_id)
        if self.handler is not None:
            return ChatResponse(text=self.handler(request), backend_id=self.backend_id)
        if self.default is not None:
            return ChatResponse(text=self.default, backend_id=self.backend_id)
        return ChatResponse(text=_echo_candidates(request.user_prompt),
                            backend_id=self.backend_id)


_CANDIDATE_LINE = re.compile(r"^\s*\d+\.\s*\[([^\]]+)\]", re.MULTILINE)


def _echo_candidates(user_prompt):
    """Return the prompt's candidate list in its given order, one rank line
    per item. Used as the scripted default so CI runs need no fixtures."""
    block = user_prompt.split("Candidates:", 1)
    ids = _CANDIDATE_LINE.findall(block[1] if len(block) == 2 else user_prompt)
    return "\n".join(f"Rank {k}: {i} - scripted echo" for k, i in enumerate(ids, start=1))


class HttpBackend:
    """POSTs chat-completions JSON and retries transient failures (timeouts,
    429, 5xx) with exponential backoff."""

    def __init__(self, config):
        self.config = config
        self.backend_id = f"http:{config.model}"
        self.max_concurrent_requests = config.max_concurrent_requests
        self._session = requests.Session()

    def _headers(self):
        headers = {"Content-Type": "application/json"}
        env = self.config.api_key_env
        if env:
            key = os.environ.get(env, "")
            if not key:
                raise MissingApiKey(f"environment variable {env} is not set")
            headers["Authorization"] = f"Bearer {key}"
        return headers

    def complete(self, request):
        headers = self._headers()
        body = {
            "model": self.config.model,
            "messages": [
                {"role": "system", "content": request.system_prompt},
                {"role": "user", "content": request.user_prompt},
            ],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        if request.seed is not None:
            body["seed"] = request.seed

        start = time.monotonic()
        last_error = None
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                time.sleep(self.config.backoff_base * 2 ** (attempt - 1))
            try:
                resp = self._session.post(self.config.endpoint, json=body,
                                          headers=headers,
                                          timeout=self.config.timeout)
            except requests.Timeout:
                last_error = Timeout(f"no response within {self.config.timeout}s")
                continue
            except requests.RequestException as e:
                last_error = BackendError(str(e))
                continue
            if resp.status_code == 200:
                try:
                    text = resp.json()["choices"][0]["message"]["content"]
                except (KeyError, IndexError, ValueError) as e:
                    raise BackendError(f"malformed completion payload: {e}") from None
                return ChatResponse(text=text,
                                    latency=time.monotonic() - start,
                                    backend_id=self.backend_id,
                                    retry_count=attempt)
            last_error = HttpStatus(resp.status_code, resp.text[:200])
            if resp.status_code not in RETRYABLE_STATUS:
                raise last_error
        if self.config.max_retries == 0:
            raise last_error
        raise ExhaustedRetries(str(last_error))


def complete_batch(backend, requests_list):
    """Run requests through the backend with at most max_concurrent_requests
    in flight. Results align with input order; per-item failures come back as
    exception objects rather than aborting the batch."""
    if not requests_list:
        raise ValueError("empty request batch")
    cap = max(1, getattr(backend, "max_concurrent_requests", 1))
    results = [None] * len(requests_list)

    def run_one(idx_req):
        idx, req = idx_req
        try:
            return idx, backend.complete(req)
        except Exception as e:  # carried in results, re-raised by callers
            return idx, e

    with ThreadPoolExecutor(max_workers=cap) as pool:
        for idx, result in pool.map(run_one, enumerate(requests_list)):
            results[idx] = result
    return results
