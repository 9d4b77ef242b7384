"""Chat-model backends: a deterministic scripted backend for tests/CI and an
HTTP backend speaking the standard chat-completions JSON protocol."""

import email.utils
import json
import logging
import os
import re
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass
from pathlib import Path

import requests
from requests.adapters import HTTPAdapter

from .errors import (BackendError, ExhaustedRetries, HttpStatus,
                     MissingApiKey, Timeout)

log = logging.getLogger(__name__)

RETRYABLE_STATUS = {429, 500, 502, 503, 504}
RETRY_AFTER_STATUS = {429, 503}


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

    def __init__(self, fixtures=None, handler=None, default=None):
        self.fixtures = list(fixtures or [])
        self.handler = handler
        self.default = default
        self.max_concurrent_requests = 4

    def complete(self, request):
        for needle, response in self.fixtures:
            if needle in request.user_prompt or needle in request.system_prompt:
                return ChatResponse(text=response)
        if self.handler is not None:
            return ChatResponse(text=self.handler(request))
        if self.default is not None:
            return ChatResponse(text=self.default)
        return ChatResponse(text=_echo_candidates(request.user_prompt))


_CANDIDATE_LINE = re.compile(r"^\s*\d+\.\s*\[([^\]]+)\]", re.MULTILINE)


def _echo_candidates(user_prompt):
    """Return the prompt's candidate list in its given order, one rank line
    per item. Used as the scripted default so CI runs need no fixtures."""
    block = user_prompt.split("Candidates:", 1)
    ids = _CANDIDATE_LINE.findall(block[1] if len(block) == 2 else user_prompt)
    return "\n".join(f"Rank {k}: {i} - scripted echo" for k, i in enumerate(ids, start=1))


def _retry_after(value, limit):
    """Seconds to wait from a Retry-After header value (delta-seconds or an
    HTTP-date), at most limit; None when the value is missing, negative or
    unparseable."""
    if value is None:
        return None
    try:
        delay = float(value)
    except ValueError:
        try:
            delay = email.utils.parsedate_to_datetime(value).timestamp() - time.time()
        except (TypeError, ValueError):
            return None
    if not delay >= 0:  # negative or NaN
        return None
    return min(delay, limit)


class HttpBackend:
    """POSTs chat-completions JSON and retries transient failures (timeouts,
    429, 5xx, malformed 200 payloads) with exponential backoff, or after the
    server's Retry-After on 429 and 503."""

    def __init__(self, config):
        self.config = config
        self.max_concurrent_requests = config.max_concurrent_requests
        self._session = requests.Session()
        # one kept-alive connection per request in flight; urllib3's default
        # of 10 would discard and reopen connections above a cap of 10
        adapter = HTTPAdapter(pool_maxsize=config.max_concurrent_requests)
        self._session.mount("http://", adapter)
        self._session.mount("https://", adapter)

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
        delay = None   # the server's Retry-After for the next attempt
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                time.sleep(self.config.backoff_base * 2 ** (attempt - 1)
                           if delay is None else delay)
            delay = None
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
                    if not isinstance(text, str):
                        raise TypeError(f"content is {type(text).__name__}")
                except (KeyError, IndexError, TypeError, ValueError) as e:
                    last_error = BackendError(f"malformed completion payload: {e}")
                    continue
                return ChatResponse(text=text, latency=time.monotonic() - start,
                                    retry_count=attempt)
            last_error = HttpStatus(resp.status_code, resp.text[:200])
            if resp.status_code not in RETRYABLE_STATUS:
                raise last_error
            if resp.status_code in RETRY_AFTER_STATUS:
                delay = _retry_after(resp.headers.get("Retry-After"),
                                     self.config.timeout)
        if self.config.max_retries == 0:
            raise last_error
        raise ExhaustedRetries(str(last_error))


def bounded_map(fn, items, cap, carry=()):
    """fn over items on a pool of at most cap threads, so at most cap calls
    are in flight. Results align with input order. An exception of a type in
    carry comes back in its item's place; any other cancels the items not yet
    started and is raised once the running ones have finished."""
    def run_one(item):
        try:
            return fn(item)
        except carry as e:
            return e

    pool = ThreadPoolExecutor(max_workers=cap)
    try:
        futures = [pool.submit(run_one, item) for item in items]
        wait(futures, return_when=FIRST_EXCEPTION)
    finally:
        pool.shutdown(cancel_futures=True)
    for fut in futures:
        if not fut.cancelled() and fut.exception() is not None:
            raise fut.exception()
    return [fut.result() for fut in futures]


def complete_batch(backend, requests_list):
    """Run requests through the backend with at most max_concurrent_requests
    in flight. Results align with input order; per-item failures come back as
    exception objects rather than aborting the batch."""
    if not requests_list:
        raise ValueError("empty request batch")
    return bounded_map(backend.complete, requests_list,
                       backend.max_concurrent_requests, carry=Exception)
