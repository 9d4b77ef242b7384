"""Chat-model backends: a deterministic scripted backend for tests/CI and an
HTTP backend speaking the standard chat-completions JSON protocol.

The HTTP stack (http.client, which brings ssl, socket and email) loads with
the first HttpBackend: it is about 2 MB of RSS that offline commands never use."""

import functools
import json
import logging
import operator
import os
import re
import threading
import time
import weakref
from dataclasses import dataclass, field, fields
from urllib.parse import urlsplit

from .errors import (BackendError, ExhaustedRetries, HttpStatus, RerankEvalError,
                     Timeout)
from .ingest import jsonl_objects

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


def setting(default, **rule):
    """A config field with its rule as its metadata; see check_settings."""
    return field(default=default, metadata=rule)


BOUNDS = {"min": (">=", operator.ge), "above": (">", operator.gt)}


def check_settings(config):
    """ValueError for the first field of the dataclass config that breaks the
    rule in its metadata: a lower bound, min (inclusive) or above (BOUNDS); or
    choices, where a bad value is an "unknown <noun>" (the field's name unless
    noun is given). A help line is shown by the CLI's help and checks nothing."""
    for f in fields(config):
        value, rule = getattr(config, f.name), f.metadata
        if "choices" in rule and value not in rule["choices"]:
            raise ValueError(f"unknown {rule.get('noun', f.name)}: {value}")
        for key, (sign, holds) in BOUNDS.items():
            if key in rule and not holds(value, rule[key]):
                raise ValueError(f"{f.name} must be {sign} {rule[key]}")


@dataclass
class BackendConfig:
    kind: str = setting("scripted", choices=("scripted", "http"), noun="backend kind")
    endpoint: str = ""
    model: str = ""
    api_key_env: str = setting("", help='env var holding the key; "" = no auth')
    timeout: float = setting(30.0, above=0)
    max_retries: int = setting(3, min=0)
    max_concurrent_requests: int = setting(4, min=1)
    backoff_base: float = setting(0.5, min=0, help="seconds; doubles per retry")
    fixtures_path: str = setting("", help="scripted backend fixture JSONL")

    def __post_init__(self):
        check_settings(self)
        if self.kind == "http" and (not self.endpoint or not self.model):
            raise ValueError("http backend requires endpoint and model")
        url = urlsplit(self.endpoint)
        if self.endpoint and (url.scheme not in ("http", "https")
                              or not _encodable_host(url.hostname)):
            raise ValueError(f"endpoint must be an http or https URL with a host, "
                             f"got {self.endpoint!r}")


def _encodable_host(host):
    """Whether host is non-empty and IDNA-encodable, as socket.getaddrinfo
    needs: no empty label and none over 63 characters."""
    if not host:
        return False
    try:
        host.encode("idna")
    except UnicodeError:
        return False
    return True


def make_backend(config):
    if config.kind == "http":
        return HttpBackend(config)
    fixtures = load_fixtures(config.fixtures_path) if config.fixtures_path else []
    return ScriptedBackend(fixtures)


def load_fixtures(path):
    """Fixture JSONL: one {prompt_contains, response} object per line."""
    return [(obj["prompt_contains"], obj["response"])
            for _, obj in jsonl_objects(path, ("prompt_contains", "response"))]


class ScriptedBackend:
    """Deterministic backend: answers from fixtures, a handler callable, or
    by echoing the prompt's candidate lines back in order."""

    def __init__(self, fixtures=None, handler=None):
        self.fixtures = list(fixtures or [])
        self.handler = handler

    def complete(self, request):
        for needle, response in self.fixtures:
            if needle in request.user_prompt or needle in request.system_prompt:
                return ChatResponse(text=response)
        if self.handler is not None:
            return ChatResponse(text=self.handler(request))
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
        import email.utils
        try:
            delay = email.utils.parsedate_to_datetime(value).timestamp() - time.time()
        except (TypeError, ValueError):
            return None
    if not delay >= 0:  # negative or NaN
        return None
    return min(delay, limit)


def _close_all(connections):
    for conn in connections:
        conn.close()


class HttpBackend:
    """POSTs chat-completions JSON and retries transient failures (timeouts,
    connection errors, 429, 5xx, malformed 200 payloads) with exponential
    backoff, or after the server's Retry-After on 429 and 503. The API key is
    read once, here; RerankEvalError when config.api_key_env names an unset
    variable. Nothing else is read from the environment: no proxy, no netrc,
    no CA bundle but the system's. Redirects are not followed."""

    def __init__(self, config):
        import http.client

        self.config = config
        # what complete retries as a failed connection or exchange
        self._transport_errors = (OSError, http.client.HTTPException)
        self._headers = {"Content-Type": "application/json"}
        if config.api_key_env:
            key = os.environ.get(config.api_key_env, "")
            if not key:
                raise RerankEvalError(f"environment variable {config.api_key_env} "
                                      "is not set")
            self._headers["Authorization"] = f"Bearer {key}"
        url = urlsplit(config.endpoint)
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        connection = (http.client.HTTPSConnection if url.scheme == "https"
                      else http.client.HTTPConnection)
        port = connection.default_port if url.port is None else url.port
        self._connect = functools.partial(connection, url.hostname, port,
                                          timeout=config.timeout)
        # kept-alive connections not in use: never more than were ever in
        # flight at once, and they outlive the pool threads that used them
        self._idle = []
        self._lock = threading.Lock()
        weakref.finalize(self, _close_all, self._idle)

    def _post(self, data):
        """(status, headers, body) of one POST of data to the endpoint."""
        import select

        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            conn = self._connect()
        elif conn.sock is not None and select.select([conn.sock], [], [], 0)[0]:
            conn.close()  # the server closed it while idle; request() reopens it
        try:
            conn.request("POST", self._path, data, self._headers)
            resp = conn.getresponse()
            return resp.status, resp.headers, resp.read()
        except BaseException:
            conn.close()  # so a half-read reply never reaches the next request
            raise
        finally:
            with self._lock:
                self._idle.append(conn)

    def complete(self, request):
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
        data = json.dumps(body, allow_nan=False).encode()

        start = time.monotonic()
        last_error = None
        delay = None   # the server's Retry-After for the next attempt
        for attempt in range(self.config.max_retries + 1):
            if attempt:
                time.sleep(self.config.backoff_base * 2 ** (attempt - 1)
                           if delay is None else delay)
            delay = None
            try:
                status, headers, reply = self._post(data)
            except TimeoutError:
                last_error = Timeout(f"no response within {self.config.timeout}s")
                continue
            except self._transport_errors as e:
                last_error = BackendError(f"{type(e).__name__}: {e}")
                continue
            if status == 200:
                try:
                    text = json.loads(reply)["choices"][0]["message"]["content"]
                    if not isinstance(text, str):
                        raise TypeError(f"content is {type(text).__name__}")
                except (KeyError, IndexError, TypeError, ValueError) as e:
                    last_error = BackendError(f"malformed completion payload: {e}")
                    continue
                return ChatResponse(text=text, latency=time.monotonic() - start,
                                    retry_count=attempt)
            last_error = HttpStatus(status, reply.decode("utf-8", "replace")[:200])
            if status not in RETRYABLE_STATUS:
                raise last_error
            if status in RETRY_AFTER_STATUS:
                delay = _retry_after(headers.get("Retry-After"), self.config.timeout)
        if self.config.max_retries == 0:
            raise last_error
        raise ExhaustedRetries(str(last_error))


def bounded_map(fn, items, cap, carry=()):
    """Yield fn(item) for each of items, in input order, with at most cap
    calls in flight. At cap 1 (or for one item) each call runs in the
    caller's thread when its result is asked for; otherwise cap threads take
    the items in order, and a result is yielded once it and every earlier
    one are done, and held only until then. An exception of a type in carry
    comes back in its item's place; any other stops the items not yet
    started and is raised once the running ones have finished. Closing the
    generator starts no further item and returns once the running ones have
    finished, so a caller that may stop early closes it (contextlib.closing)
    rather than leave the workers running behind a traceback. run and
    build-dataset each map their per-user step through it, so each user's
    requests go one after another and up to cap users run side by side."""
    items = list(items)
    if min(cap, len(items)) <= 1:
        for item in items:
            try:
                result = fn(item)
            except carry as e:
                result = e
            yield result
        return
    done = {}    # item index -> result not yet yielded
    errors = {}  # item index -> exception outside carry
    pending = iter(range(len(items)))
    ready = threading.Condition()
    stop = False

    def work():
        nonlocal stop
        while True:
            with ready:
                i = None if stop else next(pending, None)
            if i is None:
                return
            try:
                result = fn(items[i])
            except carry as e:
                result = e
            except BaseException as e:  # raised below, once every call has returned
                with ready:
                    errors[i] = e
                    stop = True
                    ready.notify()
                return
            with ready:
                done[i] = result
                ready.notify()

    threads = []
    try:
        for _ in range(min(cap, len(items))):
            thread = threading.Thread(target=work)
            thread.start()
            threads.append(thread)
        for i in range(len(items)):
            with ready:
                while i not in done and not errors:
                    ready.wait()
                if errors:
                    break
                result = done.pop(i)
            yield result
    finally:
        with ready:
            stop = True
        for thread in threads:
            thread.join()
    if errors:
        raise errors[min(errors)]

