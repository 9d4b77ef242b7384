import email.utils
import json
import os
import socket
import subprocess
import sys
import threading
import time
from collections import Counter
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from rerankeval import llm_client
from rerankeval.errors import (BackendError, ExhaustedRetries, HttpStatus,
                               RerankEvalError, Timeout)
from rerankeval.llm_client import (BackendConfig, ChatRequest, HttpBackend,
                                   ScriptedBackend, bounded_map,
                                   load_fixtures, make_backend)


def req(text="hello", **kw):
    return ChatRequest(system_prompt="sys", user_prompt=text, **kw)


def complete_all(backend, requests_list, cap):
    """Every request's response, or its BackendError, in input order, with
    at most cap in flight."""
    return list(bounded_map(backend.complete, requests_list, cap, carry=BackendError))


class StubState:
    """Scriptable chat-completions stub: per-request replies, fixture
    responses, in-flight concurrency and client-port tracking."""

    def __init__(self):
        # consumed per request; empty -> 200 with a fixture answer. An entry
        # is a status code, or (status, headers) or (200, raw body bytes).
        self.status_script = []
        self.fixtures = []        # (prompt_contains, response)
        self.lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0
        self.requests_seen = 0
        self.client_ports = set()
        self.received = []        # (request target, Authorization) per request
        self.bodies = []          # the JSON body of each request
        self.hold = threading.Event()
        self.hold.set()
        self.release_at = None    # set hold once this many are in flight
        self.close_next = False   # close the kept-alive connection after a reply
        self.closed = threading.Event()  # set when the server closes a connection

    def respond_for(self, prompt):
        for needle, response in self.fixtures:
            if needle in prompt:
                return response
        return "Rank 1: 1 - stub default"


def make_stub():
    state = StubState()

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"   # keep-alive, so connection reuse shows

        def log_message(self, *args):
            pass

        def reply(self, status, data=b"", headers=()):
            self.send_response(status)
            for key, value in headers:
                self.send_header(key, value)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_POST(self):
            with state.lock:
                state.requests_seen += 1
                state.client_ports.add(self.client_address[1])
                state.received.append((self.path, self.headers.get("Authorization")))
                state.in_flight += 1
                state.max_in_flight = max(state.max_in_flight, state.in_flight)
                if state.in_flight == state.release_at:
                    state.hold.set()
                entry = state.status_script.pop(0) if state.status_script else 200
            status, extra = entry if isinstance(entry, tuple) else (entry, None)
            try:
                state.hold.wait(timeout=5)
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                with state.lock:
                    state.bodies.append(body)
                if status != 200:
                    self.reply(status, headers=(extra or {}).items())
                elif extra is not None:
                    self.reply(200, extra, [("Content-Type", "application/json")])
                else:
                    prompt = body["messages"][-1]["content"]
                    payload = {"choices": [{"message": {
                        "content": state.respond_for(prompt)}}]}
                    self.reply(200, json.dumps(payload).encode(),
                               [("Content-Type", "application/json")])
                if state.close_next:
                    # no Connection: close header; the client sees a closed socket
                    self.close_connection, state.close_next = True, False
            finally:
                with state.lock:
                    state.in_flight -= 1

    class Server(ThreadingHTTPServer):
        def handle_error(self, request, client_address):
            # a client that timed out has closed its socket; the late
            # reply to it is expected to fail
            if not isinstance(sys.exc_info()[1], ConnectionError):
                super().handle_error(request, client_address)

        def shutdown_request(self, request):
            super().shutdown_request(request)
            state.closed.set()

    server = Server(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    return server, state


@pytest.fixture
def stub():
    server, state = make_stub()
    url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    yield url, state
    server.shutdown()
    server.server_close()


@pytest.fixture
def sleeps(monkeypatch):
    """Seconds HttpBackend asked to sleep between attempts; nothing sleeps."""
    recorded = []
    monkeypatch.setattr(llm_client.time, "sleep", recorded.append)
    return recorded


def http_config(url, **kw):
    defaults = dict(kind="http", endpoint=url, model="stub-model",
                    timeout=5.0, max_retries=3, backoff_base=0.01)
    defaults.update(kw)
    return BackendConfig(**defaults)


class TestScriptedBackend:
    def test_fixture_echo(self):
        backend = ScriptedBackend(fixtures=[("user 7", "Rank 1: 7 - fits taste")])
        assert backend.complete(req("ranking for user 7")).text == \
            "Rank 1: 7 - fits taste"

    def test_default_echoes_candidates(self):
        prompt = "Candidates:\n1. [42] A | - | en | -\n2. [7] B | - | en | -"
        text = backend_text = ScriptedBackend().complete(req(prompt)).text
        assert backend_text.splitlines()[0].startswith("Rank 1: 42")
        assert "Rank 2: 7" in text

    def test_pure_function_of_inputs(self):
        backend = ScriptedBackend(fixtures=[("x", "y")])
        batch = [req("x")] * 3
        a = [r.text for r in complete_all(backend, batch, 4)]
        b = [r.text for r in complete_all(backend, batch, 1)]
        assert a == b == ["y", "y", "y"]

    def test_fixture_file(self, tmp_path):
        p = tmp_path / "fix.jsonl"
        p.write_text('{"prompt_contains": "abc", "response": "ok"}\n')
        backend = make_backend(BackendConfig(kind="scripted", fixtures_path=str(p)))
        assert backend.complete(req("xx abc yy")).text == "ok"
        assert load_fixtures(p) == [("abc", "ok")]


class TestHttpBackend:
    def test_success(self, stub):
        url, state = stub
        state.fixtures.append(("hello", "Rank 1: 5 - great"))
        backend = HttpBackend(http_config(url))
        resp = backend.complete(req("hello"))
        assert resp.text == "Rank 1: 5 - great"
        assert resp.retry_count == 0

    @pytest.mark.parametrize("seed", [None, 0, 7])
    def test_request_body_carries_seed_only_when_set(self, stub, seed):
        url, state = stub
        HttpBackend(http_config(url)).complete(req("hello", seed=seed, max_tokens=64))
        want = {"model": "stub-model",
                "messages": [{"role": "system", "content": "sys"},
                             {"role": "user", "content": "hello"}],
                "temperature": 0.7, "max_tokens": 64}
        if seed is not None:
            want["seed"] = seed
        assert state.bodies == [want]

    def test_retry_on_429(self, stub):
        url, state = stub
        state.status_script = [429, 429]
        backend = HttpBackend(http_config(url))
        resp = backend.complete(req())
        assert resp.retry_count == 2
        assert state.requests_seen == 3

    def test_exhausted_retries(self, stub):
        url, state = stub
        state.status_script = [500] * 10
        backend = HttpBackend(http_config(url, max_retries=2))
        with pytest.raises(ExhaustedRetries):
            backend.complete(req())

    def test_non_retryable_status_raises_immediately(self, stub):
        url, state = stub
        state.status_script = [404]
        backend = HttpBackend(http_config(url))
        with pytest.raises(HttpStatus) as exc:
            backend.complete(req())
        assert exc.value.code == 404
        assert state.requests_seen == 1

    def test_timeout_with_zero_retries(self, stub):
        url, state = stub
        state.hold.clear()
        backend = HttpBackend(http_config(url, timeout=0.2, max_retries=0))
        try:
            with pytest.raises(Timeout):
                backend.complete(req())
        finally:
            state.hold.set()

    @pytest.mark.parametrize("status,retry_after,slept", [
        (429, "0", 0.0),
        (429, "2", 2.0),
        (503, "2.5", 2.5),
        (429, "600", 5.0),        # never longer than the timeout
        (429, "-1", 5.0),         # falls back to backoff_base
        (503, "soon", 5.0),
        (429, None, 5.0),
        (500, "2", 5.0),          # Retry-After is only read on 429 and 503
    ])
    def test_retry_after(self, stub, sleeps, status, retry_after, slept):
        url, state = stub
        headers = {} if retry_after is None else {"Retry-After": retry_after}
        state.status_script = [(status, headers)]
        backend = HttpBackend(http_config(url, backoff_base=5.0))
        assert backend.complete(req()).retry_count == 1
        assert sleeps == [slept]

    def test_retry_after_http_date(self, stub, sleeps):
        url, state = stub
        when = email.utils.formatdate(time.time() + 3, usegmt=True)
        state.status_script = [(503, {"Retry-After": when})]
        backend = HttpBackend(http_config(url, backoff_base=5.0))
        backend.complete(req())
        [slept] = sleeps
        assert 1.0 <= slept <= 3.0

    def test_malformed_payload_retried(self, stub, sleeps):
        url, state = stub
        state.fixtures.append(("hello", "Rank 1: 5 - great"))
        state.status_script = [(200, b"not json")]
        resp = HttpBackend(http_config(url)).complete(req("hello"))
        assert (resp.text, resp.retry_count) == ("Rank 1: 5 - great", 1)

    @pytest.mark.parametrize("body", [
        b"not json", b"{}", b'{"choices": []}', b'{"choices": null}',
        b'{"choices": [{"message": {"content": null}}]}'])
    @pytest.mark.parametrize("max_retries,error", [(2, ExhaustedRetries),
                                                   (0, BackendError)])
    def test_always_malformed(self, stub, sleeps, body, max_retries, error):
        url, state = stub
        state.status_script = [(200, body)] * 3
        backend = HttpBackend(http_config(url, max_retries=max_retries))
        with pytest.raises(error, match="malformed completion payload") as exc:
            backend.complete(req())
        assert type(exc.value) is error
        assert state.requests_seen == max_retries + 1

    def test_connection_pool_sized_to_cap(self, stub):
        url, state = stub
        backend = make_backend(http_config(url))
        batch = [req(str(i)) for i in range(160)]
        state.hold.clear()
        state.release_at = 16   # the first replies wait until all 16 are in flight
        results = complete_all(backend, batch, 16)
        ports = set(state.client_ports)
        results += complete_all(backend, batch, 16)
        assert not any(isinstance(r, Exception) for r in results)
        assert state.max_in_flight == len(ports) == 16
        assert state.client_ports == ports   # the second batch opened no connection

    def test_connection_closed_while_idle_is_reopened(self, stub):
        url, state = stub
        backend = HttpBackend(http_config(url))
        state.close_next = True
        assert backend.complete(req()).retry_count == 0
        assert state.closed.wait(timeout=5)
        assert backend.complete(req()).retry_count == 0
        assert state.requests_seen == len(state.client_ports) == 2

    def test_timeout_on_a_reused_connection_then_a_fresh_one(self, stub):
        url, state = stub
        state.fixtures = [("slow", "S"), ("fast", "F")]
        backend = HttpBackend(http_config(url, timeout=0.2, max_retries=0))
        assert backend.complete(req("fast")).text == "F"
        state.hold.clear()
        try:
            with pytest.raises(Timeout):
                backend.complete(req("slow"))
        finally:
            state.hold.set()
        assert len(state.client_ports) == 1
        resp = backend.complete(req("fast"))
        assert (resp.text, resp.retry_count) == ("F", 0)
        assert len(state.client_ports) == 2

    def test_redirect_not_followed(self, stub):
        url, state = stub
        state.status_script = [(307, {"Location": url})]
        with pytest.raises(HttpStatus) as exc:
            HttpBackend(http_config(url)).complete(req())
        assert exc.value.code == 307
        assert state.requests_seen == 1

    def test_https_to_a_plain_http_server_is_a_backend_error(self, stub):
        url, _ = stub
        backend = HttpBackend(http_config(url.replace("http://", "https://", 1),
                                          timeout=2.0, max_retries=0))
        with pytest.raises(BackendError) as exc:
            backend.complete(req())
        assert type(exc.value) is BackendError

    def test_missing_api_key(self, stub, monkeypatch):
        url, _ = stub
        monkeypatch.delenv("RERANKEVAL_TEST_KEY", raising=False)
        with pytest.raises(RerankEvalError,
                           match="environment variable RERANKEVAL_TEST_KEY is not set"):
            HttpBackend(http_config(url, api_key_env="RERANKEVAL_TEST_KEY"))

    def test_api_key_sent_as_bearer(self, stub, monkeypatch):
        url, state = stub
        monkeypatch.setenv("RERANKEVAL_TEST_KEY", "sk-test")
        backend = HttpBackend(http_config(url, api_key_env="RERANKEVAL_TEST_KEY"))
        assert backend.complete(req()).text
        assert state.received == [("/v1/chat/completions", "Bearer sk-test")]

    @pytest.mark.parametrize("setting", ["netrc", "proxy"])
    def test_nothing_else_read_from_the_environment(self, stub, monkeypatch, tmp_path,
                                                    setting):
        url, state = stub
        if setting == "netrc":
            netrc = tmp_path / "netrc"
            netrc.write_text("machine 127.0.0.1 login alice password secret\n")
            netrc.chmod(0o600)
            monkeypatch.setenv("NETRC", str(netrc))
        else:
            with socket.socket() as closed:
                closed.bind(("127.0.0.1", 0))
                proxy = f"http://127.0.0.1:{closed.getsockname()[1]}"
            for name in ("HTTP_PROXY", "http_proxy"):
                monkeypatch.setenv(name, proxy)
            for name in ("NO_PROXY", "no_proxy"):
                monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("RERANKEVAL_TEST_KEY", "sk-test")
        backend = HttpBackend(http_config(url, api_key_env="RERANKEVAL_TEST_KEY",
                                          max_retries=0))
        assert backend.complete(req()).retry_count == 0
        assert state.received == [("/v1/chat/completions", "Bearer sk-test")]


class TestCompleteBatch:
    def test_order_alignment(self, stub):
        url, state = stub
        state.fixtures = [("alpha", "A"), ("beta", "B"), ("gamma", "C")]
        backend = HttpBackend(http_config(url))
        results = complete_all(backend, [req("gamma"), req("alpha"), req("beta")], 3)
        assert [r.text for r in results] == ["C", "A", "B"]

    def test_per_item_failure_isolated(self, stub):
        url, state = stub
        state.status_script = [200, 404, 200]
        backend = HttpBackend(http_config(url))
        results = complete_all(backend, [req("a"), req("b"), req("c")], 1)
        assert not isinstance(results[0], Exception)
        assert isinstance(results[1], HttpStatus)
        assert not isinstance(results[2], Exception)

    def test_concurrency_cap_of_one(self, stub):
        url, state = stub
        backend = HttpBackend(http_config(url))
        complete_all(backend, [req(str(i)) for i in range(5)], 1)
        assert state.max_in_flight == 1


class TestBoundedMap:
    def test_carried_exception_in_place(self):
        def fn(x):
            if x == 2:
                raise KeyError(x)
            return x * 10

        results = list(bounded_map(fn, range(5), 3, carry=KeyError))
        assert [r if not isinstance(r, Exception) else "err" for r in results] == \
            [0, 10, "err", 30, 40]

    def test_other_exception_cancels_pending(self):
        started = []

        def fn(x):
            started.append(x)
            if x == 0:
                raise RuntimeError("boom")
            time.sleep(0.02)
            return x

        with pytest.raises(RuntimeError, match="boom"):
            list(bounded_map(fn, range(50), 2, carry=KeyError))
        assert len(started) < 10

    def test_cap_one_runs_in_the_caller(self):
        caller = threading.get_ident()
        assert list(bounded_map(lambda x: threading.get_ident(), range(5), 1)) == [caller] * 5

    def test_each_item_taken_once_under_contention(self):
        calls = Counter()
        lock = threading.Lock()

        def fn(x):
            with lock:
                calls[x] += 1
            return x * 2

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            results = list(bounded_map(fn, range(20000), 12))
        finally:
            sys.setswitchinterval(interval)
        assert results == [x * 2 for x in range(20000)]
        assert calls == Counter(range(20000))

    def test_cap_one_starts_an_item_once_the_last_result_is_taken(self):
        events = []

        def fn(x):
            events.append(("start", x))
            return x

        for result in bounded_map(fn, range(4), 1):
            events.append(("took", result))
        assert events == [(e, x) for x in range(4) for e in ("start", "took")]

    def test_slow_first_item_holds_back_the_later_results(self):
        finished = []
        others_done = threading.Event()

        def fn(x):
            if x == 0:  # finishes only after every other item has
                assert others_done.wait(10)
            finished.append(x)
            if len(finished) == 5:
                others_done.set()
            return x * 10

        assert list(bounded_map(fn, range(6), 3)) == [0, 10, 20, 30, 40, 50]
        assert sorted(finished[:5]) == [1, 2, 3, 4, 5] and finished[5] == 0

    def test_close_starts_no_further_item_and_waits_for_the_running_ones(self):
        started, finished = [], []
        threads = threading.active_count()

        def fn(x):
            started.append(x)
            time.sleep(0.02)
            finished.append(x)
            return x

        results = bounded_map(fn, range(50), 3)
        assert next(results) == 0
        results.close()
        assert sorted(finished) == sorted(started)
        assert threading.active_count() == threads
        time.sleep(0.05)
        assert len(started) == len(finished) < 10


class TestBackendConfig:
    def test_http_requires_endpoint_and_model(self):
        with pytest.raises(ValueError):
            BackendConfig(kind="http", endpoint="", model="m")

    def test_timeout_positive(self):
        with pytest.raises(ValueError):
            BackendConfig(kind="scripted", timeout=0)


def test_cli_import_loads_no_http_stack():
    # an offline command never needs them; HttpBackend loads http.client
    src = os.path.dirname(os.path.dirname(llm_client.__file__))
    code = ("import sys, rerankeval.cli; "
            "print(sorted({'requests', 'urllib3', 'http.client', 'ssl', 'email', 'socket'}"
            " & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    assert out == "[]\n"
