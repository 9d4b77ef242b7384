import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from rerankeval.errors import ExhaustedRetries, HttpStatus, MissingApiKey, Timeout
from rerankeval.llm_client import (BackendConfig, ChatRequest, HttpBackend,
                                   ScriptedBackend, complete_batch,
                                   load_fixtures, make_backend)


def req(text="hello", **kw):
    return ChatRequest(system_prompt="sys", user_prompt=text, **kw)


class StubState:
    """Scriptable chat-completions stub: per-request status codes, fixture
    responses, and in-flight concurrency tracking."""

    def __init__(self):
        self.status_script = []   # consumed per request; empty -> 200
        self.fixtures = []        # (prompt_contains, response)
        self.lock = threading.Lock()
        self.in_flight = 0
        self.max_in_flight = 0
        self.requests_seen = 0
        self.hold = threading.Event()
        self.hold.set()

    def respond_for(self, prompt):
        for needle, response in self.fixtures:
            if needle in prompt:
                return response
        return "Rank 1: 1 - stub default"


def make_stub():
    state = StubState()

    class Handler(BaseHTTPRequestHandler):
        def log_message(self, *args):
            pass

        def do_POST(self):
            with state.lock:
                state.requests_seen += 1
                state.in_flight += 1
                state.max_in_flight = max(state.max_in_flight, state.in_flight)
                status = state.status_script.pop(0) if state.status_script else 200
            try:
                state.hold.wait(timeout=5)
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                if status != 200:
                    self.send_response(status)
                    self.end_headers()
                    return
                prompt = body["messages"][-1]["content"]
                payload = {"choices": [{"message": {
                    "content": state.respond_for(prompt)}}]}
                data = json.dumps(payload).encode()
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
            finally:
                with state.lock:
                    state.in_flight -= 1

    class Server(ThreadingHTTPServer):
        def handle_error(self, request, client_address):
            # a client that timed out has closed its socket; the late
            # reply to it is expected to fail
            if not isinstance(sys.exc_info()[1], ConnectionError):
                super().handle_error(request, client_address)

    server = Server(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, state


@pytest.fixture
def stub():
    server, state = make_stub()
    url = f"http://127.0.0.1:{server.server_address[1]}/v1/chat/completions"
    yield url, state
    server.shutdown()
    server.server_close()


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
        a = [r.text for r in complete_batch(backend, batch)]
        b = [r.text for r in complete_batch(backend, batch)]
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

    def test_missing_api_key(self, stub, monkeypatch):
        url, _ = stub
        monkeypatch.delenv("RERANKEVAL_TEST_KEY", raising=False)
        backend = HttpBackend(http_config(url, api_key_env="RERANKEVAL_TEST_KEY"))
        with pytest.raises(MissingApiKey):
            backend.complete(req())

    def test_api_key_sent_as_bearer(self, stub, monkeypatch):
        url, state = stub
        monkeypatch.setenv("RERANKEVAL_TEST_KEY", "sk-test")
        backend = HttpBackend(http_config(url, api_key_env="RERANKEVAL_TEST_KEY"))
        assert backend.complete(req()).text


class TestCompleteBatch:
    def test_order_alignment(self, stub):
        url, state = stub
        state.fixtures = [("alpha", "A"), ("beta", "B"), ("gamma", "C")]
        backend = HttpBackend(http_config(url))
        backend.max_concurrent_requests = 3
        results = complete_batch(backend, [req("gamma"), req("alpha"), req("beta")])
        assert [r.text for r in results] == ["C", "A", "B"]

    def test_per_item_failure_isolated(self, stub):
        url, state = stub
        state.status_script = [200, 404, 200]
        backend = HttpBackend(http_config(url))
        backend.max_concurrent_requests = 1
        results = complete_batch(backend, [req("a"), req("b"), req("c")])
        assert not isinstance(results[0], Exception)
        assert isinstance(results[1], HttpStatus)
        assert not isinstance(results[2], Exception)

    def test_concurrency_cap_of_one(self, stub):
        url, state = stub
        backend = HttpBackend(http_config(url))
        backend.max_concurrent_requests = 1
        complete_batch(backend, [req(str(i)) for i in range(5)])
        assert state.max_in_flight == 1

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            complete_batch(ScriptedBackend(), [])


class TestBackendConfig:
    def test_http_requires_endpoint_and_model(self):
        with pytest.raises(ValueError):
            BackendConfig(kind="http", endpoint="", model="m")

    def test_timeout_positive(self):
        with pytest.raises(ValueError):
            BackendConfig(kind="scripted", timeout=0)
