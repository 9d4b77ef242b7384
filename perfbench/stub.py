"""Loopback chat-completions stub for the llm-http workload.

Run as its own process:

    python3 perfbench/stub.py

It binds 127.0.0.1 on a free port, prints the port on one stdout line, and
serves until stdin closes or it is terminated. One asyncio thread handles
every connection, so it never runs more handler threads than there are
cores.

POST /v1/chat/completions answers with the prompt's candidate ids in prompt
order, one "Rank k: <id> - <reason>" line each. A prompt without a candidate
block but with "Rank k: <id> - ..." lines (the DPO reason rewrite) gets those
ids back in the same form. Latency and 429 rejections are chosen from a
hash of (request body, attempt number), where the attempt number counts
earlier arrivals of the same body since the last reset; so every run sees
the same latencies and rejections whatever order requests arrive in.

GET /stats returns the counters; POST /reset zeroes them and sets
mean_latency_ms and reject_share (both 0 until the first reset) for what
follows.
"""

import asyncio
import hashlib
import json
import math
import re
import socket
import sys
import time
from statistics import NormalDist

_CANDIDATE_LINE = re.compile(r"^\s*\d+\.\s*\[([^\]]+)\]", re.MULTILINE)
_RANK_LINE = re.compile(r"^\s*Rank\s*\d+\s*:\s*(\S+)\s+-", re.MULTILINE)
_NORMAL = NormalDist()
SIGMA = 0.5  # lognormal shape of per-request latency: a long right tail
# The 3rd attempt is never rejected, so HttpBackend's default three retries
# always end in a completion and no operation of the workload fails.
MAX_REJECTED_ATTEMPTS = 2
REASONS = ("matches the user's favourite genres", "similar to recently rated titles",
           "well liked by viewers with this history", "a change of pace the user may enjoy")


def reply_text(user_prompt):
    """The stub's completion: candidate ids in prompt order as rank lines."""
    block = user_prompt.split("Candidates:", 1)
    if len(block) == 2:
        ids = _CANDIDATE_LINE.findall(block[1])
    else:
        ids = _RANK_LINE.findall(user_prompt)
    return "\n".join(f"Rank {k}: {i} - {REASONS[k % len(REASONS)]}"
                     for k, i in enumerate(ids, start=1))


def _unit(digest, salt):
    """A number in (0, 1) drawn from a request digest."""
    h = hashlib.blake2b(digest + salt, digest_size=8).digest()
    return (int.from_bytes(h, "big") + 0.5) / 2.0 ** 64


class Stub:
    def __init__(self):
        self.reset()

    def reset(self, mean_latency_ms=0.0, reject_share=0.0):
        self.mean_latency = mean_latency_ms / 1000.0
        self.reject_share = reject_share
        self.attempts = {}       # body digest -> arrivals so far
        self.outcome = {}        # body digest -> status of its last reply
        self.requests = 0
        self.rejected = 0
        self.inflight = 0
        self.inflight_area = 0.0  # integral of requests in flight over time (s)
        self.first_arrival = None
        self.last_departure = None
        self._last_change = None

    def _track(self, delta):
        now = time.monotonic()
        if self._last_change is not None:
            self.inflight_area += self.inflight * (now - self._last_change)
        self._last_change = now
        self.inflight += delta
        if delta > 0 and self.first_arrival is None:
            self.first_arrival = now
        if delta < 0:
            self.last_departure = now

    def stats(self):
        window = 0.0
        if self.first_arrival is not None and self.last_departure is not None:
            window = self.last_departure - self.first_arrival
        return {
            "requests": self.requests,
            "rejected": self.rejected,
            "completions": len(self.attempts),
            "completions_failed": sum(1 for s in self.outcome.values() if s != "ok"),
            "mean_inflight": self.inflight_area / window if window > 0 else 0.0,
        }

    async def complete(self, body):
        digest = hashlib.sha256(body).digest()
        attempt = self.attempts.get(digest, 0)
        self.attempts[digest] = attempt + 1
        salt = attempt.to_bytes(4, "big")
        self.requests += 1
        self._track(+1)
        try:
            if (attempt < MAX_REJECTED_ATTEMPTS
                    and _unit(digest, b"reject" + salt) < self.reject_share):
                self.rejected += 1
                self.outcome[digest] = "rejected"
                return 429, {"error": {"message": "rate limited"}}, [("Retry-After", "0")]
            if self.mean_latency > 0:
                # lognormal with the configured mean; z is clipped to +-4.75
                z = _NORMAL.inv_cdf(min(max(_unit(digest, b"latency" + salt), 1e-6),
                                        1 - 1e-6))
                await asyncio.sleep(self.mean_latency * math.exp(SIGMA * z - SIGMA ** 2 / 2))
            request = json.loads(body)
            text = reply_text(request["messages"][-1]["content"])
            self.outcome[digest] = "ok" if text else "empty"
            return 200, {
                "id": f"stub-{digest.hex()[:12]}",
                "object": "chat.completion",
                "model": request.get("model", ""),
                "choices": [{"index": 0, "finish_reason": "stop",
                             "message": {"role": "assistant", "content": text}}],
            }, []
        finally:
            self._track(-1)

    async def route(self, method, path, body):
        if method == "POST" and path.endswith("/chat/completions"):
            return await self.complete(body)
        if method == "GET" and path == "/stats":
            return 200, self.stats(), []
        if method == "POST" and path == "/reset":
            self.reset(**(json.loads(body) if body else {}))
            return 200, {"ok": True}, []
        return 404, {"error": {"message": f"no route {method} {path}"}}, []

    async def handle(self, reader, writer):
        sock = writer.get_extra_info("socket")
        if sock is not None:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                request_line, *header_lines = head.decode("latin-1").split("\r\n")
                method, path, _version = request_line.split(" ", 2)
                headers = {}
                for line in header_lines:
                    if line:
                        key, _, value = line.partition(":")
                        headers[key.strip().lower()] = value.strip()
                body = await reader.readexactly(int(headers.get("content-length", 0)))
                status, payload, extra = await self.route(method, path, body)
                data = json.dumps(payload).encode()
                lines = [f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}",
                         "Content-Type: application/json",
                         f"Content-Length: {len(data)}"]
                lines += [f"{k}: {v}" for k, v in extra]
                # headers and body leave in one write (no Nagle/delayed-ACK stall)
                writer.write(("\r\n".join(lines) + "\r\n\r\n").encode() + data)
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()


async def serve(stub):
    server = await asyncio.start_server(stub.handle, "127.0.0.1", 0)
    print(server.sockets[0].getsockname()[1], flush=True)
    loop = asyncio.get_running_loop()
    # stdin closing (the parent exiting) stops the stub
    await loop.run_in_executor(None, sys.stdin.read)
    server.close()
    await server.wait_closed()


if __name__ == "__main__":
    asyncio.run(serve(Stub()))
