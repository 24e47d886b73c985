"""The scripted policy behind a local OpenAI-compatible endpoint.

``PolicyServer`` answers ``/chat/completions`` and ``/embeddings`` from one
``PolicyBackend(malformed_pct=10)`` on 127.0.0.1, one thread per request,
so ``HttpBackend`` runs end to end with no network.  A request at
temperature 0 is greedy and any other is sampled.  The server counts the
requests it answers and the most it holds in flight at once.
"""

import http.server
import json
import socketserver
import threading

from cloudrca.backends import ChatExchange, GenerationParams
from cloudrca.mockpolicy import PolicyBackend


class _PolicyHandler(http.server.BaseHTTPRequestHandler):
    # the headers and the body leave in one segment: written apart, Nagle's
    # algorithm holds the body until the client's delayed ACK, ~40 ms later
    disable_nagle_algorithm = True
    wbufsize = -1

    def do_POST(self):
        server = self.server
        with server.lock:
            server.requests += 1
            server.in_flight += 1
            server.peak = max(server.peak, server.in_flight)
        try:
            payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            if self.path.endswith("/chat/completions"):
                body = server.chat(payload)
            else:
                body = server.embeddings(payload)
            data = json.dumps(body).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        finally:
            with server.lock:
                server.in_flight -= 1

    def log_message(self, *args):
        pass


class _KeepAliveHandler(_PolicyHandler):
    # HTTP/1.1 keeps a connection open for the client's next request until
    # the client closes it; one left idle for timeout seconds is dropped, so
    # a client that never closes holds server_close() that long, not forever
    protocol_version = "HTTP/1.1"
    timeout = 10


class PolicyServer(socketserver.ThreadingMixIn, http.server.HTTPServer):
    """With ``keep_alive``, connections stay open between requests, and
    ``server_close()`` waits for the clients to close them."""

    def __init__(self, keep_alive: bool = False):
        super().__init__(
            ("127.0.0.1", 0), _KeepAliveHandler if keep_alive else _PolicyHandler
        )
        self.policy = PolicyBackend(malformed_pct=10)
        self.url = f"http://127.0.0.1:{self.server_address[1]}"
        self.lock = threading.Lock()
        self.requests = self.in_flight = self.peak = 0

    def chat(self, payload: dict) -> dict:
        system, *messages = payload["messages"]
        exchange = ChatExchange(
            system["content"], [(m["role"], m["content"]) for m in messages]
        )
        params = GenerationParams(
            payload["frequency_penalty"],
            "greedy" if payload["temperature"] == 0 else "sampled",
        )
        text = self.policy.complete(exchange, params)
        message = {"role": "assistant", "content": text}
        return {"choices": [{"message": message, "finish_reason": "stop"}]}

    def embeddings(self, payload: dict) -> dict:
        rows = self.policy.embed(payload["input"]).tolist()
        return {"data": [{"index": i, "embedding": row} for i, row in enumerate(rows)]}
