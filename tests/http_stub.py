"""A local chat-completions server for tests of the HTTP agent.

``StubHandler`` answers each POST as ``server.behavior(prompt_text, n)``
says, where n counts the requests so far: a reply, an HTTP status, a raw
body, or a sleep before replying. The ``stub_server`` fixture in conftest
serves it on a free local port.
"""

import json
import time
from http.server import BaseHTTPRequestHandler

from gridsigma.agents import HTTP_ENDPOINT, AgentKind, EndpointConfig


class StubHandler(BaseHTTPRequestHandler):
    def handle(self):
        # A client that timed out during a "sleep" action has closed the
        # connection before the late reply is written; nobody reads it.
        try:
            super().handle()
        except ConnectionError:
            pass

    def do_POST(self):
        assert self.path == "/v1/chat/completions"
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        server = self.server
        server.requests.append(body)
        prompt_text = body["messages"][0]["content"]
        action = server.behavior(prompt_text, len(server.requests))
        if action["kind"] == "sleep":
            time.sleep(action["seconds"])
            action = {"kind": "reply", "text": "normal\nSlept."}
        if action["kind"] == "status":
            self.send_response(action["code"])
            self.end_headers()
            self.wfile.write(b"{}")
            return
        if action["kind"] == "raw":
            payload = action["body"].encode()
        else:
            payload = json.dumps(
                {"choices": [{"message": {"content": action["text"]}}]}
            ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):
        pass


def http_agent(server, **overrides) -> AgentKind:
    """An http_endpoint agent for the stub server, its endpoint settings
    overridden by keyword."""
    opts = dict(
        base_url=f"http://127.0.0.1:{server.server_address[1]}",
        model_name="stub-model",
        api_key="k",
        timeout=2.0,
        retries=1,
        backoff=0.01,
        max_in_flight=4,
    )
    opts.update(overrides)
    return AgentKind(HTTP_ENDPOINT, endpoint=EndpointConfig(**opts))
