"""The serving control: a stand-in for ``ripple serve``, in the
benchmark's own code.

It speaks the daemon's line protocol for the requests the ``smoke``
traffic sends (``query`` and ``batch``), from a thread per connection,
and answers from a table of every (vertex, k) answer that the benchmark
wrote from the saved index: it parses each line, looks the keys up,
sorts each component and encodes the response, as the daemon does, but
runs none of the program's code, so no change to the program moves it.
serve-ladder sends it the same requests as the daemon at the same
moments, so the host's speed and scheduling delays of that moment reach
both, and reads the daemon's timings against it (``serving.py``).

Run as ``python standin.py ANSWERS.json``; prints the port it listens on
(127.0.0.1) and serves until terminated.
"""

from __future__ import annotations

import json
import socketserver
import sys

#: The stand-in's median request latency and CPU per request in the
#: paired slices on the reference host (2 vCPU, CPython 3.11), rounded:
#: serve-ladder's gated timings are these times the daemon's ratio to
#: the stand-in, in reference-host milliseconds.
REFERENCE_P50_MS = 0.70
REFERENCE_CPU_MS = 0.65


def _sort_key(vertex) -> tuple[int, str]:
    return (0, f"{vertex:024d}") if isinstance(vertex, int) else (1, str(vertex))


def answer(answers: dict[str, list[set]], request: dict) -> dict:
    """The response to one ``query`` or ``batch`` request."""
    batch = request.get("op") == "batch"
    results = []
    for query in request["queries"] if batch else [request]:
        components = answers.get(f"{query['v']} {query['k']}")
        if components is None:
            return {"ok": False, "code": "unknown-vertex",
                    "error": f"vertex {query['v']!r} is not in the graph"}
        results.append({
            "v": query["v"],
            "k": query["k"],
            "components": [sorted(c, key=_sort_key) for c in components],
            "count": len(components),
        })
    return {"ok": True, "results": results} if batch else {"ok": True, **results[0]}


class _Session(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        for line in self.rfile:
            response = answer(self.server.answers, json.loads(line))
            self.wfile.write(
                json.dumps(response, separators=(",", ":")).encode() + b"\n"
            )
            self.wfile.flush()


class _Server(socketserver.ThreadingTCPServer):
    daemon_threads = True


def main(answers_path: str) -> None:
    with open(answers_path, encoding="utf-8") as handle:
        table = json.load(handle)
    server = _Server(("127.0.0.1", 0), _Session)
    server.answers = {key: [set(c) for c in comps] for key, comps in table.items()}
    print(server.server_address[1], flush=True)
    server.serve_forever()


if __name__ == "__main__":
    main(sys.argv[1])
