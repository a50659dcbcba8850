"""Bundled reference adapter speaking the external simulator protocol.

The echo adapter answers every request with ``y`` equal to the numeric
coordinates of ``x`` (strings such as material names coerce to 0.0),
truncated or zero-padded to the problem's response width.  It exists to
exercise the wire protocol end to end without any physics; run it as
``python -m idkit.adapters`` or via the ``echo-adapter`` CLI subcommand.
It reads requests from ``sys.stdin`` and writes replies to ``sys.stdout``.
"""

from __future__ import annotations

import json
import sys

from .problems import get_space

__all__ = ["echo_response", "echo_loop"]


def echo_response(problem: str, x: list) -> list[float]:
    dim = get_space(problem).response_dim
    y = []
    for v in x[:dim]:
        try:
            y.append(float(v))
        except (TypeError, ValueError):
            y.append(0.0)
    y.extend(0.0 for _ in range(dim - len(y)))
    return y


def echo_loop() -> int:
    """Serve requests from stdin until EOF.  Returns a process exit code."""
    for line in sys.stdin:
        line = line.strip()
        if not line:
            continue
        try:
            req = json.loads(line)
            reply = {"id": req["id"], "y": echo_response(req["problem"], req["x"])}
        except Exception as exc:
            try:
                req_id = json.loads(line).get("id", 0)
            except Exception:
                req_id = 0
            reply = {"id": req_id, "error": f"echo adapter: {exc}"}
        sys.stdout.write(json.dumps(reply, separators=(",", ":")) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(echo_loop())
