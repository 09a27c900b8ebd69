"""Run ``repro-uasn serve`` with the per-layer tracer installed.

    python3 perfbench/traced_serve.py TRACE_OUT serve --port 0 --allow-shutdown ...

Every argument after ``TRACE_OUT`` goes to the CLI unchanged.  ``GET
/__bench__/reset`` zeroes the tracer's accumulators (so warm-up jobs stay
out of the report); when the service shuts down, the tracer's report is
written to ``TRACE_OUT`` as JSON.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from measure import require_program
from tracer import RESET_PATH, Tracer


def _add_reset_route(tracer: Tracer) -> None:
    from repro.service import api

    handler = getattr(api, "_Handler", None)
    if handler is None:
        print("tracer reset route unavailable: no request handler found", file=sys.stderr)
        return
    traced_get = handler.do_GET

    def do_GET(request) -> None:  # noqa: N802 - http.server API
        if request.path != RESET_PATH:
            traced_get(request)
            return
        tracer.reset()
        body = b"{}"
        request.send_response(200)
        request.send_header("Content-Type", "application/json")
        request.send_header("Content-Length", str(len(body)))
        request.end_headers()
        request.wfile.write(body)

    handler.do_GET = do_GET


def main(argv) -> int:
    out = Path(argv[0])
    require_program()
    tracer = Tracer().install()
    _add_reset_route(tracer)
    from repro.experiments import cli

    try:
        return cli.main(list(argv[1:]))
    finally:
        out.write_text(json.dumps(tracer.report()))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
