"""Traced estimation server: install the layer wrappers, then serve.

Usage::

    python3 perfbench/serve_traced.py --out FILE --request-id-from N \\
        -- <repro-rfid serve arguments>

Runs exactly ``repro-rfid serve`` (``repro.cli.main``, which calls
``repro.service.server.run_server``) with the wrappers of
:func:`layers.install_server` in place.  When the server stops it writes
the per-layer totals and one record per request whose integer ``id`` is at
least N to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

import layers as _layers


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--request-id-from", type=int, required=True)
    parser.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    serve_args = args.serve_args[1:] if args.serve_args[:1] == ["--"] else args.serve_args

    from repro import cli
    from repro.core.optimal_p import planner_cache_info

    layers = _layers.Layers()
    layers.request_id_from = args.request_id_from
    _layers.install_server(layers)
    planner_before = planner_cache_info()
    status = cli.main(serve_args)
    planner_after = planner_cache_info()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "layers": layers.snapshot(),
                "request_fields": [
                    "id", "start", "end", *_layers.REQUEST_PARTS, "hit"
                ],
                "requests": layers.requests,
                "planner": {
                    "hits": planner_after.hits - planner_before.hits,
                    "misses": planner_after.misses - planner_before.misses,
                },
            },
            fh,
        )
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
