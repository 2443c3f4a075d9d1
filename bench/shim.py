"""A traced `amoeba` process: stage the input graphs, then run the CLI.

Usage: python3 bench/shim.py <spans out> <plan JSON> <amoeba arguments...>

The plan lists (graph file, root, stage options) for the layers the verb
needs anyway; staging them first, on the graphs the CLI is about to read,
leaves `amoebagraph.cli.main` with the rest.  Spans and counters go to the
spans file; stdout and the exit code are the CLI's own.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from amoebagraph import classify, cli, from_json  # noqa: E402

import tracing  # noqa: E402

CLASSIFY_CALLS = (
    "classify_graph",
    "check_theorem3",
    "check_hang_correspondence",
    "check_global_transitive",
    "check_wreath_embedding",
    "check_fixed_wreath_embedding",
    "check_big_corollary",
)


def main() -> int:
    spans_path, plan, argv = sys.argv[1], json.loads(sys.argv[2]), sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.install()
    # the CLI reaches these through the module, so its calls get spans
    for name in CLASSIFY_CALLS:
        setattr(classify, name, tracer.wrap(getattr(classify, name), name, "classify"))
    for path, root, options in plan:
        with tracer.span("load", "lgraph"):
            with open(path, encoding="utf-8") as handle:
                g = from_json(handle.read())
        tracer.stage(g, root=root, **options)
    with tracer.span("main", "cli"):
        code = cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
