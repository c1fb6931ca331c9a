"""Traced CLI op: install the benchmark's layer wrappers, then call cli.run(argv).

    python3 perfbench/cli_child.py SPANS_JSON OP_ID CLI_ARG...

Writes this process's spans and counters to SPANS_JSON and exits with the
code cli.run returned, like `python -m sphere_strichartz.cli CLI_ARG...`.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    spans_path, op_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer()
    tracer.install()
    from sphere_strichartz import cli

    tracer.begin_op(op_id, root=None)
    try:
        return cli.run(argv)
    finally:
        tracer.end_op()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "counters": tracer.counters}, fh)


if __name__ == "__main__":
    raise SystemExit(main())
