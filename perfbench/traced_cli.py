"""Run one prune_relief CLI command with the span tracer installed.

Usage: python3 perfbench/traced_cli.py SPANS_JSON RUN_ID COMMAND [ARGS...]

The command runs exactly as ``python3 -m prune_relief.cli COMMAND ARGS``
would, with ``src`` on the import path; the spans and counters it recorded
are written to SPANS_JSON when it ends, whatever its exit code.
"""

import sys

import spans


def main(argv) -> int:
    out, run_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = spans.Tracer(run_id)
    spans.install(tracer)
    from prune_relief import cli
    idx = tracer.open("cli.main")
    try:
        return cli.main(cli_args)
    finally:
        tracer.close(idx)
        tracer.write(out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
