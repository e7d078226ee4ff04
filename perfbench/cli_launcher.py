"""Run bondtaylor's command line with spans around its public functions.

    PERFBENCH_SPANS=spans.json python perfbench/cli_launcher.py <cli arguments>

Times the import of bondtaylor.cli as an "import" span, wraps the functions
listed in tracing.TRACED, calls bondtaylor.cli.main with the arguments and
writes the spans to the file named by PERFBENCH_SPANS.  Stdout and the exit
code are those of the command.
"""

import os
import sys

from tracing import Tracer


def main() -> int:
    tracer = Tracer()
    with tracer.span("import"):
        import bondtaylor.cli
    tracer.install()
    try:
        return bondtaylor.cli.main(sys.argv[1:])
    finally:
        tracer.dump_child(os.environ["PERFBENCH_SPANS"])


if __name__ == "__main__":
    raise SystemExit(main())
