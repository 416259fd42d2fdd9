"""Run one wallisqm CLI command with the layer tracer installed.

usage: python perfbench/cli_child.py TRACE_FILE SUBCOMMAND ARGV...

Standard output and the exit status are the command's own.  The spans,
with the command wrapped in a ``cli.<SUBCOMMAND>`` span and the import time
of ``wallisqm.cli`` in the header, are written to TRACE_FILE at exit.
"""

import sys
import time


def main() -> int:
    path, sub, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = time.perf_counter()
    import wallisqm.cli as cli
    import_s = time.perf_counter() - t0

    from tracer import Tracer

    tr = Tracer()
    tr.install()
    tr.extra["import_s"] = import_s
    idx = tr.begin(f"cli.{sub}")
    try:
        return cli.main(argv)
    finally:
        tr.finish(idx)
        tr.write(path)


if __name__ == "__main__":
    sys.exit(main())
