"""Run one ``scheme_spectra.cli`` command under the benchmark's tracer.

Usage: python3 cli_traced.py TRACE_FILE SUBCOMMAND [ARGS...]

Behaves like ``python -m scheme_spectra.cli SUBCOMMAND ARGS...`` (same
stdout, stderr and exit code) and writes the spans and counters it
recorded to TRACE_FILE as JSON.
"""

import json
import sys

from tracer import Tracer


def main() -> int:
    trace_file, argv = sys.argv[1], sys.argv[2:]
    import scheme_spectra.cli as cli

    tracer = Tracer()
    tracer.install()
    tracer.active = True
    idx = tracer.begin("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.end(idx)
        tracer.active = False
        tracer.uninstall()
        sys.stdout.flush()
        with open(trace_file, "w", encoding="utf-8") as fp:
            json.dump(tracer.export(), fp)


if __name__ == "__main__":
    raise SystemExit(main())
