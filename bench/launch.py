"""Start one `sizebias` command the way its console script does.

    python3 -I launch.py SRC READY_FILE SPANS_FILE ARG...

Puts SRC first on the import path, imports `sizebias.cli`, writes the
CLOCK_MONOTONIC time at which the CLI is ready to parse argv to
READY_FILE, then exits with `sizebias.cli.main(ARGS)`.  The spawning
process subtracts its own spawn time from that stamp to get the set-up
time.

When SPANS_FILE is not "-", timing shims from `spans.py` wrap the
package's public functions for the whole call, and the recorded spans are
written to SPANS_FILE as JSON when the command ends.
"""

import os
import sys
import time


def main() -> int:
    src, ready, spans_path, *argv = sys.argv[1:]
    sys.path.insert(0, src)
    if spans_path == "-":
        from sizebias import cli

        _stamp(ready)
        return cli.main(argv)

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import numpy  # noqa: F401  -- loaded first so the import profile isolates the package

    import spans
    from sizebias import cli

    _stamp(ready)
    recorder = spans.Recorder()
    recorder.install()
    try:
        code = cli.main(argv)
    finally:
        recorder.uninstall()
    recorder.rerun_single_worker()
    recorder.write(spans_path, argv, code)
    return code


def _stamp(path: str) -> None:
    stamp = time.monotonic()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(repr(stamp))


if __name__ == "__main__":
    sys.exit(main())
