"""Run the isoframe command line with the tracer installed.

    python3 bench/cli_traced.py SPANS LAUNCH ARGS...

LAUNCH is the parent's time.monotonic() just before it started this
process, so cli.startup_s covers interpreter start, imports and tracer
installation up to the call of `isoframe.cli.entry`.  The spans go to the
file SPANS; standard output and the exit code are the command's own.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer  # noqa: E402


def main():
    spans_path, launch, args = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    tr = tracer.Tracer()
    entry = tr.install()["cli"].entry
    startup = time.monotonic() - launch
    tr.recording = True
    try:
        code = entry(args)
    finally:
        tr.recording = False
        tracer.write_spans(spans_path, tr.records(), meta={"startup_s": startup})
    sys.exit(code)


if __name__ == "__main__":
    main()
