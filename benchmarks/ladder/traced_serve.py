"""``python -m repro`` with span recording around the layer boundaries.

Usage: ``traced_serve.py serve <the same arguments as the untraced run>``.
Installs the wrappers of ``spans.install`` and then calls
``repro.cli.main``; the spans are written to ``$LADDER_SPAN_FILE`` when
the server shuts down (SIGTERM or Ctrl-C).
"""

from __future__ import annotations

import os
import signal
import sys
from pathlib import Path

sys.path[0] = str(Path(__file__).resolve().parents[1])

from ladder import spans  # noqa: E402


def _terminate(signum, frame):
    # serve_forever() only unwinds (and closes the server) on this.
    raise KeyboardInterrupt


def main() -> int:
    from repro import cli

    recorder = spans.Recorder()
    spans.install(recorder)
    for name in recorder.missing:
        print(f"ladder: entry point for span {name!r} not found", file=sys.stderr)
    signal.signal(signal.SIGTERM, _terminate)
    signal.signal(signal.SIGINT, _terminate)
    try:
        return cli.main(sys.argv[1:])
    finally:
        recorder.dump(os.environ["LADDER_SPAN_FILE"])


if __name__ == "__main__":
    sys.exit(main())
