"""Run one alsalign CLI invocation with layer spans recorded.

    python bench/traced_cli.py SPANS_JSON ARGV...

Behaves like ``python -m alsalign ARGV...`` (same output, same exit
code) and writes the spans of the run to SPANS_JSON once, at exit.  The
traced cli_fresh ops use it; ``src/`` must be on PYTHONPATH.
"""

import json
import sys
from pathlib import Path

from alsalign import cli
from spans import Recorder, tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    rec = Recorder()
    with tracing(rec), rec.span("cli.main"):
        code = cli.main(argv)
    Path(spans_path).write_text(json.dumps(rec.dump()), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
