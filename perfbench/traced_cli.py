"""Run one ``dstl`` command with spans installed and write them as JSON.

    python3 perfbench/traced_cli.py SPANS_JSON -- fit --data ... --out ...

Behaves like ``python -m dstl.cli ...`` (same argv, same exit code); the
spans go to SPANS_JSON after the command returns.  Needs ``src`` on
PYTHONPATH.
"""

from __future__ import annotations

import json
import sys

import spans


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS_JSON -- DSTL_ARGS...", file=sys.stderr)
        return 2
    out_path, dstl_args = argv[0], argv[2:]
    import dstl.cli

    recorder = spans.Recorder()
    try:
        with spans.installed(recorder):
            code = dstl.cli.main(dstl_args)
    except spans.TraceSetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 70
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"spans": recorder.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
