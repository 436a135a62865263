"""Run one `trunclab` CLI command with the benchmark's span tracing installed.

    python3 perfbench/trace_child.py SUMMARY.json <trunclab arguments...>

Prints exactly what `python -m trunclab.cli` prints, exits with its code,
and writes the tracer's summary (aggregates and spans) to SUMMARY.json for
the parent benchmark process to fold into its own trace.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from trunclab import cli  # noqa: E402  (needs the path above)

import tracing  # noqa: E402


def main():
    summary_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    installation = tracing.Installation(tracer).install()
    code = 2
    try:
        tracer.active = True
        code = _run_cli(argv)
    finally:
        installation.uninstall()
        sys.stdout.flush()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.summary(), fh)
    return code


def _run_cli(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:      # argparse errors exit 2, as the CLI does
        return exc.code if isinstance(exc.code, int) else 2


if __name__ == "__main__":
    sys.exit(main())
