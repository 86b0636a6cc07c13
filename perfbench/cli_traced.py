"""Run one ``reactive-defense`` command with spans recorded around its calls.

    python3 perfbench/cli_traced.py --spans OUT.json -- ARGS...

Used by the cli-cold workload's traced passes in place of
``python3 -m reactive_defense.cli ARGS``.  The import of
``reactive_defense.cli`` is timed first; the spans document, with that
time as ``import_s``, is written to OUT.json after the command returns.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    split = argv.index("--") if "--" in argv else len(argv)
    own, command = argv[:split], argv[split + 1 :]
    spans_path = own[own.index("--spans") + 1]
    start = time.perf_counter()
    from reactive_defense import cli

    import_s = time.perf_counter() - start
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    code = cli.main(command)
    doc = tracer.as_doc()
    doc["import_s"] = import_s
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
