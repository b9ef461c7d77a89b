"""One round of a workload in a fresh interpreter.

    python3 bench/round.py SPEC.json RESULT.json

SPEC names the source root, the commands to run through
``spacing_lab.cli.main`` (timed ones first, then untimed ones whose output
only feeds a check), whether to trace, and where to write the trace.  The
import of spacing_lab is timed first, so it and the Painleve solution cache
start cold as they do for a command-line user.  RESULT holds the import
time, each command's wall time, exit code and captured stdout, the peak
resident memory after the timed commands, and, when tracing, the per-layer
summary.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _run(cli, argv):
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        error = None
    except Exception:                       # a crash fails this command only
        code, error = None, traceback.format_exc()
    return {"seconds": time.perf_counter() - start, "exit": code,
            "stdout": out.getvalue(), "error": error}


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    start = time.perf_counter()
    import spacing_lab
    import_s = time.perf_counter() - start
    source = Path(spec["root"], "src").resolve()
    if source not in Path(spacing_lab.__file__).resolve().parents:
        print(f"spacing_lab imported from {spacing_lab.__file__}, "
              f"not from {source}", file=sys.stderr)
        return 2
    from spacing_lab import cli

    tracer = None
    if spec.get("trace"):
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    timed = [_run(cli, argv) for argv in spec["timed"]]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"import_s": import_s, "timed": timed, "peak_rss_mb": rss_mb}
    if tracer is not None:
        result["layers"] = tracer.summary()
        tracer.write(spec["trace_path"])
    result["untimed"] = [_run(cli, argv) for argv in spec["untimed"]]
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
