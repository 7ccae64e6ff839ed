"""Run one traced ``roget`` command: the CLI layer of the traced run.

Imports ``rogetsim.cli`` (timed as ``cli.import_s``), installs the tracing
wrappers, calls ``rogetsim.cli.main`` with the remaining arguments and
writes the spans and counters to TRACE_JSON.  The exit code is main's.

    python3 perfbench/launch.py ROOT TRACE_JSON --thesaurus T.rt sim a b
"""

import os
import sys
import time

import tracing


def main():
    root, trace_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, os.path.join(root, "src"))
    start = time.perf_counter()
    import rogetsim.cli
    import_s = time.perf_counter() - start
    tracer = tracing.Tracer()
    with tracer.installed():
        code = tracer.call("cli.main", rogetsim.cli.main, argv)
    sys.stdout.flush()
    tracer.write(trace_path, import_s=import_s)
    return code


if __name__ == "__main__":
    sys.exit(main())
