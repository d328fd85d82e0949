"""One measured invocation of a gmspde CLI command in a fresh interpreter.

``run.py`` starts this script once per sample with a JSON job on argv:

    {"argv": [...], "setup_argv": [...], "setup_repeats": 5, "trace": false}

It times ``import gmspde.cli``, then ``cli.main(setup_argv)`` (the
``spectrum`` command: config parse, validation and basis build) several
times, then ``cli.main(argv)`` once, from call to return.  With
``trace`` set, span wrappers are installed between the two phases, so
only the main command is traced.  The last stdout line is a JSON record.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time


def main():
    job = json.loads(sys.argv[1])
    t0 = time.perf_counter()
    from gmspde import cli
    import_s = time.perf_counter() - t0

    setup_s = []
    for _ in range(job["setup_repeats"]):
        t0 = time.perf_counter()
        rc = cli.main(job["setup_argv"])
        setup_s.append(time.perf_counter() - t0)
        if rc != 0:
            break

    tracer = None
    if job["trace"] and rc == 0:
        from spans import Tracer  # this script's directory leads sys.path
        tracer = Tracer()
        tracer.install()
    wall_s = None
    if rc == 0:
        t0 = time.perf_counter()
        rc = cli.main(job["argv"])
        wall_s = time.perf_counter() - t0
    record = {
        "rc": rc,
        "import_s": import_s,
        "setup_s": statistics.median(setup_s),
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "gmspde_file": cli.__file__,
    }
    if tracer is not None:
        tracer.uninstall()
        record["layers"] = tracer.metrics()
        record["absent"] = tracer.absent_metrics()
    print(json.dumps(record))


if __name__ == "__main__":
    main()
