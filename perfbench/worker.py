"""Child process of the benchmark; every invocation is a fresh interpreter.

    worker.py setup WORKLOAD SEED
        import the library and generate the run's inputs, then exit
        (the set-up a user pays before the first item).
    worker.py job WORKLOAD SEED TRACE OUT
        run the job of the ``fans`` or ``fibration`` workload as one library
        session and write its item records (and the trace) to OUT.
    worker.py cli TRACE_OUT ARGS...
        run the ``tropocone`` command line traced and write the trace.

``run.py`` puts the repository's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
from contextlib import nullcontext

import tracer
import workloads


def _traced():
    t = tracer.Tracer()
    t.install(tracer.load_package())
    return t


def _trace_doc(t):
    from tropocone import cone
    doc = t.report()
    doc["faces_cache_entries"] = len(getattr(cone, "_FACES_CACHE", ()))
    return doc


def run_job(workload, seed, trace):
    tracer.load_package()
    from tropocone import io_json
    items = workloads.job_items(workload, workloads.generate(workload, seed))
    t = _traced() if trace else None
    records = []
    for name, item in items:
        t0 = time.perf_counter()
        try:
            checks, output = item()
            error = None
        except Exception as exc:  # an item failure is data, not a crash
            checks, output = {}, None
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        digest = None
        if output is not None:
            with t.suspended() if t else nullcontext():
                text = io_json.dumps(output())
            digest = hashlib.sha256(text.encode()).hexdigest()
        records.append({"name": name, "wall_s": wall, "checks": checks,
                        "error": error, "digest": digest})
    return {"items": records, "trace": _trace_doc(t) if t else None}


def run_cli(trace_out, argv):
    t = _traced()
    from tropocone import cli
    try:
        code = cli.main(argv)
    finally:
        with open(trace_out, "w") as fh:
            json.dump(_trace_doc(t), fh)
    return code


def main(argv):
    mode = argv[0]
    if mode == "setup":
        tracer.load_package()
        workloads.generate(argv[1], int(argv[2]))
        return 0
    if mode == "job":
        workload, seed, trace, out = argv[1:5]
        doc = run_job(workload, int(seed), trace == "1")
        with open(out, "w") as fh:
            json.dump(doc, fh)
        return 0
    if mode == "cli":
        return run_cli(argv[1], argv[2:])
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
