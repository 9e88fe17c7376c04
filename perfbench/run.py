"""tropocone benchmark: three seeded workloads, cold processes, oracle checks.

Run from the repository root:

    python3 perfbench/run.py --workload fans --seed 1 --seconds 40 --trace 0

Workloads (see ``workloads.py``):
  moduli-cli  ``tropocone build-moduli`` for M_0,5 on five seeded mark names,
              then ``tropocone weights --k 2`` on its output, each command in
              its own interpreter, as a command-line user runs them.
  fans        the four criterion-6 subdivision-calculus properties on 8
              seeded complete fans in Z^2, as one library session.
  fibration   a genus>0 library session: a spanning-tree fibration, two
              forgetful maps, two clutchings, and compatible_refinement
              after cutting a seeded copy of the quadrant by a wall.

Load model: one closed-loop client (this script), concurrency 1, items run
back to back.  The seed fixes one job, its inputs.  A run repeats the job
in rounds while another round fits in ``--seconds`` (at least
``MIN_ROUNDS``).  Every round is a fresh interpreter (for moduli-cli, one
per command), so no cache survives from one round to the next, and the
items of a round share its process, as in a library session.  Children run
with
``PYTHONHASHSEED=0``: the library's set and dict orders, and with them its
search orders, follow string hashes, so a random hash seed would change
the work of a round by up to a third from one process to the next.
Before every other untraced round a fresh interpreter is timed importing
the library and generating the inputs (the set-up).

Timing: an item's time is the least of its times over the run's rounds.
Other programs on a shared host slow a run in bursts of a few seconds; the
least of several cold repetitions of the same work drops those bursts,
where a single timing or a median of a few would keep them.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds (``tracer.py`` wraps the library's public
functions from outside) and reports the per-layer metrics, the tracing
overhead, and whether the traced outputs equal the untraced ones.

Every item is checked by its oracle.  An item that raises or exits non-zero
counts as failed; an item that completes with a wrong answer also makes
``correct`` false.  Each item's output is hashed (sha256 of its canonical
``io_json`` text).  A digest that differs between the rounds of a run, or
from an earlier run of the same seed (kept in ``perfbench/runs/digests``),
makes ``correct`` false.  The last line of standard output is the JSON
result; the lines before it give provenance, per-item verdicts and every
metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "runs"
MIN_ROUNDS = 2
RUN_LIMIT_S = 170          # a run must end within 180 s
WORKLOADS = ("moduli-cli", "fans", "fibration")

MODULES = ("cli", "complexes", "cone", "fibration", "graphs", "intlinalg",
           "io_json", "moduli", "parallel", "spaces", "stfib",
           "subdivision", "weights")
FUNCTION_METRICS = {
    "graphs.canonical_form": ("calls", "self_s"),
    "graphs.contractions_between": ("calls", "self_s"),
    "graphs.enumerate_category": ("self_s",),
    "intlinalg.smith_normal_form": ("calls", "self_s"),
    "intlinalg.integer_kernel": ("calls",),
    "intlinalg.frac_solve": ("calls", "self_s"),
    "intlinalg.unimodular_inverse": ("self_s",),
    "cone.dual_generators": ("calls", "self_s"),
    "cone.poic_new": ("calls", "self_s"),
    "cone.strict_feasible": ("calls",),
    "cone.faces": ("calls",),
    "cone.check_morphism": ("calls",),
    "complexes.complex_new": ("calls", "self_s"),
    "weights.minkowski_basis": ("calls", "self_s"),
    "moduli.build_moduli": ("self_s",),
    "subdivision.arrangement_cells": ("calls", "self_s"),
    "subdivision.refine_assemble": ("calls", "self_s"),
    "subdivision.validate_subdivision": ("calls", "self_s"),
    "subdivision.intersect_cells": ("calls", "self_s"),
    "subdivision.pfine_refinement": ("calls", "self_s"),
    "spaces.space_new": ("self_s",),
    "fibration.validate_fibration": ("self_s",),
    "fibration.equivariant_basis": ("self_s",),
    "fibration.compatible_refinement": ("self_s",),
    "stfib.spanning_tree_fibration": ("self_s",),
    "stfib.forgetful": ("self_s",),
    "stfib.clutching": ("self_s",),
}
UNITS = {"calls": "count", "self_s": "s"}


def spawn(argv, deadline, stderr_path):
    """Run one child to completion, killing it at ``deadline`` (a
    ``time.monotonic`` value); return (wall_s, exit code, peak RSS in MiB,
    stderr tail).  The child's own rusage gives its peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("TROPOCONE_THREADS", None)
    with open(stderr_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(max(deadline - time.monotonic(), 0),
                                 proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = Path(stderr_path).read_text(errors="replace").strip()
    tail = tail.splitlines()[-1] if tail else ""
    return wall, proc.returncode, usage.ru_maxrss / 1024, tail


def item(name, wall, checks=None, error=None, digest=None):
    return {"name": name, "wall_s": wall, "checks": checks or {},
            "error": error, "digest": digest}


def moduli_job(marks, trace, tmp, deadline):
    """build-moduli then weights, each command in a fresh interpreter."""
    out_m, out_w = tmp / "moduli.json", tmp / "weights.json"
    commands = (
        ("build-moduli", ["build-moduli", "--genus", "0", "--marks",
                          ",".join(marks), "--out", str(out_m)], out_m),
        ("weights", ["weights", "--complex", str(out_m), "--k",
                     str(workloads.MODULI_MARKS - 3), "--out", str(out_w)],
         out_w))
    records, traces, rss = [], [], 0.0
    docs = {}
    for name, args, out in commands:
        out.unlink(missing_ok=True)
        if "build-moduli" not in docs and name == "weights":
            records.append(item(name, 0.0, error="no moduli complex"))
            continue
        trace_out = tmp / f"trace-{name}.json"
        prefix = ([sys.executable, str(BENCH / "worker.py"), "cli",
                   str(trace_out)] if trace
                  else [sys.executable, "-m", "tropocone.cli"])
        wall, code, peak, tail = spawn(prefix + args, deadline,
                                       tmp / "stderr")
        rss = max(rss, peak)
        if code != 0:
            records.append(item(name, wall, error=f"exit {code}: {tail}"))
            continue
        raw = out.read_bytes()
        docs[name] = json.loads(raw)
        checks = (workloads.check_moduli(docs[name]) if name != "weights"
                  else workloads.check_weights(docs[name],
                                               docs["build-moduli"]))
        records.append(item(name, wall, checks,
                            digest=hashlib.sha256(raw).hexdigest()))
        if trace:
            traces.append(json.loads(trace_out.read_text()))
    return records, traces, rss


def worker_job(workload, seed, trace, tmp, deadline):
    """The fans or fibration job: a library session in a fresh worker."""
    out = tmp / "job.json"
    out.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH / "worker.py"), "job", workload,
            str(seed), "1" if trace else "0", str(out)]
    wall, code, peak, tail = spawn(argv, deadline, tmp / "stderr")
    if code != 0 or not out.exists():
        return [item("session", wall, error=f"exit {code}: {tail}")], \
            [], peak
    doc = json.loads(out.read_text())
    return doc["items"], [doc["trace"]] if trace else [], peak


def measure_setup(workload, seed, tmp, deadline):
    """Wall time of a fresh interpreter that imports the library and
    generates the run's inputs."""
    wall, code, _, tail = spawn(
        [sys.executable, str(BENCH / "worker.py"), "setup", workload,
         str(seed)], deadline, tmp / "stderr")
    if code != 0:
        raise RuntimeError(f"set-up failed: exit {code}: {tail}")
    return wall


def run_rounds(workload, seed, inputs, seconds, trace, tmp, deadline):
    """Rounds of the job back to back while another round still fits in
    ``seconds`` (at least MIN_ROUNDS, and none started that could pass the
    deadline).  With ``trace`` the rounds alternate untraced and traced;
    without, every other round is preceded by a timed set-up.  Returns the
    rounds and the set-up times."""
    rounds, setups = [], []
    start = time.perf_counter()
    last = longest = 0.0
    while (len(rounds) < MIN_ROUNDS
           or time.perf_counter() - start + last < seconds):
        if rounds and time.monotonic() + 2 * longest > deadline:
            break
        t0 = time.perf_counter()
        traced = trace and len(rounds) % 2 == 1
        if not trace and len(rounds) % 2 == 0:
            setups.append(measure_setup(workload, seed, tmp, deadline))
        if workload == "moduli-cli":
            records, traces, rss = moduli_job(inputs, traced, tmp,
                                              deadline)
        else:
            records, traces, rss = worker_job(workload, seed, traced, tmp,
                                              deadline)
        rounds.append({"traced": traced, "items": records, "traces": traces,
                       "rss_mb": rss})
        last = time.perf_counter() - t0
        longest = max(longest, last)
    return rounds, setups


def best_items(rounds):
    """One record per item, in job order: the first round's record, with
    the least wall time over the rounds.  Also the names of items whose
    verdict or digest is not the same in every round."""
    first = rounds[0]["items"]
    best = [dict(r) for r in first]
    unsteady = []
    for rnd in rounds[1:]:
        if [r["name"] for r in rnd["items"]] != [r["name"] for r in first]:
            unsteady.append("item list")
            continue
        for b, r in zip(best, rnd["items"]):
            b["wall_s"] = min(b["wall_s"], r["wall_s"])
            if (r["digest"], verdict(r)) != (b["digest"], verdict(b)):
                unsteady.append(r["name"])
    return best, sorted(set(unsteady))


# ---------------------------------------------------------------------------
# verdicts, digests and metrics

def verdict(r):
    if r["error"]:
        return "FAIL"
    return "PASS" if all(r["checks"].values()) else "WRONG"


def _beta_cdf(x, a, b):
    """Regularized incomplete beta function I_x(a, b), by Lentz's
    continued fraction."""
    if x <= 0.0 or x >= 1.0:
        return max(0.0, min(1.0, x))
    if x > (a + 1) / (a + b + 2):
        return 1.0 - _beta_cdf(1.0 - x, b, a)
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x)) / a
    f, c, d = 1.0, 1.0, 0.0
    for i in range(500):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > 1e-300 else 1e-300)
        c = 1.0 + num / c
        c = c if abs(c) > 1e-300 else 1e-300
        f *= c * d
        if abs(1.0 - c * d) < 1e-14:
            break
    return front * (f - 1.0)


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile.  It weighs every order
    statistic, so a percentile in a sparse tail (the 90th of a few dozen
    items) does not hang on one or two items."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cdf = [_beta_cdf(i / n, a, b) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(xs))


def end_to_end(best, rounds, setups):
    walls = [r["wall_s"] for r in best]
    passed = sum(1 for r in best if verdict(r) == "PASS")
    job_s = sum(walls)
    return {
        "job_s": (job_s, "s"),
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (passed / job_s, "1/s"),
        "item_p50_ms": (1000 * quantile(walls, 0.5), "ms"),
        "item_p90_ms": (1000 * quantile(walls, 0.9), "ms"),
        "peak_rss_mb": (max(r["rss_mb"] for r in rounds), "MiB"),
    }


def merged_trace(traces):
    """The traces of one round's processes, summed."""
    out = {"calls": {}, "self_s": {}, "dd_inputs": set(), "snf_cells": 0,
           "snf_max_cells": 0, "bytes_read": 0, "bytes_written": 0,
           "faces_cache_entries": 0}
    for t in traces:
        for k, v in t["calls"].items():
            out["calls"][k] = out["calls"].get(k, 0) + v
        for k, v in t["self_s"].items():
            out["self_s"][k] = out["self_s"].get(k, 0.0) + v
        out["dd_inputs"].update(t["dd_inputs"])
        out["snf_max_cells"] = max(out["snf_max_cells"], t["snf_max_cells"])
        # faces_cache_entries: each process read at its end
        for k in ("snf_cells", "bytes_read", "bytes_written",
                  "faces_cache_entries"):
            out[k] += t[k]
    return out


def per_layer(traced_rounds, traced_job_s, untraced_job_s):
    """Counts from the first traced round (every round does the same work);
    self times are medians over the traced rounds."""
    docs = [merged_trace(r["traces"]) for r in traced_rounds]
    t = docs[0]
    calls = t["calls"]
    keys = {k for d in docs for k in d["self_s"]}
    self_s = {k: statistics.median(d["self_s"].get(k, 0.0) for d in docs)
              for k in keys}
    out = {}
    for fn, fields in FUNCTION_METRICS.items():
        for f in fields:
            src = calls if f == "calls" else self_s
            out[f"{fn}.{f}"] = (src.get(fn, 0), UNITS[f])
    for m in MODULES:
        out[f"{m}.self_s"] = (sum(v for k, v in self_s.items()
                                  if k.startswith(m + ".")), "s")
    dd_calls = calls.get("cone.dual_generators", 0)
    out.update({
        "intlinalg.smith_normal_form.cells": (t["snf_cells"], "count"),
        "intlinalg.smith_normal_form.max_cells": (t["snf_max_cells"],
                                                  "count"),
        "cone.dual_generators.distinct": (len(t["dd_inputs"]), "count"),
        "cone.dual_generators.distinct_ratio":
            (len(t["dd_inputs"]) / dd_calls if dd_calls else 0.0, "ratio"),
        "cone.faces_cache_entries": (t["faces_cache_entries"], "count"),
        "io_json.bytes_read": (t["bytes_read"], "B"),
        "io_json.bytes_written": (t["bytes_written"], "B"),
        "trace.spans": (sum(calls.values()), "count"),
        "trace.overhead_ratio": (traced_job_s / untraced_job_s, "ratio"),
    })
    return out


def check_digests(workload, seed, records):
    """Compare with (and extend) the digests kept for this seed; return
    the names of items whose output changed."""
    path = RUNS / "digests" / f"{workload}-{seed}.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    changed = sorted({r["name"] for r in records if r["digest"]
                      and known.get(r["name"], r["digest"]) != r["digest"]})
    for r in records:
        if r["digest"]:
            known.setdefault(r["name"], r["digest"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return changed


def provenance(workload, seed):
    commit = "unknown"   # an exported checkout has no git metadata
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for f in sorted((SRC / "tropocone").glob("*.py")):
        h.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"workload": workload, "seed": seed, "git_commit": commit,
            "source_sha256": h.hexdigest(),
            "python": platform.python_version(),
            "python_hash_seed": 0,
            "nproc": os.cpu_count()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "tropocone" / "__init__.py").is_file():
        print(f"no tropocone sources under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    prov = provenance(args.workload, args.seed)
    inputs = workloads.generate(args.workload, args.seed)
    RUNS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS) as tmpdir:
        rounds, setups = run_rounds(args.workload, args.seed, inputs,
                                    args.seconds, bool(args.trace),
                                    Path(tmpdir), deadline)
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    prov["rounds"] = len(plain)
    prov["traced_rounds"] = len(traced)
    print("provenance", json.dumps(prov, sort_keys=True))

    best, unsteady = best_items(plain)
    traced_best, traced_unsteady = best_items(traced) if traced else ([], [])
    unsteady += traced_unsteady
    all_records = [r for rnd in rounds for r in rnd["items"]]
    changed = check_digests(args.workload, args.seed, all_records)
    mismatched = [a["name"] for a, b in zip(best, traced_best)
                  if (a["digest"], verdict(a)) != (b["digest"], verdict(b))]
    if traced and len(best) != len(traced_best):
        mismatched.append("item count")
    wrong = sorted({r["name"] for r in all_records if verdict(r) == "WRONG"})
    failed = sum(1 for r in all_records if verdict(r) != "PASS")

    for r in best:
        checks = " ".join(f"{k}={'ok' if v else 'NO'}"
                          for k, v in r["checks"].items())
        print(f"item {r['name']} {verdict(r)} best {1000 * r['wall_s']:.1f} "
              f"ms sha256={(r['digest'] or '-')[:16]} {checks}"
              + (f" error={r['error']}" if r["error"] else ""))
    for name in unsteady:
        print(f"FLAG verdict or digest of {name} differs between rounds")
    for name in changed:
        print(f"FLAG digest of {name} differs from an earlier run of "
              f"seed {args.seed}")
    for name in mismatched:
        print(f"FLAG traced output of {name} differs from the untraced one")
    print(f"rounds {len(plain)} untraced, {len(traced)} traced; items "
          f"{len(best)} per round; failed_ops {failed} of "
          f"{len(all_records)} ({sum(verdict(r) != 'PASS' for r in best)} "
          f"of {len(best)} per round)")

    if args.trace:
        docs = [t for rnd in traced for t in rnd["traces"]]
        if docs:
            print(f"trace wrapped {docs[0]['functions']} functions under "
                  f"{docs[0]['bindings']} names")
        metrics = per_layer(traced, sum(r["wall_s"] for r in traced_best),
                            sum(r["wall_s"] for r in best))
    else:
        metrics = end_to_end(best, plain, setups)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")

    result = {
        "correct": not (wrong or changed or mismatched or unsteady),
        "attempted": len(all_records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}"
            f"-{os.getpid()}.json").write_text(json.dumps(
        {"provenance": prov, "best_items": best,
         "traced_best_items": traced_best, "setups_s": setups, **result},
        indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
