"""One pass of one workload, in a fresh interpreter; prints one JSON line.

Usage: python3 bench/worker.py <workload> <seed> <trace 0|1> <workdir> [limit]

A fresh interpreter per pass matters: the package memoises every result
per graph for the life of the process, so a second pass in the same process
would time memo hits.  The pass builds its inputs (timed as set-up), runs
the operations in a closed loop with one caller, and checks every answer
against bench/reference.json after the timed loop.  With trace 1 it stages
each operation layer by layer and returns its spans and counters.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

import amoebagraph  # noqa: E402

if not os.path.abspath(amoebagraph.__file__).startswith(SRC + os.sep):
    sys.exit(f"amoebagraph imported from {amoebagraph.__file__}, not from {SRC}")

import tracing  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - STARTED

# Set-up runs this many times per untraced pass; set-up time is the import
# plus the median build.
BUILDS = 3
CLI_TIMEOUT_S = 120
CLI_ENV = dict(os.environ, PYTHONPATH=SRC)
# `python -m amoebagraph.cli`, reporting the process's own peak RSS on exit.
# A child's ru_maxrss starts from the size of the process that forked it, so
# the worker could not tell a CLI call's memory from its own.
CLI = [sys.executable, "-c", """\
import atexit, runpy, sys
def peak():
    with open("/proc/self/status") as status:
        sys.stderr.write("\\n" + next(line for line in status if line.startswith("VmHWM:")))
atexit.register(peak)
runpy.run_module("amoebagraph.cli", run_name="__main__", alter_sys=True)
"""]


def build(workload: str, seed: int, workdir: str) -> list:
    if workload == "corpus-sweep":
        return workloads.corpus_ops(seed)
    if workload == "large-groups":
        return workloads.large_ops(seed)
    return workloads.cli_ops(seed, workdir)


def run_cli(cmd: list, output=None):
    """One timed CLI process: ((exit code, stdout, output file), seconds, peak kB)."""
    if output and os.path.exists(output):
        os.remove(output)
    started = time.perf_counter()
    proc = subprocess.run(
        cmd, env=CLI_ENV, capture_output=True, text=True, timeout=CLI_TIMEOUT_S
    )
    elapsed = time.perf_counter() - started
    product = None
    if output and os.path.exists(output):
        with open(output, encoding="utf-8") as handle:
            product = handle.read()
    last = proc.stderr.rstrip().rpartition("\n")[2]
    peak_kb = int(last.split()[1]) if last.startswith("VmHWM:") else None
    return (proc.returncode, proc.stdout, product), elapsed, peak_kb


def run_in_process(op, tracer):
    """Call op; under a tracer, stage its layers first."""
    if tracer is None:
        return op.call()
    g = op.graph
    if op.kind == "classify":
        tracer.stage(g, root=g.root, order=True, fixed=True, hang=True, star=True)
    else:
        tracer.stage(g, order=True)
    with tracer.span(op.kind, op.layer):
        return op.call()


def merge_child(tracer, spans_path: str) -> None:
    """Adopt the spans and counts a traced CLI process wrote."""
    with open(spans_path, encoding="utf-8") as handle:
        child = json.load(handle)
    os.remove(spans_path)
    parent = tracer.stack[-1]
    offset = len(tracer.spans)
    for name, layer, start, end, up, _op in child["spans"]:
        tracer.spans.append(
            [name, layer, start, end, parent if up is None else up + offset, tracer.op]
        )
    for key, value in child["counts"].items():
        tracer.counts[key] += value


def run_ops(ops, tracer, workdir: str):
    """The timed closed loop: (results, latencies in s, wall s, CLI peaks in kB)."""
    results, latencies, peaks = [], [], []
    shim = os.path.join(HERE, "shim.py")
    started = time.perf_counter()
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.op = index
            tracer.begin("op", "op")
        try:
            if not op.argv:
                begun = time.perf_counter()
                result = run_in_process(op, tracer)
                elapsed = time.perf_counter() - begun
            elif tracer is None:
                result, elapsed, peak_kb = run_cli(CLI + op.argv, op.output)
                peaks.append(peak_kb)
            else:
                spans_path = os.path.join(workdir, f"spans-{index}.json")
                plan = json.dumps(op.plan)
                cmd = [sys.executable, shim, spans_path, plan, *op.argv]
                result, elapsed, _peak = run_cli(cmd, op.output)
                merge_child(tracer, spans_path)
        except Exception as exc:  # the loop must go on; the op counts as failed
            result, elapsed = exc, 0.0
        finally:
            if tracer is not None:
                tracer.end()
        results.append(result)
        latencies.append(elapsed)
    return results, latencies, time.perf_counter() - started, peaks


def check(ops, results) -> list:
    refs = workloads.load_reference()
    errors = []
    for index, (op, result) in enumerate(zip(ops, results)):
        if isinstance(result, Exception):
            message = f"raised {result!r}"
        else:
            try:
                message = op.check(result, refs)
            except Exception as exc:  # a malformed answer is a wrong answer
                message = f"unreadable answer: {exc!r}"
        if message:
            errors.append(f"op {index} ({op.kind} {' '.join(op.argv)}): {message}")
    return errors


def main() -> None:
    workload, seed, trace, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4]
    limit = int(sys.argv[5]) if len(sys.argv) > 5 else None
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        for name in ("relabel", "comb_product", "family", "example"):
            setattr(workloads, name, tracer.wrap(getattr(workloads, name), name, "construct"))
        corpus = workloads.corpus
        workloads.corpus = tracer.wrap(lambda n: list(corpus(n)), "corpus", "oracle")
    builds = []
    for _ in range(1 if trace else BUILDS):
        begun = time.perf_counter()
        ops = build(workload, seed, workdir)[:limit]
        builds.append(time.perf_counter() - begun)
    is_cli = workload == "cli-verbs"
    if is_cli:  # one untimed call first, so the pass does not time a cold start
        run_cli(CLI + ["family", "path", "3"])
    if tracer is not None:
        tracer.install()
    results, latencies, wall, peaks = run_ops(ops, tracer, workdir)
    if is_cli:
        peak_rss_mb = max((kb for kb in peaks if kb is not None), default=0) / 1024
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # the reference table is loaded only now, so it neither sits in the heap
    # the timed loop works in nor counts towards its peak memory
    errors = check(ops, results)
    out = {
        "wall_s": wall,
        "setup_s": IMPORT_S + statistics.median(builds),
        "latencies_s": latencies,
        "kinds": [op.kind for op in ops],
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors[:5],
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counts"] = tracer.counts
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
