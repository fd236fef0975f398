"""contactcalc benchmark.

One workload per run, from the repository root:

    python3 perfbench/run.py --workload verify_numeric --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing off;
with ``--trace 1`` it reports per-layer calls, self time and errors from
spans around contactcalc's public functions.  The last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

All workloads, fresh process each, with a results file:

    python3 perfbench/run.py --workload all --seed 1 --seconds 25 [--trace 1]

See perfbench/NOTES.md for the metrics, the workloads and the baselines.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# One client on a small shared host: numerical libraries run on the calling
# thread only.  By default OpenBLAS starts a worker that spins on the other
# CPU for the whole loop without speeding it up, and its contention with
# other tenants made run-to-run times spread widely.  Set before numpy is
# imported here or in any child process, which inherits it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402
from workloads import ROOT, SRC, WORK  # noqa: E402

SETUP_PROBES = 5


def _check_checkout():
    if not os.path.isfile(os.path.join(SRC, "contactcalc", "__init__.py")):
        print(f"error: no contactcalc sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, SRC)


def _ready(name: str, seed: int, size: str) -> workloads.Prepared:
    """Import, build the inputs and run the warm-up ops: the set-up."""
    import contactcalc
    if not os.path.abspath(contactcalc.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported contactcalc from {contactcalc.__file__}")
    prepared = workloads.prepare(name, seed, size)
    for op in prepared.warmup:
        # A warm-up op that fails fails again in the loop, where it counts.
        try:
            op.run()
        except Exception:  # noqa: BLE001
            pass
    return prepared


def _setup_seconds(args) -> list[float]:
    """Spawn-to-ready time of fresh processes doing the whole set-up."""
    out = []
    for _ in range(1 if args.size == "tiny" else SETUP_PROBES):
        t0 = time.monotonic()
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--size", args.size, "--probe"],
            cwd=ROOT, capture_output=True, text=True, check=True)
        out.append(float(res.stdout.split()[-1]) - t0)
    return out


def _loop(ops, seconds: float, min_ops: int = 1):
    """Closed loop, one client: cycle through ``ops`` for ``seconds``.

    Returns per-op latencies and the failed count; the oracle runs outside
    the timed interval, and an exception counts as a failure.
    """
    latencies, failed = [], 0
    deadline = time.monotonic() + seconds
    i = 0
    while i < min_ops or time.monotonic() < deadline:
        op = ops[i % len(ops)]
        t0 = time.perf_counter()
        try:
            out = op.run()
        except Exception:  # noqa: BLE001 - a raising op is a failed op
            latencies.append(time.perf_counter() - t0)
            failed += 1
        else:
            latencies.append(time.perf_counter() - t0)
            failed += not _passes(op, out)
        i += 1
    return latencies, failed


def _throughput(lat: list[float], window: int) -> float:
    """Ops per second: the median over every ``window`` consecutive ops.

    A window is one mix of the workload's op kinds, so each holds the same
    work; the median keeps a slow spell of the host out of the figure.
    """
    if len(lat) < window:
        return len(lat) / sum(lat)
    ends = [0.0, *itertools.accumulate(lat)]
    return statistics.median(window / (ends[i + window] - ends[i])
                             for i in range(len(lat) - window + 1))


def _passes(op: workloads.Op, out) -> bool:
    try:
        return bool(op.check(out))
    except Exception:  # noqa: BLE001 - a malformed output is a failed op
        return False


def measure(name: str, seed: int, seconds: float, size: str, setup: list[float]) -> dict:
    """The end-to-end metrics of one untraced run."""
    prepared = _ready(name, seed, size)
    try:
        lat, failed = _loop(prepared.ops, seconds)
    finally:
        prepared.cleanup()
    if prepared.child_rss_kb:
        rss_kb = max(prepared.child_rss_kb)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p50 = statistics.median(lat)
    p90 = statistics.quantiles(lat, n=10)[-1] if len(lat) > 1 else lat[0]
    return {
        "correct": failed == 0, "attempted": len(lat), "failed": failed,
        "metrics": {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": _throughput(lat, prepared.mix or len(prepared.ops)),
                          "unit": "1/s"},
            "latency_p50_ms": {"value": p50 * 1e3, "unit": "ms"},
            "latency_p90_ms": {"value": p90 * 1e3, "unit": "ms"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        },
        "error_rate": failed / len(lat),
        "params": prepared.params,
    }


# ---------------------------------------------------------------------------
# Traced run
# ---------------------------------------------------------------------------

def _traced_cli_ops(prepared: workloads.Prepared, path: str, spans_out: list) -> list:
    """cli_cold ops that run the child under tracing.py and collect the
    spans it writes to ``path``."""
    script = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tracing.py")
    traced = []
    for op in prepared.ops:
        argv = op.label.split()
        cmd = [sys.executable, script, path, "--", *argv]

        def run(cmd=cmd):
            res = workloads.run_child(cmd, prepared.child_rss_kb)
            with open(path, encoding="utf-8") as fh:
                spans_out.append(json.load(fh))
            return res

        traced.append(workloads.Op(op.label, run, op.check))
    return traced


def _cli_layer() -> dict:
    """Interpreter start, import cost over it, and in-process cli.main time
    for the cli_cold commands (one pass, median of three)."""
    env = workloads.cli_env()

    def wall(code: str) -> float:
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True)
        return time.perf_counter() - t0

    interp = statistics.median(wall("pass") for _ in range(3))
    imp = statistics.median(wall("import contactcalc") for _ in range(3))
    mains = []
    for _ in range(3):
        t0 = time.perf_counter()
        for argv in workloads.CLI_COMMANDS:
            workloads.cli_in_process(argv)
        mains.append(time.perf_counter() - t0)
    return {"cli.interpreter_s": interp, "cli.import_s": imp - interp,
            "cli.main_s": statistics.median(mains)}


def trace(name: str, seed: int, seconds: float, size: str) -> dict:
    """Per-layer metrics: alternate traced and untraced passes over the op
    list until ``seconds`` pass (at least two of each).  Calls and errors are
    per pass and must repeat exactly; self time is the median over passes."""
    import tracing

    prepared = _ready(name, seed, size)
    n_ops = len(prepared.ops)
    cli_spans = os.path.join(WORK, f"cli_spans_{os.getpid()}.json")

    if name == "cli_cold":
        child_spans: list = []
        traced_ops = _traced_cli_ops(prepared, cli_spans, child_spans)

        def traced_pass():
            child_spans.clear()
            lat, bad = _loop(traced_ops, 0.0, n_ops)
            return lat, bad, list(child_spans)
    else:
        tracer = tracing.Tracer()

        def traced_pass():
            tracer.spans.clear()
            restore = tracing.install(tracer)
            try:
                lat, bad = _loop(prepared.ops, 0.0, n_ops)
            finally:
                restore()
            return lat, bad, [list(tracer.spans)]

    totals, times = [], {"traced": [], "untraced": []}
    attempted = failed = 0
    first_spans = None
    deadline = time.monotonic() + seconds
    try:
        while len(totals) < 2 or time.monotonic() < deadline:
            lat, bad, spans = traced_pass()
            attempted, failed = attempted + len(lat), failed + bad
            times["traced"].append(sum(lat))
            if first_spans is None:
                first_spans = spans
            pass_totals = {key: [0, 0.0, 0] for key in tracing.span_names()}
            for group in spans:
                for key, row in tracing.layer_totals(group).items():
                    acc = pass_totals.setdefault(key, [0, 0.0, 0])
                    for i in range(3):
                        acc[i] += row[i]
            totals.append(pass_totals)
            lat, bad = _loop(prepared.ops, 0.0, n_ops)
            attempted, failed = attempted + len(lat), failed + bad
            times["untraced"].append(sum(lat))
    finally:
        prepared.cleanup()
        workloads.remove_file(cli_spans)

    def counts(t):
        return {k: (v[0], v[2]) for k, v in t.items()}

    repeat_ok = all(counts(t) == counts(totals[0]) for t in totals)
    metrics = {}
    for key in tracing.span_names():
        metrics[f"{key}.calls"] = {"value": totals[0][key][0], "unit": "count"}
        metrics[f"{key}.self_s"] = {
            "value": statistics.median(t[key][1] for t in totals), "unit": "s"}
        metrics[f"{key}.errors"] = {"value": totals[0][key][2], "unit": "count"}
    for key, value in _cli_layer().items():
        metrics[key] = {"value": value, "unit": "s"}
    for kind in ("traced", "untraced"):
        metrics[f"trace.{kind}_ops_per_s"] = {
            "value": n_ops / statistics.median(times[kind]), "unit": "1/s"}

    os.makedirs(WORK, exist_ok=True)
    span_file = os.path.join(WORK, f"spans_{name}_seed{seed}.json")
    with open(span_file, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "parent", "name", "start_ns", "end_ns", "raised"],
                   "processes": first_spans}, fh)
    return {"correct": failed == 0 and repeat_ok, "attempted": attempted,
            "failed": failed, "metrics": metrics, "params": prepared.params,
            "error_rate": failed / attempted, "calls_repeat": repeat_ok,
            "span_file": span_file, "traced_passes": len(totals)}


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def provenance(args, params: dict) -> dict:
    import numpy
    import scipy

    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = res.stdout.strip() if res.returncode == 0 else "unknown"
    except OSError:
        commit = "unknown"
    return {"commit": commit, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "size": args.size, "params": params}


def _emit(result: dict, args):
    if args.trace:
        print(f"{args.workload}: traced passes {result['traced_passes']}, "
              f"calls repeat {result['calls_repeat']}, spans in {result['span_file']}")
    else:
        print(f"{args.workload}: {result['attempted']} ops, error_rate "
              f"{result['error_rate']:.4g} ({result['failed']}/{result['attempted']})")
    for key, m in result["metrics"].items():
        print(f"  {key}\t{m['value']:.6g}\t{m['unit']}")
    print("provenance " + json.dumps(provenance(args, result["params"]), sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}),
          flush=True)


def suite(args) -> int:
    """Every workload in a fresh process; prints a table, writes a file."""
    results = {}
    for name in workloads.NAMES:
        for tr in ((0, 1) if args.trace else (0,)):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(tr), "--size", args.size]
            res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if res.returncode != 0:
                print(res.stderr, file=sys.stderr)
                return res.returncode
            lines = res.stdout.splitlines()
            prov = json.loads(lines[-2][len("provenance "):])
            results.setdefault(name, {"provenance": prov})[f"trace{tr}"] = json.loads(lines[-1])
    print(f"{'workload':18} {'metric':16} {'value':>12}  unit")
    for name, res in results.items():
        r0 = res["trace0"]
        for key, m in r0["metrics"].items():
            print(f"{name:18} {key:16} {m['value']:12.5g}  {m['unit']}")
        print(f"{name:18} {'error_rate':16} {r0['failed'] / r0['attempted']:12.5g}  "
              f"ratio (n={r0['attempted']})")
        if "trace1" in res:
            m = res["trace1"]["metrics"]
            ratio = m["trace.traced_ops_per_s"]["value"] / m["trace.untraced_ops_per_s"]["value"]
            print(f"{name:18} {'trace_overhead':16} {ratio:12.5g}  traced/untraced ops_per_s")
    out = os.path.join(WORK, f"bench_seed{args.seed}.json")
    os.makedirs(WORK, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    print(f"results written to {out}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: smallest inputs and one set-up probe (tests)")
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    _check_checkout()
    if args.workload == "all":
        return suite(args)
    if args.probe:
        prepared = _ready(args.workload, args.seed, args.size)
        print(time.monotonic(), flush=True)
        prepared.cleanup()
        return 0
    if args.trace:
        result = trace(args.workload, args.seed, args.seconds, args.size)
    else:
        setup = _setup_seconds(args)
        result = measure(args.workload, args.seed, args.seconds, args.size, setup)
    _emit(result, args)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
