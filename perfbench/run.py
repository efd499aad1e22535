"""cfku benchmark: one serial client runs a fixed case list and times it.

    python3 perfbench/run.py --workload {sweep,full,oracle} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a checkout; cfku is imported from its ``src``
directory, not from an installed copy.  The loop is closed with one
client: a case starts when the previous one has finished.  A pass runs
every case of the workload once, in an order shuffled by the seed and
the pass number, in a fresh interpreter that imports cfku and builds
the inputs itself, as one ``cfku verify`` run would; no pass sees what
an earlier one left in memory.  Passes run one after another until
``--seconds`` have gone by, and at least two run so that two orders can
be compared.  Results are checked in the pass's process, outside the
timed region, against the closed form, and then across passes, and the
run exits 1 if any case failed.

With ``--trace 0`` the end-to-end metrics are measured with nothing
wrapped.  With ``--trace 1`` untraced and traced passes alternate; the
traced ones give the per-layer metrics and the spans, and the untraced
ones the tracing overhead.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics; the
full record, with provenance and every pass, goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MIN_PASSES = 2
# set-up samples per --trace 0 run: one per pass, topped up with
# processes that only set up
SETUP_SAMPLES = 7


@dataclass
class Pass:
    traced: bool
    wall: float
    pid: int
    peak_rss_mb: float
    times: dict[str, float] = field(default_factory=dict)
    summaries: dict[str, str] = field(default_factory=dict)
    failures: dict[str, str] = field(default_factory=dict)
    # per-layer metrics of a traced pass: name -> (value, unit)
    layers: dict[str, tuple[float, str]] = field(default_factory=dict)


def import_cfku():
    """Import cfku from this checkout's ``src``; exit non-zero if it is absent."""
    if not (SRC / "cfku" / "__init__.py").is_file():
        sys.exit("perfbench: no cfku sources at %s; run from a checkout of the repo" % SRC)
    sys.path.insert(0, str(SRC))
    import cfku
    from cfku import complexes, cone, homology, involution, pretzel, upoly  # noqa: F401

    if not Path(cfku.__file__).resolve().is_relative_to(SRC):
        sys.exit("perfbench: cfku was imported from %s, not %s" % (cfku.__file__, SRC))
    return cfku


def run_pass(cases: list[workloads.Case], seed: int, index: int, tracer=None) -> Pass:
    """Time every case once, in this process, then check the results."""
    order = list(cases)
    random.Random(seed + index).shuffle(order)
    outcomes = []
    with tracer or contextlib.nullcontext():
        start = time.perf_counter()
        for case in order:
            t0 = time.perf_counter()
            try:
                result, error = case.call(), None
            except Exception:
                result, error = None, traceback.format_exc()
            outcomes.append((case, time.perf_counter() - t0, result, error))
        wall = time.perf_counter() - start
    p = Pass(
        tracer is not None, wall, os.getpid(),
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        layers=tracer.metrics() if tracer else {},
    )
    for case, elapsed, result, error in outcomes:
        p.times[case.key] = elapsed
        if error is None:
            try:
                p.summaries[case.key], problem = case.check(result)
            except Exception:
                problem = traceback.format_exc()
        else:
            problem = error
        if problem:
            p.failures[case.key] = problem
    return p


def compare_orders(passes: list[Pass]) -> None:
    """Fail a case whose result differs from its result in an earlier pass."""
    first: dict[str, str] = {}
    for p in passes:
        for key, summary in p.summaries.items():
            if first.setdefault(key, summary) != summary:
                p.failures[key] = "result differs between case orders: %s vs %s" % (
                    first[key], summary,
                )


def spawn(workload: str, seed: int, index: int | None, traced: bool) -> tuple[float, Pass | None]:
    """Run pass ``index`` in a fresh interpreter, or with None only set up.

    Returns the set-up time, from process start to first case ready, and
    the pass.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", workload,
        "--seed", str(seed), "--trace", str(int(traced)),
    ]
    cmd += ["--setup-only"] if index is None else ["--pass", str(index)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        proc.wait()
    if ready != b"ready\n" or proc.returncode:
        raise RuntimeError("pass process %s failed (exit %s)" % (index, proc.returncode))
    if index is None:
        return setup, None
    record = json.loads(rest.splitlines()[-1])
    record["layers"] = {k: tuple(v) for k, v in record["layers"].items()}
    return setup, Pass(**record)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[Pass], list[float]]:
    """Run passes until ``seconds`` have gone by; return them and the set-up times."""
    passes: list[Pass] = []
    setups: list[float] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        traced = trace and len(passes) % 2 == 1
        setup, p = spawn(workload, seed, len(passes), traced)
        setups.append(setup)
        passes.append(p)
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, None, False)[0])
    compare_orders(passes)
    return passes, setups


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes: list[Pass], setups: list[float]) -> dict[str, tuple[float, str]]:
    plain = [p for p in passes if not p.traced]
    # per case, the median over passes; then the percentiles over cases
    per_case = [statistics.median(p.times[k] for p in plain) for k in plain[0].times]
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p.wall for p in plain), "s"),
        "case_p50_ms": (1e3 * statistics.median(per_case), "ms"),
        "case_p90_ms": (1e3 * quantile(per_case, 90), "ms"),
        "case_max_ms": (1e3 * max(per_case), "ms"),
        "peak_rss_mb": (statistics.median(p.peak_rss_mb for p in plain), "MB"),
    }


def per_layer(passes: list[Pass]) -> dict[str, tuple[float, str]]:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    # counts repeat exactly from pass to pass; times are medians
    out = dict(traced[0].layers)
    for name, (_value, unit) in out.items():
        if name.endswith(".self_s"):
            out[name] = (statistics.median(p.layers[name][0] for p in traced), unit)
    # noise can make this negative when the tracer costs little
    out["trace.overhead_s"] = (
        statistics.median(p.wall for p in traced) - statistics.median(p.wall for p in plain), "s",
    )
    return out


def provenance(cfku, load_before) -> dict:
    rev = None
    if shutil.which("git") and (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "cfku").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "cfku_file": cfku.__file__,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--setup-only", action="store_true",
        help="import cfku, build the workload's cases, print 'ready' and exit",
    )
    mode.add_argument(
        "--pass", type=int, dest="pass_index", metavar="K",
        help="set up, print 'ready', run pass K in this process (traced with "
        "--trace 1) and print its record as one JSON line",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def stem(workload: str, seed: int, trace: int) -> str:
    return "%s-seed%d-trace%d" % (workload, seed, trace)


def run_one_pass(args) -> int:
    """The body of a pass process: set up, run one pass, report it."""
    import_cfku()
    cases = workloads.BUILDERS[args.workload]()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    tracer = tracing.Tracer() if args.trace else None
    p = run_pass(cases, args.seed, args.pass_index, tracer)
    if tracer:
        OUT.mkdir(exist_ok=True)
        with open(OUT / (stem(args.workload, args.seed, 1) + "-spans.tsv"), "a") as fh:
            tracer.write_spans(fh, str(args.pass_index))
    print(json.dumps(asdict(p)))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only or args.pass_index is not None:
        return run_one_pass(args)
    load_before = os.getloadavg()
    cfku = import_cfku()
    OUT.mkdir(exist_ok=True)
    name = stem(args.workload, args.seed, args.trace)
    if args.trace:
        (OUT / (name + "-spans.tsv")).write_text("pass\tid\tparent\tname\tstart_ns\tend_ns\n")

    passes, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    metrics = per_layer(passes) if args.trace else end_to_end(passes, setups)

    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    for p in passes:
        for key, problem in sorted(p.failures.items()):
            print("FAILED %s: %s" % (key, problem.strip()), file=sys.stderr)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(cfku, load_before),
        "setup_samples_s": setups,
        "passes": [
            {
                "traced": p.traced, "pid": p.pid, "wall_s": p.wall,
                "peak_rss_mb": p.peak_rss_mb, "case_s": p.times, "failures": p.failures,
            }
            for p in passes
        ],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / (name + ".json")).write_text(json.dumps(record, indent=1) + "\n")

    print("provenance %s" % json.dumps(record["provenance"]))
    print("passes %d (%d traced), each in its own process" % (
        len(passes), sum(p.traced for p in passes)))
    for key, (value, unit) in metrics.items():
        print("%-48s %14.6f %s" % (key, value, unit))
    print("%-48s %14.6f %s" % ("failed_ratio", failed / attempted, "ratio"))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
