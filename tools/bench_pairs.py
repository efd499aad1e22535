"""Paired perfbench runs of a parent and a change tree, in one JSON file.

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --label LABEL --run oracle=201-210 --run sweep=211-215 \\
        --seconds 20 --trace-seed 61

Each tree is the root of a checkout with its own ``src/`` and
``perfbench/``.  For every workload and seed of a ``--run``, the command

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

runs once from the root of each tree, one side right after the other.
The side that runs first alternates from pair to pair, starting with
the parent.  With ``--trace-seed``, each workload also gets one
``--trace 1 --seconds 2`` run per side for its per-layer metrics.

The result is ``BENCH_<LABEL>.json`` in the current directory, with the
keys about, command, parent, change, host, summary (per workload and
end-to-end metric: each side's median and quartiles over its runs, the
number of pairs the change wins, the relative change of the median,
and the verdicts ``gain_resolved``, ``within_bound`` and
``unresolved``), traced and
runs.  The end-to-end metrics, the direction in which each is better
and its bound are read from the change tree's ``BENCHMARK.json``.
A run record also keeps the ``peak_rss_mb`` of each untraced pass, and
the summary compares the two sides of a pair over the passes both ran
(``peak_rss_mb_same_passes``): a pass process inherits the memory
high-water mark of ``run.py``, which grows by one record per pass, so
the run's median favours the side that fits fewer passes into the run.
A side reports its failed cases in its run records; a run that prints
no result stops the tool.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
# a traced run only needs its per-layer counts, which repeat exactly
TRACE_SECONDS = 2.0
COMMAND = "python3 perfbench/run.py --workload W --seed S --seconds %g --trace T"


def parse_seeds(text: str) -> list[int]:
    """``201-210`` or ``201,205,207`` -> a list of seeds."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def run_side(tree: Path, side: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run from the root of ``tree``, as a run record."""
    cmd = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.exit("bench_pairs: %s run of %s seed %d printed no result:\n%s"
                 % (side, workload, seed, proc.stderr))
    result = json.loads(lines[-1])
    full = json.loads(
        (tree / ".bench_out" / ("%s-seed%d-trace%d.json" % (workload, seed, trace))).read_text()
    )
    return {
        "side": side,
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_revision": full["provenance"]["git_revision"],
        "src_sha256": full["provenance"]["src_sha256"],
        "passes": len(full["passes"]),
        "pass_peak_rss_mb": [p["peak_rss_mb"] for p in full["passes"] if not p["traced"]],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "loadavg_before": full["provenance"]["loadavg_before"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per workload, the paired trace-0 runs compared metric by metric.

    A pair is the parent's and the change's run of one seed; a run
    without its partner is left out.  The change wins a pair when its
    value is strictly better in the metric's direction, so ties count
    for neither side.  The two verdicts follow the claim rule of a
    paired benchmark: ``gain_resolved`` holds when the change wins at
    least nine tenths of the pairs and its median is better than the
    parent's by more than the parent's q3 - q1; ``within_bound`` holds
    when the change's median is worse than the parent's by at most the
    metric's ``bound``, a fraction of the parent's median.  The flag
    ``unresolved`` holds when the parent's q3 - q1 exceeds that bound,
    so its runs spread too widely to read either verdict, unless every
    run of the change is better than every run of the parent.
    """
    plain = [r for r in runs if r["trace"] == 0]
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in plain):
        by_seed = {
            side: {r["seed"]: r for r in plain if r["workload"] == workload and r["side"] == side}
            for side in SIDES
        }
        seeds = sorted(by_seed["parent"].keys() & by_seed["change"].keys())
        metrics = {}
        for spec in end_to_end:
            name = spec["name"]
            sign = 1 if spec["better"] == "lower" else -1
            values = {side: [by_seed[side][s]["metrics"][name] for s in seeds] for side in SIDES}
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            gain = sign * (parent["median"] - change["median"])
            spread = parent["q3"] - parent["q1"]
            all_win = max(sign * c for c in values["change"]) < min(
                sign * p for p in values["parent"]
            )
            metrics[name] = {
                "parent": parent,
                "change": change,
                "change_wins": wins,
                "change_vs_parent_median": change["median"] / parent["median"] - 1,
                "gain_resolved": 10 * wins >= 9 * len(seeds) and gain > spread,
                "within_bound": -gain <= spec["bound"] * parent["median"],
                "unresolved": spread > spec["bound"] * parent["median"] and not all_win,
            }
        out[workload] = {
            "seeds": seeds,
            "pairs": len(seeds),
            "failed": {side: sum(by_seed[side][s]["failed"] for s in seeds) for side in SIDES},
            "metrics": metrics,
        }
        pairs = [(by_seed["parent"][s], by_seed["change"][s]) for s in seeds]
        if all("pass_peak_rss_mb" in r for pair in pairs for r in pair):
            out[workload]["peak_rss_mb_same_passes"] = same_passes(pairs)
    return out


def same_passes(pairs: list[tuple[dict, dict]]) -> dict:
    """Each side's median pass peak RSS over the first k passes of a pair,
    k the smaller of the two pass counts, compared as summarise does."""
    values = {side: [] for side in SIDES}
    for pair in pairs:
        k = min(len(r["pass_peak_rss_mb"]) for r in pair)
        for side, r in zip(SIDES, pair):
            values[side].append(statistics.median(r["pass_peak_rss_mb"][:k]))
    return {
        "parent": quartiles(values["parent"]),
        "change": quartiles(values["change"]),
        "change_wins": sum(c < p for p, c in zip(values["parent"], values["change"])),
        "change_vs_parent_median": (
            statistics.median(values["change"]) / statistics.median(values["parent"]) - 1
        ),
    }


def host() -> dict:
    with open("/proc/cpuinfo") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), None)
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="root of the parent tree")
    parser.add_argument("--change", type=Path, required=True, help="root of the change tree")
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument(
        "--run", action="append", required=True, metavar="WORKLOAD=SEEDS",
        help="a workload and its seeds, as 201-210 or 201,205; repeatable",
    )
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="also make one traced run per side and workload")
    parser.add_argument("--about", default="", help="free text stored under 'about'")
    args = parser.parse_args(argv)
    args.plan = []
    for item in args.run:
        workload, _, seeds = item.partition("=")
        try:
            seeds = parse_seeds(seeds)
        except ValueError:
            parser.error("--run %r: seeds must be A-B or A,B,..." % item)
        if len(seeds) < 2:
            parser.error("--run %r: quartiles need at least two pairs" % item)
        args.plan.append((workload, seeds))
    for tree in (args.parent, args.change):
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error("%s has no perfbench/run.py" % tree)
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    end_to_end = json.loads((trees["change"] / "BENCHMARK.json").read_text())["end_to_end"]
    runs, traced = [], {}
    for workload, seeds in args.plan:
        for k, seed in enumerate(seeds):
            order = SIDES if k % 2 == 0 else SIDES[::-1]
            for first, side in zip((True, False), order):
                record = run_side(trees[side], side, workload, seed, args.seconds, 0)
                record["ran_first"] = first
                runs.append(record)
                print("%s seed %d %s: wall_s %.4f, failed %d" % (
                    workload, seed, side, record["metrics"]["wall_s"], record["failed"],
                ), file=sys.stderr)
        if args.trace_seed is not None:
            traced[workload] = {}
            for side in SIDES:
                record = run_side(
                    trees[side], side, workload, args.trace_seed, TRACE_SECONDS, 1,
                )
                traced[workload][side] = {
                    "seed": args.trace_seed, "failed": record["failed"], **record["metrics"],
                }
    first_run = {side: next(r for r in runs if r["side"] == side) for side in SIDES}
    document = {
        "about": args.about,
        "command": COMMAND % args.seconds,
        **{
            side: {
                "git_revision": first_run[side]["git_revision"],
                "src_sha256": first_run[side]["src_sha256"],
            }
            for side in SIDES
        },
        "host": host(),
        "summary": summarise(runs, end_to_end),
        "traced": traced,
        "runs": runs,
    }
    out = Path("BENCH_%s.json" % args.label)
    out.write_text(json.dumps(document, indent=1) + "\n")
    print("wrote %s" % out, file=sys.stderr)
    failed = [r["failed"] for r in runs] + [
        t[side]["failed"] for t in traced.values() for side in SIDES
    ]
    return 1 if any(failed) else 0


if __name__ == "__main__":
    sys.exit(main())
