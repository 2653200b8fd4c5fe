"""Benchmark of the counterpoint toolkit: CLI latency, score analysis, world sweeps.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 40 --trace 0

Workloads (closed loop, one client, one operation at a time):

* ``cli-mix``: fresh ``python -m counterpoint.cli_reports`` processes over all
  8 commands, each request once with an empty world cache (cold) and then
  again right after (warm).  Users meet the tool as a CLI: every request pays
  interpreter start-up and import, then a world build or a cache decode.
* ``score-analysis``: in process, seeded scores through parse -> extract ->
  score -> population -> summary -> effect size -> chi-square, then seeded
  walks.  This is the library path a researcher runs over a corpus.
* ``world-sweep``: in process, ``strong_atlas`` at n = 12 and 14, then a
  gated build of every strong class at n = 10, 12 and 14.  The engine and
  the atlas do all the work.

Every run reports every end-to-end metric, so each workload runs all three
activities, interleaved, for ``--seconds``: its own activity takes half the
time and the other two a quarter each.  Each activity replays one seeded
set of inputs in passes, and every time is scaled to reference speed (see
``ops.Bench``).  With ``--trace 1`` the run instead reports the per-layer
metrics (see ``layers.py``).

The last line of stdout is the result object; one line of environment
record goes to stderr.  The machine may be shared with other work: nothing
is pinned, no cache is dropped and no setting is changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

sys.path.insert(1, str(SRC))
try:
    import layers
    import ops
except ImportError as exc:  # no program to measure here
    sys.exit(f"perfbench: cannot import the program from {SRC}: {exc}")

# workload -> the activity that gets OWN_SHARE of its run
WORKLOADS = {"cli-mix": "cli", "score-analysis": "analysis", "world-sweep": "sweep"}
OWN_SHARE = 0.5  # of a run's time, for the workload's own activity
TAIL = 0.75  # of the 12 requests' times: three lie beyond it
SETUP_REPEATS = 11
INTERP_REPEATS = 5
END_TO_END = (
    ("cli_cold_p50_ms", "ms"), ("cli_cold_tail_ms", "ms"),
    ("cli_warm_p50_ms", "ms"), ("cli_warm_tail_ms", "ms"),
    ("analyze_events_per_s", "1/s"), ("walk_steps_per_s", "1/s"),
    ("atlas_s", "s"), ("world_builds_per_s", "1/s"),
    ("setup_s", "s"), ("peak_rss_mb", "MB"),
)

# What a fresh process does before a workload's first timed operation:
# import, plus the worlds the workload's operations read.
_BUILD = "for name in {}: counterpoint.build_world(counterpoint.Dichotomy.parse(name))\n"
SETUP_CODE = {
    "cli-mix": "import counterpoint.cli_reports\n" + _BUILD.format(("fux", "mystic", "0,1,2,3,5,8")),
    "score-analysis": _BUILD.format(("fux", "mystic")),
    "world-sweep": "",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def setup_seconds(bench, workload: str) -> float:
    """Time from spawning a fresh interpreter to the end of the workload's set-up."""
    code = "import time, counterpoint\n" + SETUP_CODE[workload] + "print(time.monotonic())\n"
    start = time.monotonic()
    _, status, out, err, _ = bench.spawn(["-c", code])
    ops.expect(status == 0, f"set-up exit status {status}: {err.strip()[:300]}")
    return float(out) - start


def interp_start_ms(bench) -> float:
    return statistics.median(bench.spawn(["-c", "pass"])[0] for _ in range(INTERP_REPEATS)) * 1e3


def end_to_end(bench, workload: str) -> dict:
    def latency(kind, q):
        values = bench.medians(kind)
        return ops.percentile(values, q) * 1e3 if values else 0.0

    if workload == "cli-mix":
        peak_kb = bench.cli_child_rss_kb
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "cli_cold_p50_ms": latency("cold", 0.5), "cli_cold_tail_ms": latency("cold", TAIL),
        "cli_warm_p50_ms": latency("warm", 0.5), "cli_warm_tail_ms": latency("warm", TAIL),
        "analyze_events_per_s": bench.rate("score"),
        "walk_steps_per_s": bench.rate("walk"),
        "atlas_s": sum(bench.medians("atlas")),
        "world_builds_per_s": bench.rate("build"),
        "setup_s": sum(bench.medians("setup")), "peak_rss_mb": peak_kb / 1024,
    }


def schedule(passes: dict, own: str, seconds: float, between=lambda: None) -> None:
    """Run whole passes until ``seconds`` have passed, interleaved by time share.

    The workload's own activity gets OWN_SHARE of the time and the others
    equal parts; the activity furthest below its share runs next, so every
    activity is sampled throughout the run and each runs at least once.
    ``between`` runs after every pass.
    """
    others = (1 - OWN_SHARE) / (len(passes) - 1)
    share = {a: OWN_SHARE if a == own else others for a in passes}
    spent = dict.fromkeys(passes, 0.0)
    deadline = time.monotonic() + seconds
    while True:
        activity = min(passes, key=lambda a: spent[a] / share[a])
        start = time.monotonic()
        passes[activity]()
        spent[activity] += time.monotonic() - start
        between()
        if time.monotonic() >= deadline and all(spent.values()):
            return


def run(args, workdir: Path) -> dict:
    bench = ops.Bench(ROOT, workdir, args.seed)
    env = {"python": platform.python_version(), "commit": commit(), "nproc": os.cpu_count(),
           "loadavg_start": os.getloadavg(), "interp_start_ms": interp_start_ms(bench),
           "note": "shared machine; nothing pinned, cache-dropped or reconfigured"}
    passes = {"cli": bench.cli_pass, "analysis": bench.analysis_pass, "sweep": bench.sweep_pass}
    own = WORKLOADS[args.workload]
    if args.trace:
        tracer = ops.Tracer(lambda: bench.speed)
        import_self = layers.probe(bench, tracer)
        pass_s = {True: [], False: []}
        order = [False, True]

        def own_pair(own_pass=passes[own]):
            """One untraced and one traced pass, in alternating order."""
            for traced in order:
                bench.calibrate()
                start = time.perf_counter()
                own_pass(tracer if traced else ops.NULL_TRACER)
                pass_s[traced].append((time.perf_counter() - start) * bench.speed)
            order.reverse()

        traced_passes = {a: (lambda p=p: p(tracer)) for a, p in passes.items()}
        traced_passes[own] = own_pair
        schedule(traced_passes, own, args.seconds)
        overhead = statistics.median(pass_s[True]) / statistics.median(pass_s[False])
        values = layers.layer_metrics(tracer, import_self, overhead)
        names = layers.PER_LAYER
    else:
        def probe_setup():
            if len(bench.times.get(("setup", 0), [])) < SETUP_REPEATS:
                got = bench.attempt("set-up", setup_seconds, bench, args.workload)
                if got is not None:
                    bench.record(("setup", 0), got)

        schedule(passes, own, args.seconds, between=probe_setup)
        values = end_to_end(bench, args.workload)
        names = END_TO_END
    env["loadavg_end"] = os.getloadavg()
    env["reference_ms"] = [ops.percentile(bench.reference_s, q) * 1e3 for q in (0.1, 0.5, 0.9)]
    print("perfbench env: " + json.dumps(env), file=sys.stderr)
    missing = [name for name, _ in names if name not in values]
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
    return {
        "correct": bench.failed == 0 and not missing,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in names},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
