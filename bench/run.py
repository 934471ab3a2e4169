"""The snarkforge benchmark: fixed workloads, every answer checked, one
JSON result line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --write-spec       # rewrite BENCHMARK.json
    python3 bench/run.py --write-expected   # re-seed bench/expected.json

Each repetition of a workload runs in a fresh ``python3 bench/child.py``
process, one at a time, calling the library in a closed loop with a single
caller (``search(..., workers=1)``).  An untraced run (``--trace 0``) first
starts SETUP_SAMPLES children that stop at their first timed call, then
repeats the workload MIN_REPS times and after that while another
repetition still fits in ``--seconds``, and reports medians of the
end-to-end metrics.  Times are the children's reference seconds (see
``bench/refclock.py``); plain CPU and wall-clock figures are printed and
kept in the run's ``result.json`` as metadata only.  A traced
run (``--trace 1``) runs the workload once untraced and once traced, checks
that both produce the same answers, and reports per-layer span self times
and counters.  Any seed other than 0 also runs the labeling-independent
checks on relabeled small instances.

Every operation's answer is compared with ``bench/expected.json``, written
once from the seed code by ``--write-expected`` and cross-checked by
``bench/crosscheck.py``.  Human-readable lines (run metadata, each metric
with its unit, failed operations) come first; the last line of standard
output is the JSON result.  Child outputs and spans are kept under
``.bench_out/`` in the checkout.  Exit status: 0 when a result is printed
(its ``correct`` says whether every answer matched), 2 when the checkout
has no ``src/snarkforge``, 3 when a child crashes or the run overruns its
deadline.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import layer_times

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
EXPECTED = BENCH / "expected.json"

RUN_SECONDS = 30
SETUP_SAMPLES = 16
# One splice-chain repetition takes 20-30 s on the wall clock, so it runs
# twice even though two take longer than RUN_SECONDS; the other workloads
# fit three or more.
MIN_REPS = 2
# Every run must end within 180 s; leave room for the parent's own exit.
DEADLINE_S = 170.0

# The joins workload (pentagon joins plus four dot products) was dropped:
# edge_orbits on the flower(5) pentagon join alone takes ~83 s, so a traced
# run (untraced + traced repetition) would pass the 180 s cap.
WORKLOADS = [
    {"name": "splice-chain",
     "why": "search over the superposition chain P, j=1..3 (69 edges at j=3): "
            "the psi counting kernel does ~90% of the work, isomorphism almost none"},
    {"name": "flowers",
     "why": "search over flowers 5..13 (up to 78 edges, 4 orbits each): cyclic "
            "connectivity, edge orbits and certification dominate, psi is ~12%"},
    {"name": "identities",
     "why": "theorem 3.3-5.3 verifiers, orthogonal-pair census, ledger load/export/"
            "reverify: coloring runs as enumeration, the ledger is read not written"},
]
# In reference seconds, two sets of ten seeds per workload on a shared
# 2-vCPU machine spread (quartile distance over median) 0.015-0.06 on the
# times, the most on splice-chain, whose two repetitions are long enough to
# catch other tenants' load that the clock corrects only in part; wall-clock
# times spread 0.12-0.20, and the sets' medians differed by at most 3%.
# setup_s, about 0.1 s of imports and file copies, takes the largest bound.
END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "slowest_recipe_s", "unit": "s", "better": "lower", "bound": 0.2},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]
PER_LAYER = [
    {"name": "coloring.psi_s", "unit": "s", "better": "lower"},
    {"name": "coloring.psi_max_s", "unit": "s", "better": "lower"},
    {"name": "coloring.psi_calls", "unit": "count", "better": "lower"},
    {"name": "coloring.decompositions_counted", "unit": "count", "better": "lower"},
    {"name": "coloring.count_colorings_s", "unit": "s", "better": "lower"},
    {"name": "graph.cyclic_connectivity_s", "unit": "s", "better": "lower"},
    {"name": "graph.girth_s", "unit": "s", "better": "lower"},
    {"name": "graph.pentagons_s", "unit": "s", "better": "lower"},
    {"name": "isomorphism.edge_orbits_s", "unit": "s", "better": "lower"},
    {"name": "isomorphism.edge_orbits_max_s", "unit": "s", "better": "lower"},
    {"name": "isomorphism.orbit_ratio", "unit": "ratio", "better": "lower"},
    {"name": "recipe.evaluate_s", "unit": "s", "better": "lower"},
    {"name": "graph6.encode_s", "unit": "s", "better": "lower"},
    {"name": "ledger.record_s", "unit": "s", "better": "lower"},
    {"name": "ledger.bytes_written", "unit": "bytes", "better": "lower"},
    {"name": "ledger.records_written", "unit": "count", "better": "higher"},
    {"name": "ledger.truncations", "unit": "count", "better": "lower"},
    {"name": "ledger.load_s", "unit": "s", "better": "lower"},
    {"name": "ledger.reverify_s", "unit": "s", "better": "lower"},
    {"name": "ledger.export_s", "unit": "s", "better": "lower"},
    {"name": "analyze.verify_3_3_s", "unit": "s", "better": "lower"},
    {"name": "analyze.verify_3_7_s", "unit": "s", "better": "lower"},
    {"name": "analyze.verify_4_5_s", "unit": "s", "better": "lower"},
    {"name": "analyze.verify_4_8_s", "unit": "s", "better": "lower"},
    {"name": "analyze.verify_5_3_s", "unit": "s", "better": "lower"},
    {"name": "analyze.checks", "unit": "count", "better": "higher"},
    {"name": "analyze.checks_failed", "unit": "count", "better": "lower"},
    {"name": "kempe.orthogonal_pairs_s", "unit": "s", "better": "lower"},
    {"name": "trace_overhead_frac", "unit": "ratio", "better": "lower"},
]
# Per-layer metrics read from child counters rather than from spans.
COUNTERS = ("coloring.decompositions_counted", "ledger.bytes_written",
            "ledger.records_written", "ledger.truncations",
            "analyze.checks", "analyze.checks_failed")


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def spec() -> dict:
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


class ChildFailed(Exception):
    pass


def run_child(workload: str, out: Path, deadline: float, *flags: str) -> dict:
    """Run one child to completion and return its result, with
    ``setup_wall`` measured from just before the spawn to the child's first
    timed call."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", workload,
           "--out", str(out), *flags]
    spawned = monotonic()
    try:
        subprocess.run(cmd, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                       timeout=max(1.0, deadline - spawned))
    except subprocess.CalledProcessError as exc:
        raise ChildFailed(f"{' '.join(cmd[1:])} exited with {exc.returncode}") from None
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{' '.join(cmd[1:])} overran the run deadline") from None
    result = json.loads(out.read_text(encoding="utf-8"))
    result["setup_wall"] = result["first_call"] - spawned
    return result


def canon(answer) -> str:
    return json.dumps(answer, sort_keys=True)


def compare(ops: list[dict], expected: dict) -> tuple[int, list[str]]:
    """(operations attempted, names of the failed ones).  An operation fails
    if it raised, is missing, is unexpected, or its answer differs."""
    actual = {op["name"]: op for op in ops}
    names = list(expected) + [name for name in actual if name not in expected]
    failed = [
        name for name in names
        if name not in actual or actual[name]["error"] is not None
        or canon(actual[name]["answer"]) != canon(expected.get(name))
    ]
    return len(names), failed


def end_to_end(reps: list[dict], setups: list[dict]) -> dict:
    med = statistics.median
    return {
        "wall_s": med(r["seconds"] for r in reps),
        "slowest_recipe_s": med(max(op["seconds"] for op in r["ops"]) for r in reps),
        "setup_s": med(r["setup"] for r in setups + reps),
        "peak_rss_mb": med(r["peak_rss_kb"] / 1024 for r in reps),
    }


def wall_clock(reps: list[dict], setups: list[dict]) -> dict:
    """Plain CPU and wall-clock medians of the same runs: metadata, not
    metrics, since other tenants' load on a shared machine moves them."""
    med = statistics.median
    return {
        "cpu_s": med(r["cpu"] for r in reps),
        "wall_clock_s": med(r["wall"] for r in reps),
        "setup_wall_clock_s": med(r["setup_wall"] for r in setups + reps),
    }


def per_layer(untraced: dict, traced: dict) -> dict:
    self_s, max_s, calls = layer_times(traced["spans"])
    counters = traced["counters"]
    values = {}
    for metric in PER_LAYER:
        name = metric["name"]
        if name in COUNTERS:
            values[name] = counters.get(name, 0)
        elif name.endswith("_max_s"):
            values[name] = max_s.get(name[: -len("_max_s")], 0.0)
        elif name.endswith("_s"):
            values[name] = self_s.get(name[: -len("_s")], 0.0)
    psi_calls = calls.get("coloring.psi", 0)
    edges = counters.get("edges", 0)
    values["coloring.psi_calls"] = psi_calls
    values["isomorphism.orbit_ratio"] = psi_calls / edges if edges else 0.0
    values["trace_overhead_frac"] = traced["seconds"] / untraced["seconds"] - 1
    return {m["name"]: values[m["name"]] for m in PER_LAYER}


def src_summary() -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def git_sha() -> str | None:
    """HEAD of the checkout, or None when it is not its own git work tree."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        **src_summary(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def measure(args, rundir: Path, deadline: float) -> dict:
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[args.workload]
    workload = args.workload
    attempted, failed, clock = 0, [], {}
    if args.trace:
        untraced = run_child(workload, rundir / "untraced.json", deadline)
        traced = run_child(workload, rundir / "traced.json", deadline, "--trace")
        reps = [untraced, traced]
        metrics = per_layer(untraced, traced)
        (rundir / "spans.json").write_text(json.dumps(traced["spans"]), encoding="utf-8")
        # The traced run must be the same program: same answers, op by op.
        n, differ = compare(traced["ops"], {op["name"]: op["answer"] for op in untraced["ops"]})
        attempted += n
        failed += [f"traced differs from untraced: {name}" for name in differ]
    else:
        setups = [run_child(workload, rundir / f"setup{k}.json", deadline, "--setup-only")
                  for k in range(SETUP_SAMPLES)]
        reps = []
        started = monotonic()
        while True:
            rep_start = monotonic()
            reps.append(run_child(workload, rundir / f"rep{len(reps)}.json", deadline))
            now = monotonic()
            if len(reps) >= MIN_REPS and now - started + (now - rep_start) > args.seconds:
                break
        metrics = end_to_end(reps, setups)
        clock = wall_clock(reps, setups)
    for rep in reps:
        n, bad = compare(rep["ops"], expected["ops"])
        attempted += n
        failed += bad
    if args.seed:
        relabeled = run_child(workload, rundir / "relabel.json", deadline,
                              "--relabel-seed", str(args.seed))
        n, bad = compare(relabeled["ops"], expected["relabel"])
        attempted += n
        failed += bad
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "reps": len(reps),
            "wall_clock": clock}


def write_expected() -> None:
    """Record every answer of the current code as the expected ones."""
    deadline = monotonic() + 3600
    rundir = OUT / "expected"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    expected = {}
    for w in WORKLOADS:
        name = w["name"]
        entry = {}
        for key, flags in (("ops", ()), ("relabel", ("--relabel-seed", "0"))):
            ops = run_child(name, rundir / f"{name}-{key}.json", deadline, *flags)["ops"]
            errors = [op["name"] for op in ops if op["error"] is not None]
            if errors:
                raise ChildFailed(f"{name}: operations raised: {errors}")
            entry[key] = {op["name"]: op["answer"] for op in ops}
        expected[name] = entry
    EXPECTED.write_text(json.dumps(expected, indent=1) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=[w["name"] for w in WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true")
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
        return 0
    if not (ROOT / "src" / "snarkforge" / "__init__.py").is_file():
        print(f"no snarkforge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.write_expected:
        write_expected()
        return 0
    if args.workload is None or args.seconds < 1:
        ap.error("--workload is required and --seconds must be at least 1")

    deadline = monotonic() + DEADLINE_S
    rundir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    meta = metadata(args)
    try:
        outcome = measure(args, rundir, deadline)
    except ChildFailed as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 3
    attempted, failed = outcome["attempted"], outcome["failed"]
    units = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in outcome["metrics"].items()}
    result = {"correct": not failed, "attempted": attempted, "failed": len(failed),
              "metrics": metrics}
    (rundir / "result.json").write_text(
        json.dumps({"meta": meta, "repetitions": outcome["reps"], "failed_ops": failed,
                    "wall_clock": outcome["wall_clock"], **result}, indent=1), encoding="utf-8")

    print("meta " + json.dumps(meta, sort_keys=True))
    print(f"repetitions = {outcome['reps']}")
    for name, value in outcome["wall_clock"].items():
        print(f"{name} = {value:.6g} s (metadata, not gated)")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"failed_frac = {len(failed) / attempted:.6g} ({len(failed)}/{attempted} operations)")
    for name in failed:
        print(f"FAILED {name}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
