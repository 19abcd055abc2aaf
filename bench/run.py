"""Benchmark of record: ``python bench/run.py``.

Runs the workloads of :mod:`bench.workloads`, each in its own fresh
subprocess (:mod:`bench.child`), prints every metric by name with its
unit, checks every round's output and exits non-zero on a failed check::

    PYTHONPATH=src python bench/run.py [--seed N] [--workloads a,b]
        [--rounds N] [--out FILE] [--trace-out FILE] [--history FILE]
        [--quick]

The form ``BENCHMARK.json`` names — ``--workload NAME --seed N --seconds S
--trace 0|1`` — runs one workload and ends its output with one JSON line:
the end-to-end metrics (``--trace 0``) or the per-layer ones (``--trace
1``).  See ``bench/README.md`` for what the metrics mean.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

SCHEMA_VERSION = 1
#: everything the harness writes lives here (gitignored), inside the checkout
WORK = ROOT / ".bench_work"
#: a round that takes longer than this is recorded as failed
ROUND_TIMEOUT_S = 120


def host_fingerprint() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    nproc = os.cpu_count() or 1
    load1 = os.getloadavg()[0]
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load1_at_start": load1,
        # another busy process on a small host shows up in every timing
        "noisy": load1 > 0.5 * nproc,
    }


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True, text=True,
    )
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_workload(name: str, args, prepare) -> dict:
    """Prepare inputs, run the rounds in a subprocess, return its result."""
    workdir = WORK / f"{name}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        defn = prepare(name, args.seed, args.quick, workdir)
        spec = {
            "workload": name,
            "definition": defn,
            "rounds": args.rounds,
            "seconds": args.seconds,
            "round_timeout_s": ROUND_TIMEOUT_S,
            "trace": args.trace != 0,
            "quick": args.quick,
            "trace_out": str(args.trace_out or WORK / f"trace-{name}.json"),
            "result_path": str(workdir / "result.json"),
        }
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        # The time budget, then at worst every floor round, the warm-up and
        # the two traced passes each running into its own timeout.
        limit = (args.seconds or 0) + (args.rounds + 3) * ROUND_TIMEOUT_S
        env = {**os.environ, "PYTHONHASHSEED": "0",
               "PYTHONPATH": str(ROOT / "src")}
        # Own session, so a timeout can stop the workers it forked too.
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "bench" / "child.py"), str(spec_path)],
            env=env, cwd=ROOT, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=limit)
            error = None if code == 0 else f"rounds subprocess exited {code}"
        except subprocess.TimeoutExpired:
            error = f"rounds subprocess exceeded {limit} s"
        finally:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        result_path = Path(spec["result_path"])
        if error is None and result_path.exists():
            result = json.loads(result_path.read_text())
        else:
            result = {"workload": name, "attempted": 1, "failed": 1,
                      "rounds": [], "error": error or "no result written"}
        for key in ("graph_path", "reference_path"):
            defn.pop(key)
        result["definition"] = defn
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def prepare_workload(name: str, seed: int, quick: bool, workdir: Path) -> dict:
    from bench.workloads import WORKLOADS

    return WORKLOADS[name].prepare(seed, quick, workdir)


def print_result(result: dict) -> None:
    defn = result["definition"]
    print(f"\n== {result['workload']}: {defn['algorithm']} on {defn['graph']} "
          f"({defn['vertices']} vertices, {defn['arcs']} arcs), "
          f"engine {defn['engine']}, {defn['num_workers']} workers, "
          f"{defn['logical_messages']} logical messages")
    failed_frac = result["failed"] / result["attempted"]
    print(f"  {'failed_frac':<40} {failed_frac:>14.6g} ratio   "
          f"({result['failed']} of {result['attempted']} rounds)")
    if result.get("error"):
        print(f"  error: {result['error']}")
    for o in result["rounds"]:
        if not o["ok"]:
            print(f"  round {o['round']} failed: {o['error']}")
    for name, m in (result.get("end_to_end") or {}).items():
        spread = ""
        if "n" in m:
            spread = (f"   (n={m['n']} min={m['min']:.6g} q1={m['q1']:.6g} "
                      f"q3={m['q3']:.6g} max={m['max']:.6g})")
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']:<7}{spread}")
    det = result.get("deterministic") or {}
    for name, unit in (("sim_s", "sim_s"), ("sim_usd", "sim_usd")):
        if det.get(name) is not None:
            print(f"  {name:<40} {det[name]:>14.9g} {unit:<7}"
                  "   (identical in every round)")
    if det.get("digest"):
        print(f"  {'values_digest':<40} {det['digest'][:16]}")
    for name, m in (result.get("per_layer") or {}).items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")


def contract_line(result: dict, per_layer: bool) -> str:
    """The last line of output of the one-workload form."""
    source = result.get("per_layer" if per_layer else "end_to_end") or {}
    metrics = {
        name: {"value": m["value"], "unit": m["unit"]}
        for name, m in source.items()
    }
    return json.dumps({
        "correct": result["failed"] == 0 and bool(metrics),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    })


def main(argv=None, prepare=prepare_workload) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int,
                        help="timed rounds per workload (default 11)")
    parser.add_argument("--seconds", type=float,
                        help="keep running timed rounds for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end only; 1: report the per-layer "
                             "metrics (default: both, in the record)")
    parser.add_argument("--quick", action="store_true",
                        help="inputs / 10 and 2 rounds: a smoke run")
    parser.add_argument("--out", type=Path, help="write the result record here")
    parser.add_argument("--trace-out", type=Path,
                        help="write the spans here (default: .bench_work/)")
    parser.add_argument("--history", type=Path,
                        help="append the record to this JSONL file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"the program's sources are not under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    from bench.workloads import WORKLOADS

    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {list(WORKLOADS)}")
    if args.rounds is None:
        if args.quick:
            args.rounds = 2
        elif args.seconds is None:
            args.rounds = 11
        else:
            # --seconds sets the length; these are the floors.  A --trace 1
            # run needs the untraced rounds only as its overhead baseline.
            args.rounds = 3 if args.trace == 1 else 7
    if args.seconds is not None and args.trace == 1:
        args.seconds /= 3

    record = {
        "schema": SCHEMA_VERSION,
        "seed": args.seed,
        "git_sha": git_sha(),
        "started": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "host": host_fingerprint(),
        "quick": args.quick,
        "workloads": {},
    }
    if record["host"]["noisy"]:
        print("warning: host is busy (1-min load "
              f"{record['host']['load1_at_start']:.2f}); timings are noisy")
    for name in names:
        result = run_workload(name, args, prepare)
        record["workloads"][name] = result
        print_result(result)

    text = json.dumps(record)
    if args.out:
        args.out.write_text(text)
    if args.history:
        with args.history.open("a") as fh:
            fh.write(text + "\n")
    failed = sum(r["failed"] for r in record["workloads"].values())
    if len(names) == 1:
        print(contract_line(record["workloads"][names[0]], args.trace == 1))
    return 1 if failed else 0


if __name__ == "__main__":
    # so that a polite kill still stops the rounds subprocess and its workers
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    sys.exit(main())
