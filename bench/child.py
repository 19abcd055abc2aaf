"""One workload's rounds, run in a fresh subprocess of the harness.

``python bench/child.py SPEC.json`` reads the spec :mod:`bench.run` wrote
(workload name, its prepared definition, round budget, whether to trace)
and writes one JSON result next to it.  A round is the user's
``repro run`` pipeline split at public seams::

    graph.io.read_edge_list -> Partitioner.partition
      -> check.costmodel.profile_of + check.vectorize.lift_of
         (+ check.planopt.optimize_plan for the dense engine)
      -> engine constructor -> engine.run() -> output check (untimed)

Round kinds, in order: one ``warmup`` (discarded; fills import and
analyzer caches), the ``timed`` rounds with all telemetry off — the only
source of end-to-end metrics — then, when tracing, ``trace-a`` (the
program's own sinks plus one bench-side observer) and ``trace-b`` (the
same plus the bench-side wrappers of :mod:`bench.trace`).
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

import numpy as np  # noqa: E402

import repro.bsp.engine as engine_module  # noqa: E402
from bench import trace  # noqa: E402
from bench.workloads import WORKLOADS, Sinks, Workload  # noqa: E402
from repro.bsp.worker import PartitionWorker  # noqa: E402
from repro.check.costmodel import profile_of  # noqa: E402
from repro.check.planopt import optimize_plan  # noqa: E402
from repro.check.vectorize import lift_of  # noqa: E402
from repro.graph.io import read_edge_list  # noqa: E402
from repro.net.tcp import TcpChannel  # noqa: E402
from repro.obs import FlightRecorder, MetricsRegistry, RunTimeline, SpanTracer  # noqa: E402
from repro.partition import metrics as partition_metrics  # noqa: E402
from repro.scheduling.controller import SwathController  # noqa: E402

STAGES = ("graph.load", "partition.partition", "check.profile", "check.lift",
          "check.optimize", "bsp.engine.init", "bsp.engine.run")


def _on_alarm(signum, frame):
    raise TimeoutError("round exceeded its time limit")


def peak_rss_mb() -> float:
    """High-water resident set of this process's own address space.

    ``/proc/self/status`` VmHWM rather than ``ru_maxrss``: a spawned
    process inherits its parent's peak through exec, and the harness
    parent has just generated the inputs."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def summary(values: list[float]) -> dict:
    """Median with n, min, q1, q3, max (quartiles as Python's
    ``statistics.quantiles(n=4)`` gives them)."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"value": statistics.median(values), "n": len(values),
            "min": min(values), "q1": q1, "q3": q3, "max": max(values)}


def tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile that still has
    ten samples beyond it; the median when there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    index = max(n - 11, n // 2)
    return ordered[index], 100.0 * index / n


class Rounds:
    """Runs rounds of one workload and checks every round's output."""

    def __init__(self, workload: Workload, defn: dict, timeout_s: float) -> None:
        self.workload = workload
        self.defn = defn
        self.timeout_s = timeout_s
        self.reference = np.load(defn["reference_path"])
        self.spans = trace.BenchSpans()
        self.outcomes: list[dict] = []
        #: digest / sim time / superstep count of the first good round;
        #: every later round must reproduce them exactly
        self.first: dict | None = None

    def run(self, kind: str, sinks: Sinks | None = None, observers=(),
            bindings=()) -> dict:
        """One round.  Returns its outcome; ``outcome["artifacts"]`` (the
        live result objects, for traced passes) is dropped from the
        stored copy."""
        round_id = f"{kind}-{len(self.outcomes)}"
        self.spans.round_id = round_id
        outcome = {"round": round_id, "kind": kind, "ok": False, "error": None}
        artifacts = {}
        gc.collect()
        signal.setitimer(signal.ITIMER_REAL, self.timeout_s)
        try:
            with trace.rebound(list(bindings)):
                artifacts = self._pipeline(sinks or Sinks(), list(observers))
            signal.setitimer(signal.ITIMER_REAL, 0)
            outcome.update(self._check(artifacts["result"]))
        except Exception:
            outcome["error"] = traceback.format_exc(limit=6)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        for stage in STAGES:
            outcome[stage] = self.spans.total(round_id, stage)
        run_rows = self.spans.of_round(round_id, "bsp.engine.run")
        round_rows = self.spans.of_round(round_id, "round")
        if run_rows and round_rows:
            outcome["setup_s"] = run_rows[0][1] - round_rows[0][1]
            outcome["run_s"] = run_rows[0][2] - run_rows[0][1]
        self.outcomes.append(outcome)
        return {**outcome, "artifacts": artifacts}

    def _pipeline(self, sinks: Sinks, observers: list) -> dict:
        wl, defn, span = self.workload, self.defn, self.spans.span
        with span("round"):
            with span("graph.load"):
                graph = read_edge_list(defn["graph_path"])
            with span("partition.partition"):
                partition = wl.partitioner().partition(graph, wl.num_workers)
            program = wl.program(defn)
            with span("check.profile"):
                profile_of(program)
            with span("check.lift"):
                verdict = lift_of(program)
            plan = verdict.plan if verdict is not None else None
            if wl.engine == "dense":
                with span("check.optimize"):
                    plan = optimize_plan(plan).plan
            with span("bsp.engine.init"):
                job, controller = wl.job(
                    defn, graph, partition, program, sinks, observers
                )
                engine = wl.build_engine(job, plan)
            with span("bsp.engine.run"):
                result = engine.run()
        return {"graph": graph, "partition": partition, "program": program,
                "plan": plan, "job": job, "controller": controller,
                "result": result}

    def _check(self, result) -> dict:
        """Output check (untimed): reference, determinism, halting."""
        values = result.values_array()
        seen = {
            "digest": hashlib.sha256(values.tobytes()).hexdigest(),
            "sim_s": result.total_time,
            "sim_usd": result.total_cost,
            "supersteps": result.supersteps,
        }
        problems = []
        bad = self.workload.check_values(values, self.reference)
        if bad:
            problems.append(bad)
        if not result.halted:
            problems.append("job did not halt")
        expected = self.defn["expected_supersteps"]
        if expected is not None and result.supersteps != expected:
            problems.append(
                f"{result.supersteps} supersteps, expected {expected}"
            )
        if self.first is None:
            if not problems:
                self.first = seen
        else:
            for key, first in self.first.items():
                if seen[key] != first:
                    problems.append(
                        f"{key} {seen[key]!r} differs from the first "
                        f"round's {first!r}"
                    )
        return {**seen, "ok": not problems,
                "error": "; ".join(problems) or None}

    def timed(self) -> list[dict]:
        return [o for o in self.outcomes if o["kind"] == "timed" and o["ok"]]


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
def _engine_span_totals(tracer: SpanTracer) -> dict:
    """Host-clock totals of the engine's own phase spans, the self time of
    its superstep spans, and the dist engine's worker-compute spans."""
    phases = ("compute", "flush", "aggregate-merge", "master-compute",
              "checkpoint", "recovery")
    totals = {name: tracer.total_host(name) for name in phases}
    steps = {s.index: s for s in tracer.named("superstep")}
    covered = sum(
        s.host_duration for s in tracer.spans
        if s.parent in steps and s.name in phases
    )
    totals["step_self"] = sum(s.host_duration for s in steps.values()) - covered
    totals["job"] = tracer.total_host("job")
    totals["worker_compute"] = tracer.total_host("worker-compute")
    return totals


def _counter_total(registry: MetricsRegistry, name: str) -> float:
    return sum(
        inst.value
        for fam, _kind, _help, insts in registry.collect() if fam == name
        for inst in insts
    )


def layer_metrics(rounds: Rounds, pass_a: dict, pass_b: dict, sinks: Sinks,
                  clock: trace.StepClock, taps: dict, quick: bool) -> dict:
    """Every per-layer metric, as ``{name: (value, unit)}``.  A layer the
    workload bypasses reports 0: it did no work and took no time."""
    wl, defn = rounds.workload, rounds.defn
    # read before the isolated timings below start children of their own
    children_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    art = pass_a["artifacts"]
    result, graph, partition = art["result"], art["graph"], art["partition"]
    jtrace = result.trace
    timed = rounds.timed()
    logical = defn["logical_messages"]

    def med(key: str) -> float:
        return statistics.median(o[key] for o in timed)

    m: dict[str, tuple[float, str]] = {}
    m["graph.load_s"] = (med("graph.load"), "s")
    m["graph.load_mb"] = (defn["graph_mb"], "MB")
    m["partition.partition_s"] = (med("partition.partition"), "s")
    m["partition.remote_edge_frac"] = (
        partition_metrics.remote_edge_fraction(graph, partition), "ratio")
    m["partition.balance"] = (partition_metrics.balance(graph, partition), "ratio")
    m["check.profile_s"] = (med("check.profile"), "s")
    m["check.lift_s"] = (med("check.lift"), "s")
    m["check.optimize_s"] = (med("check.optimize"), "s")
    m["check.plan_ops"] = (art["plan"].num_ops if art["plan"] else 0, "count")
    m["bsp.engine.init_s"] = (med("bsp.engine.init"), "s")
    m["bsp.engine.supersteps"] = (result.supersteps, "count")

    run_a, run_b = pass_a["run_s"], pass_b["run_s"]
    traced = wl.engine != "dense"  # dense-ref takes no sinks or observers
    spans = _engine_span_totals(sinks.tracer) if traced else {}
    compute_s = spans.get("compute", 0.0)
    flush_s = spans.get("flush", 0.0)
    m["bsp.engine.compute_s"] = (compute_s, "s")
    m["bsp.engine.flush_s"] = (flush_s, "s")
    m["bsp.engine.merge_s"] = (spans.get("aggregate-merge", 0.0), "s")
    m["bsp.engine.master_s"] = (spans.get("master-compute", 0.0), "s")
    m["bsp.engine.step_self_s"] = (spans.get("step_self", 0.0), "s")
    m["bsp.engine.extract_s"] = (run_a - spans["job"] if traced else 0.0, "s")
    gaps = clock.gaps_ms()
    tail_ms, tail_pct = tail(gaps) if gaps else (0.0, 0.0)
    m["bsp.engine.superstep_ms_p50"] = (
        statistics.median(gaps) if gaps else 0.0, "ms")
    m["bsp.engine.superstep_ms_tail"] = (tail_ms, "ms")
    m["bsp.engine.superstep_tail_pct"] = (tail_pct, "%")

    steps = list(jtrace)
    post_combine = jtrace.total_messages
    msgs_local = sum(w.msgs_out_local for s in steps for w in s.workers)
    msgs_remote = sum(w.msgs_out_remote for s in steps for w in s.workers)
    m["bsp.worker.compute_calls"] = (sum(s.compute_calls for s in steps), "count")
    m["bsp.worker.msgs_local"] = (msgs_local, "count")
    m["bsp.worker.msgs_remote"] = (msgs_remote, "count")
    m["bsp.worker.bytes_remote"] = (
        sum(w.bytes_out for s in steps for w in s.workers), "B")
    m["bsp.worker.combine_ratio"] = (
        post_combine / logical if traced else 0.0, "ratio")
    for call in ("run_compute", "begin_superstep"):
        m[f"bsp.worker.{call}_s"] = (
            rounds.spans.total(pass_b["round"], f"bsp.worker.{call}"), "s")
    m["bsp.worker.deliver_remote_s"] = (taps["deliver_remote"].seconds, "s")
    m["bsp.worker.deliver_remote_calls"] = (taps["deliver_remote"].calls, "count")

    emit = {"local": 0.0, "remote": 0.0, "combined": 0.0}
    if wl.engine == "sim":
        emit = trace.emit_costs(
            graph, partition, art["program"], art["job"].perf_model,
            wl.sample_payload, calls=20_000 if quick else 200_000,
        )
    for kind, us in emit.items():
        m[f"bsp.worker.emit_us_{kind}"] = (us, "us")
    m["bsp.worker.us_per_msg"] = ((compute_s + flush_s) / logical * 1e6, "us")

    compute_acc = taps["compute"]
    m["algorithms.compute_s"] = (compute_acc.seconds, "s")
    m["algorithms.us_per_compute"] = (
        compute_acc.seconds / compute_acc.calls * 1e6 if compute_acc.calls
        else 0.0, "us")
    # computed, not measured: inclusive compute time minus the emits it
    # made, priced at the isolated per-call costs
    emit_s = (msgs_local * emit["local"] + msgs_remote * emit["remote"]
              + (logical - post_combine) * emit["combined"]) / 1e6
    m["algorithms.compute_self_s_computed"] = (
        compute_acc.seconds - emit_s if compute_acc.calls else 0.0, "s")

    controller = art["controller"]
    events = controller.events if controller is not None else []
    m["scheduling.swaths"] = (len(events), "count")
    m["scheduling.mean_swath_size"] = (
        statistics.fmean(e.size for e in events) if events else 0.0, "count")
    m["scheduling.peak_mem_frac"] = (
        jtrace.peak_memory / defn["capacity_bytes"] if controller is not None
        else 0.0, "ratio")
    m["scheduling.controller_s"] = (
        rounds.spans.total(pass_b["round"], "scheduling.controller"), "s")

    breakdown = jtrace.breakdown()
    m["cloud.sim_s"] = (result.total_time, "sim_s")
    m["cloud.sim_usd"] = (result.total_cost, "sim_usd")
    m["cloud.sim_busy_s"] = (breakdown["compute_io"], "sim_s")
    m["cloud.sim_barrier_wait_s"] = (breakdown["barrier_wait"], "sim_s")
    m["cloud.sim_barrier_s"] = (jtrace.total_barrier_time, "sim_s")
    m["cloud.peak_memory_mb"] = (jtrace.peak_memory / 1e6, "MB")
    m["cloud.attribute_cost_s"] = (
        rounds.spans.total(pass_b["round"], "cloud.attribute_cost"), "s")

    dense = wl.engine == "dense"
    arc_steps = defn["arcs"] * result.supersteps if dense else 0
    m["bsp.dense_ref.init_s"] = (med("bsp.engine.init") if dense else 0.0, "s")
    m["bsp.dense_ref.run_s"] = (med("run_s") if dense else 0.0, "s")
    m["bsp.dense_ref.arc_steps"] = (arc_steps, "count")
    m["bsp.dense_ref.ns_per_arc_step"] = (
        med("run_s") / arc_steps * 1e9 if dense else 0.0, "ns")

    tcp = wl.engine == "tcp"
    worker_compute = spans.get("worker_compute", 0.0)
    exchange = compute_s + flush_s - worker_compute if tcp else 0.0
    m["dist.worker_compute_s"] = (worker_compute, "s")
    m["net.exchange_s"] = (exchange, "s")
    m["net.exchange_frac"] = (exchange / run_a if tcp else 0.0, "ratio")
    registry = sinks.metrics
    for key, series, unit in (
        ("frames", "dist_frames_total", "count"),
        ("frame_bytes", "dist_frame_bytes_total", "B"),
        # a 0.1 s timer: follows wall time, so "events", not "count"
        ("heartbeats", "dist_heartbeats_total", "events"),
    ):
        m[f"net.{key}"] = (_counter_total(registry, series) if tcp else 0, unit)
    m["net.channel_send_s"] = (taps["send"].seconds, "s")
    m["net.channel_recv_wait_s"] = (taps["frames"].recv.seconds, "s")
    codec = {"pack_us": 0.0, "unpack_us": 0.0}
    rtt = {"rtt_us_pipe": 0.0, "rtt_us_tcp": 0.0}
    frame = taps["frames"].median_frame()
    if frame is not None:
        repeats = 200 if quick else 2000
        codec = trace.codec_costs(frame, repeats)
        rtt = trace.transport_rtt(frame, repeats)
    m["net.codec.pack_us"] = (codec["pack_us"], "us")
    m["net.codec.unpack_us"] = (codec["unpack_us"], "us")
    m["net.codec.frame_bytes_p50"] = (len(frame) if frame else 0, "B")
    m["net.transport.rtt_us_pipe"] = (rtt["rtt_us_pipe"], "us")
    m["net.transport.rtt_us_tcp"] = (rtt["rtt_us_tcp"], "us")
    spawn_s = trace.daemon_spawn_seconds() if tcp else 0.0
    m["net.daemon_spawn_s"] = (spawn_s, "s")
    m["net.session_open_s"] = (
        max(0.0, med("bsp.engine.init") - spawn_s) if tcp else 0.0, "s")
    m["net.daemon_peak_rss_mb"] = (children_rss_mb if tcp else 0.0, "MB")

    m["obs.sinks_overhead_frac"] = (
        run_a / med("run_s") - 1.0 if traced else 0.0, "ratio")
    m["obs.spans"] = (len(sinks.tracer.spans) if traced else 0, "count")
    # includes the daemon's heartbeat-send events on tcp: "events" too
    m["obs.flight_events"] = (
        sinks.flight.last_seq + 1 if traced else 0, "events")
    m["trace.wrapper_overhead_frac"] = (run_b / run_a - 1.0, "ratio")
    return m


def wrapper_bindings(wl: Workload, defn: dict, spans: trace.BenchSpans,
                     taps: dict) -> list:
    """The pass-B rebinding list for ``wl``.  Worker-side wrappers are
    installed only where the workers run in this process (the tcp
    engine's run in the daemon, whose compute time the dist engine
    already reports); channel wrappers only where channels exist."""
    out = [(engine_module, "attribute_cost",
            spans.wrap("cloud.attribute_cost", engine_module.attribute_cost))]
    if wl.engine == "sim":
        program_cls = type(wl.program(defn))
        out += [
            (PartitionWorker, "begin_superstep",
             spans.wrap("bsp.worker.begin_superstep",
                        PartitionWorker.begin_superstep)),
            (PartitionWorker, "run_compute",
             spans.wrap("bsp.worker.run_compute",
                        PartitionWorker.run_compute)),
            (PartitionWorker, "deliver_remote",
             taps["deliver_remote"].wrap(PartitionWorker.deliver_remote)),
            (program_cls, "compute",
             taps["compute"].wrap(program_cls.compute)),
            (SwathController, "on_superstep_end",
             spans.wrap("scheduling.controller",
                        SwathController.on_superstep_end)),
        ]
    if wl.engine == "tcp":
        out += [
            (TcpChannel, "send", taps["send"].wrap(TcpChannel.send)),
            (TcpChannel, "recv", taps["frames"].wrap(TcpChannel.recv)),
        ]
    return out


def traced_passes(rounds: Rounds, spec: dict) -> dict | None:
    """Run traced passes A and B, write the span dump, and return the
    per-layer metrics (None when a traced pass failed)."""
    wl, defn = rounds.workload, rounds.defn

    def sinks() -> Sinks:
        return Sinks(SpanTracer(), MetricsRegistry(), RunTimeline(),
                     FlightRecorder())

    sinks_a, sinks_b = sinks(), sinks()
    clock = trace.StepClock()
    pass_a = rounds.run("trace-a", sinks=sinks_a, observers=[clock])
    taps = {"deliver_remote": trace.Accumulator(),
            "compute": trace.Accumulator(),
            "send": trace.Accumulator(),
            "frames": trace.FrameTap()}
    pass_b = rounds.run(
        "trace-b", sinks=sinks_b, observers=[trace.StepClock()],
        bindings=wrapper_bindings(wl, defn, rounds.spans, taps),
    )
    Path(spec["trace_out"]).write_text(json.dumps({
        "workload": wl.name,
        "bench_spans": rounds.spans.to_list(),
        "engine_spans": {"trace-a": sinks_a.tracer.to_dict(),
                         "trace-b": sinks_b.tracer.to_dict()},
    }))
    if not (pass_a["ok"] and pass_b["ok"]):
        return None
    metrics = layer_metrics(
        rounds, pass_a, pass_b, sinks_a, clock, taps, spec["quick"]
    )
    return {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in metrics.items()
    }


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    wl = WORKLOADS[spec["workload"]]
    defn = spec["definition"]
    signal.signal(signal.SIGALRM, _on_alarm)
    rounds = Rounds(wl, defn, spec["round_timeout_s"])

    rounds.run("warmup")
    # At least spec["rounds"] timed rounds; with a time budget, as many
    # more as fit in it.
    budget = spec["seconds"]
    started = perf_counter()
    done = 0
    while done < spec["rounds"] or (
        budget is not None and perf_counter() - started < budget
    ):
        rounds.run("timed")
        done += 1
    # before the traced passes, which hold spans and event rings in memory
    rss_mb = peak_rss_mb()

    out = {"workload": wl.name, "per_layer": None}
    if spec["trace"] and rounds.timed():
        out["per_layer"] = traced_passes(rounds, spec)

    timed = rounds.timed()
    if timed:
        run = summary([o["run_s"] for o in timed])
        rate = summary([defn["logical_messages"] / o["run_s"] for o in timed])
        out["end_to_end"] = {
            "setup_s": {**summary([o["setup_s"] for o in timed]), "unit": "s"},
            "run_s": {**run, "unit": "s"},
            "msgs_per_s": {**rate, "unit": "msg/s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
    first = rounds.first or {}
    out["deterministic"] = {
        "sim_s": first.get("sim_s"), "sim_usd": first.get("sim_usd"),
        "supersteps": first.get("supersteps"), "digest": first.get("digest"),
    }
    out["attempted"] = len(rounds.outcomes)
    out["failed"] = sum(not o["ok"] for o in rounds.outcomes)
    out["rounds"] = rounds.outcomes
    Path(spec["result_path"]).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
