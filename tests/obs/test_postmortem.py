"""Postmortem bundles: captured on abnormal end, self-contained, and
rendered as an incident report that names the suspect."""

import json

import pytest

from repro.algorithms import PageRankProgram
from repro.bsp import JobSpec, run_job
from repro.bsp.api import VertexProgram
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    PostmortemWriter,
    RunTimeline,
    build_bundle,
    load_postmortem,
    render_incident_report,
    write_postmortem,
)


class ExplodeAt(VertexProgram):
    """PageRank-ish program that raises at a chosen superstep."""

    def __init__(self, fail_superstep: int = 2) -> None:
        self.fail_superstep = fail_superstep

    def init_state(self, vertex_id, graph):
        return 0.0

    def compute(self, ctx, state, messages):
        if ctx.superstep == self.fail_superstep:
            raise ValueError("boom at superstep %d" % ctx.superstep)
        for dst in ctx.out_neighbors:
            ctx.send(dst, 1.0)
        if ctx.superstep >= 6:
            ctx.vote_to_halt()
        return state + len(messages)


def crash_job(graph, **kw):
    kw.setdefault("flight", FlightRecorder())
    return JobSpec(
        program=ExplodeAt(2), graph=graph, num_workers=3, **kw
    )


class TestBundleCapture:
    def test_engine_dumps_bundle_on_compute_exception(
        self, small_world, tmp_path
    ):
        pm = PostmortemWriter(tmp_path / "crash")
        job = crash_job(
            small_world, postmortem=pm,
            metrics=MetricsRegistry(), timeline=RunTimeline(),
        )
        with pytest.raises(ValueError, match="boom"):
            run_job(job)
        assert pm.written is not None
        assert pm.written.suffix == ".postmortem"
        bundle = load_postmortem(pm.written)
        assert bundle["reason"]["type"] == "ValueError"
        assert "boom" in bundle["reason"]["message"]
        assert "Traceback" in bundle["reason"]["traceback"]
        # progress markers: supersteps 0 and 1 committed, failed at 2
        prog = bundle["progress"]
        assert prog["last_committed_superstep"] == 1
        assert prog["current_superstep"] == 2
        # sections are present and self-contained
        assert bundle["manifest"]["program"] == "ExplodeAt"
        assert bundle["manifest"]["num_workers"] == 3
        assert bundle["flight"]["events"]
        assert bundle["metrics"] is not None
        # one rows section, in the run-file format
        assert "timeline" not in bundle
        assert [s["index"] for s in bundle["trace"]["steps"]] == [0, 1]
        assert bundle["trace"]["events"] == []
        # the abort event is the flight ring's last word
        last = bundle["flight"]["events"][-1]
        assert last["kind"] == "abort"
        assert last["attrs"]["error"] == "ValueError"

    def test_writer_is_idempotent_first_failure_wins(
        self, small_world, tmp_path
    ):
        pm = PostmortemWriter(tmp_path / "once")
        with pytest.raises(ValueError):
            run_job(crash_job(small_world, postmortem=pm))
        first = pm.written
        pm.dump(object(), RuntimeError("second"))
        assert pm.written == first
        assert load_postmortem(first)["reason"]["type"] == "ValueError"

    def test_keyboard_interrupt_captured(self, small_world, tmp_path):
        class Interrupt(ExplodeAt):
            def compute(self, ctx, state, messages):
                if ctx.superstep == 1:
                    raise KeyboardInterrupt
                return super().compute(ctx, state, messages)

        pm = PostmortemWriter(tmp_path / "ctrl-c")
        job = JobSpec(
            program=Interrupt(), graph=small_world, num_workers=2,
            flight=FlightRecorder(), postmortem=pm,
        )
        with pytest.raises(KeyboardInterrupt):
            run_job(job)
        assert load_postmortem(pm.written)["reason"]["type"] == (
            "KeyboardInterrupt"
        )

    def test_bundle_without_engine_keeps_reason(self, tmp_path):
        # pre-engine failures (e.g. the RPC011 gate) still get a bundle
        path = write_postmortem(
            tmp_path / "gate", None, RuntimeError("unpicklable")
        )
        bundle = load_postmortem(path)
        assert bundle["reason"]["message"] == "unpicklable"
        # no engine, no engine sections: the manifest is the host alone
        assert set(bundle) == {"version", "created_unix", "reason", "manifest"}
        assert set(bundle["manifest"]) == {"python", "platform", "argv"}

    def test_successful_run_writes_nothing(self, small_world, tmp_path):
        pm = PostmortemWriter(tmp_path / "fine")
        run_job(JobSpec(
            program=PageRankProgram(4), graph=small_world, num_workers=2,
            flight=FlightRecorder(), postmortem=pm,
        ))
        assert pm.written is None
        assert not list(tmp_path.iterdir())

    def test_load_rejects_non_bundles(self, tmp_path):
        p = tmp_path / "x.postmortem"
        p.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValueError, match="reason"):
            load_postmortem(p)
        p.write_text(json.dumps({"reason": {}, "version": 42}))
        with pytest.raises(ValueError, match="version"):
            load_postmortem(p)


class TestIncidentReport:
    def _bundle(self, small_world, tmp_path):
        pm = PostmortemWriter(tmp_path / "crash")
        with pytest.raises(ValueError):
            run_job(crash_job(
                small_world, postmortem=pm, timeline=RunTimeline(),
            ))
        return load_postmortem(pm.written)

    def test_report_names_failure_and_progress(self, small_world, tmp_path):
        report = render_incident_report(self._bundle(small_world, tmp_path))
        assert "ValueError" in report
        assert "last committed superstep" in report
        assert "ExplodeAt" in report
        assert "flight recorder" in report
        assert "traceback" in report.lower()

    def test_report_reads_the_rows_section(self, small_world, tmp_path):
        bundle = self._bundle(small_world, tmp_path)
        assert "critical path so far" in render_incident_report(bundle)
        # A bundle written before the sections merged held the same rows
        # twice; it renders from "trace" and never reads "timeline".
        legacy = dict(bundle, timeline=dict(bundle["trace"]))
        del legacy["trace"]["events"]
        assert "critical path so far" in render_incident_report(legacy)
        del legacy["trace"]
        assert "critical path so far" not in render_incident_report(legacy)

    def test_report_tails_are_bounded(self, small_world, tmp_path):
        bundle = self._bundle(small_world, tmp_path)
        report = render_incident_report(bundle, last_events=2)
        # at most 2 event lines per source
        coord_events = [
            ln for ln in report.splitlines() if ln.startswith("  #")
        ]
        n_events = len(bundle["flight"]["events"])
        assert len(coord_events) <= 2 * (1 + 3)  # coordinator + workers
        assert n_events > len(coord_events)

    def test_build_bundle_never_raises_on_broken_engine(self):
        class Broken:
            def __getattr__(self, name):
                raise RuntimeError("engine is toast")

        bundle = build_bundle(Broken(), ValueError("original"))
        assert bundle["reason"]["type"] == "ValueError"
        for section in ("manifest", "progress", "flight", "metrics"):
            assert "error" in bundle[section]
