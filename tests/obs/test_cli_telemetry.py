"""CLI surface of the telemetry plane: crash-time artifact flushing,
`repro postmortem`, NDJSON-aware `repro trace summarize`, and
`repro run --live-port`."""

import json
import urllib.request

import pytest

from repro.algorithms.pagerank import PageRankProgram
from repro.cli import main as cli_main
from repro.graph import io as graph_io


@pytest.fixture
def graph_file(small_world, tmp_path):
    p = tmp_path / "g.txt"
    graph_io.write_edge_list(small_world, p)
    return str(p)


@pytest.fixture
def exploding_pagerank(monkeypatch):
    """Make PageRankProgram blow up at superstep 2 for CLI crash tests."""
    original = PageRankProgram.compute

    def compute(self, ctx, state, messages):
        if ctx.superstep == 2:
            raise ValueError("injected mid-run failure")
        return original(self, ctx, state, messages)

    monkeypatch.setattr(PageRankProgram, "compute", compute)


class TestCrashFlush:
    def test_failure_still_flushes_every_artifact(
        self, graph_file, tmp_path, capsys, exploding_pagerank
    ):
        m = tmp_path / "m.json"
        s = tmp_path / "s.json"
        t = tmp_path / "t.json"
        e = tmp_path / "e.ndjson"
        pm = tmp_path / "crash"
        rc = cli_main([
            "run", "--graph", graph_file, "--workers", "3",
            "--iterations", "6",
            "--metrics-out", str(m), "--spans-out", str(s),
            "--timeline-out", str(t), "--events-out", str(e),
            "--postmortem-out", str(pm),
        ])
        err = capsys.readouterr().err
        assert rc == 1
        assert "ValueError" in err
        # every sink flushed despite the mid-run exception
        assert json.loads(m.read_text())
        assert json.loads(s.read_text())
        timeline = json.loads(t.read_text())
        assert timeline["steps"], "partial timeline must be preserved"
        events = [
            json.loads(ln) for ln in e.read_text().splitlines() if ln
        ]
        assert events[-1]["kind"] == "abort"
        # and the crash bundle is announced on stderr
        bundle_path = tmp_path / "crash.postmortem"
        assert bundle_path.exists()
        assert str(bundle_path) in err

    def test_success_leaves_no_bundle(self, graph_file, tmp_path, capsys):
        pm = tmp_path / "fine"
        rc = cli_main([
            "run", "--graph", graph_file, "--workers", "2",
            "--iterations", "4", "--postmortem-out", str(pm),
        ])
        assert rc == 0
        assert not (tmp_path / "fine.postmortem").exists()


class TestPostmortemCommand:
    def test_renders_incident_report(
        self, graph_file, tmp_path, capsys, exploding_pagerank
    ):
        pm = tmp_path / "crash"
        assert cli_main([
            "run", "--graph", graph_file, "--workers", "3",
            "--iterations", "6", "--postmortem-out", str(pm),
        ]) == 1
        capsys.readouterr()
        rc = cli_main(["postmortem", str(tmp_path / "crash.postmortem")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ValueError" in out
        assert "last committed superstep" in out
        assert "injected mid-run failure" in out

    def test_exits_2_on_garbage(self, tmp_path, capsys):
        bad = tmp_path / "bad.postmortem"
        bad.write_text("not a bundle")
        assert cli_main(["postmortem", str(bad)]) == 2
        assert cli_main(["postmortem", str(tmp_path / "missing")]) == 2


class TestTraceSummarizeNDJSON:
    def test_summarizes_event_log(self, graph_file, tmp_path, capsys):
        e = tmp_path / "ev.ndjson"
        assert cli_main([
            "run", "--graph", graph_file, "--workers", "2",
            "--iterations", "6", "--events-out", str(e),
        ]) == 0
        capsys.readouterr()
        rc = cli_main(["trace", "summarize", str(e)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "event kinds" in out
        assert "superstep-open" in out
        assert "inter-barrier latency" in out

    def test_json_trace_path_still_works(self, graph_file, tmp_path, capsys):
        t = tmp_path / "trace.json"
        assert cli_main([
            "run", "--graph", graph_file, "--workers", "2",
            "--iterations", "6", "--trace-out", str(t),
        ]) == 0
        capsys.readouterr()
        assert cli_main(["trace", "summarize", str(t)]) == 0
        assert "run summary" in capsys.readouterr().out

    def test_exits_2_on_unreadable_log(self, tmp_path, capsys):
        bad = tmp_path / "bad.ndjson"
        bad.write_text('{"kind": "x"}\nnot json\n')
        assert cli_main(["trace", "summarize", str(bad)]) == 2


class TestLivePort:
    def test_run_with_live_port_serves_and_reports(
        self, graph_file, tmp_path, capsys
    ):
        port_file = tmp_path / "port.txt"
        rc = cli_main([
            "run", "--graph", graph_file, "--workers", "2",
            "--iterations", "4", "--live-port", "0",
            "--live-port-file", str(port_file),
        ])
        err = capsys.readouterr().err
        assert rc == 0
        assert "live telemetry at http://127.0.0.1:" in err
        port = int(port_file.read_text().strip())
        assert port > 0
        # the server is torn down with the run
        with pytest.raises(OSError):
            urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=2
            )
