"""RPC011 process-engine gate: unpicklable program state is rejected
*before* any child process forks, with an actionable error."""

import multiprocessing

import pytest

from repro.algorithms import PageRankProgram
from repro.bsp import JobSpec, VertexProgram, run_job
from repro.dist import ProcessBSPEngine, ProgramSafetyError


class LambdaStateProgram(VertexProgram):
    """Fixture: stores a lambda on ``self`` — pickles fine nowhere."""

    def __init__(self):
        self.score = lambda x: x * 2

    def compute(self, ctx, state, messages):
        ctx.vote_to_halt()
        return self.score(len(messages))


class ClosureStateProgram(VertexProgram):
    """Fixture: closure escapes into per-vertex state."""

    def compute(self, ctx, state, messages):
        def scorer(m):
            return m + ctx.superstep

        ctx.vote_to_halt()
        return scorer


class TestGateRejects:
    def test_lambda_state_raises_before_forking(self, ring10):
        before = set(multiprocessing.active_children())
        with pytest.raises(ProgramSafetyError) as exc_info:
            ProcessBSPEngine(
                JobSpec(program=LambdaStateProgram(), graph=ring10, num_workers=2)
            )
        # Constructor failed before super().__init__: no fleet was spawned.
        assert set(multiprocessing.active_children()) == before
        err = exc_info.value
        assert err.program_name == "LambdaStateProgram"
        assert err.risks and err.risks[0].method == "__init__"
        assert "lambda" in str(err)
        assert "check_program=False" in str(err)  # actionable override

    def test_closure_in_state_rejected(self, ring10):
        with pytest.raises(ProgramSafetyError):
            run_job(
                JobSpec(program=ClosureStateProgram(), graph=ring10, num_workers=2),
                engine="process",
            )

    def test_run_job_process_propagates(self, ring10):
        with pytest.raises(ProgramSafetyError, match="unpicklable"):
            run_job(
                JobSpec(program=LambdaStateProgram(), graph=ring10, num_workers=2),
                engine="process",
            )


class TestGateAllows:
    def test_clean_program_unaffected(self, ring10):
        spec = lambda: JobSpec(
            program=PageRankProgram(4), graph=ring10, num_workers=2
        )
        assert (
            run_job(spec(), engine="process").values == run_job(spec()).values
        )

    def test_override_skips_gate(self, ring10):
        # The fixture never actually ships its lambda through a pickle
        # boundary mid-run (no checkpoints), so with the gate off the run
        # completes.
        engine = ProcessBSPEngine(
            JobSpec(program=LambdaStateProgram(), graph=ring10, num_workers=2),
            check_program=False,
        )
        res = engine.run()
        assert res.supersteps >= 1

    def test_sequential_engine_never_gated(self, ring10):
        res = run_job(
            JobSpec(program=LambdaStateProgram(), graph=ring10, num_workers=2)
        )
        assert res.supersteps >= 1


def test_cli_surfaces_gate_error(monkeypatch, capsys, tmp_path):
    """`repro run --engine process` prints the gate error and exits 1."""
    from repro import cli as cli_mod
    from repro.check.costmodel import PickleRisk

    def boom(*args, **kwargs):
        raise ProgramSafetyError(
            "LambdaStateProgram",
            [PickleRisk(line=7, method="__init__", detail="lambda stored in self.score")],
        )

    monkeypatch.setattr(cli_mod, "run_pagerank", boom)
    bundle = tmp_path / "gate.postmortem"
    rc = cli_mod.main(
        ["run", "--dataset", "WG", "--scale", "0.01", "--app", "pagerank",
         "--engine", "process", "--postmortem-out", str(bundle)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "unpicklable" in err and "check_program=False" in err
    assert bundle.is_file()
    # no engine was built: the bundle is the reason and the job summary,
    # with no section a stub of the AttributeError reading one would raise
    from repro.obs import load_postmortem

    data = load_postmortem(bundle)
    stubs = [k for k, v in data.items() if isinstance(v, dict) and "error" in v]
    assert stubs == []
    assert data["reason"]["type"] == "ProgramSafetyError"
    manifest = data["manifest"]
    assert manifest["program"] == "LambdaStateProgram"
    assert manifest["engine"] == "process"
    assert manifest["graph"]["vertices"] > 0 and manifest["num_workers"] >= 1
    assert cli_mod.main(["postmortem", str(bundle)]) == 0
    report = capsys.readouterr().out
    assert "ProgramSafetyError" in report and "LambdaStateProgram" in report
