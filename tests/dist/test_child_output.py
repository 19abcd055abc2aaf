"""Child process output must route through the coordinator, atomically.

Worker processes redirect their stdout/stderr into a buffer that ships
back with the flush reply; the coordinator prints it as whole
``[worker N]``-prefixed lines in one write.  Nothing a vertex program
prints may reach the terminal directly from a child — that is what
interleaved half-lines under ``--engine process --progress`` looked like.
"""

import re

from repro.algorithms import PageRankProgram
from repro.bsp import JobSpec, run_job


class NoisyPageRank(PageRankProgram):
    def compute(self, ctx, state, messages):
        if ctx.superstep == 1 and ctx.vertex_id % 25 == 0:
            print(f"probe vertex={ctx.vertex_id}")
        return super().compute(ctx, state, messages)


def test_child_prints_arrive_prefixed_and_whole(small_world, capfd):
    res = run_job(
        JobSpec(program=NoisyPageRank(6), graph=small_world, num_workers=3),
        engine="process",
    )
    err = capfd.readouterr().err
    probes = [ln for ln in err.splitlines() if "probe" in ln]
    assert probes, "the child's prints must surface on coordinator stderr"
    # Every surfaced line is whole and carries its worker's prefix.
    assert all(
        re.fullmatch(r"\[worker \d\] probe vertex=\d+", ln) for ln in probes
    )
    # All three workers host multiples of 25 among 60 vertices? At least
    # one does; more importantly, the prefix matches the printing worker.
    workers = {int(ln[8]) for ln in probes}
    assert workers <= {0, 1, 2}
    # Routing the output must not perturb the result.
    clean = run_job(
        JobSpec(program=PageRankProgram(6), graph=small_world, num_workers=3)
    )
    assert res.values == clean.values


def test_quiet_programs_emit_nothing(small_world, capfd):
    run_job(
        JobSpec(program=PageRankProgram(4), graph=small_world, num_workers=2),
        engine="process",
    )
    assert "[worker" not in capfd.readouterr().err
