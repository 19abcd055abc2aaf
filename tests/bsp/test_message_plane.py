"""The bulk message plane against its per-message definition.

Unit level: ``emit_to_neighbors`` vs a loop of ``emit`` vs the parent
commit's per-message rule (kept here as the reference), and
``deliver_bucket`` vs ``deliver_remote`` vs the old receive-side fold.
Job level: bulk BC vs per-edge-loop BC, the unknown-vertex error path, and
routing that follows a mid-job migration.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algorithms import BCProgram, betweenness_reference
from repro.algorithms import bc as bc_mod
from repro.analysis.traces import trace_to_dict
from repro.bsp import JobSpec, VertexProgram, run_job
from repro.bsp.combiners import MinCombiner, SumCombiner
from repro.bsp.debug import InvariantChecker
from repro.bsp.worker import PartitionWorker
from repro.cloud.costmodel import PerfModel
from repro.graph import generators as gen
from repro.graph.builder import from_edges
from repro.partition.dynamic import DynamicRepartitioningEngine
from repro.scheduling import SequentialInitiation, StaticSizer, SwathController


class _Plain(VertexProgram):
    """No behaviour: the tests drive the worker's plane directly.  The
    default ``payload_nbytes`` makes tuple payloads variable-size."""

    def __init__(self, combiner=None):
        self.combiner = combiner

    def compute(self, ctx, state, messages):
        ctx.vote_to_halt()
        return state


def fleet(graph, assignment, combiner):
    assignment = np.asarray(assignment, dtype=np.int64)
    program = _Plain(combiner)
    return [
        PartitionWorker(
            worker_id=w, graph=graph,
            vertex_ids=np.flatnonzero(assignment == w), program=program,
            model=PerfModel(), assignment=assignment,
        )
        for w in range(int(assignment.max()) + 1)
    ]


def plane(w):
    """Everything the plane leaves behind, orders included."""
    return {
        "in_next": [(k, list(box)) for k, box in w.in_next.items()],
        "out_remote": [
            (dw, [(k, list(box)) for k, box in bucket.items()])
            for dw, bucket in w.out_remote.items()
        ],
        "msgs_local": w.stats.msgs_out_local,
        "msgs_remote": w.stats.msgs_out_remote,
        "in_next_bytes": w.in_next_payload_bytes,
        "wire_bytes": w.out_remote_wire_bytes,
    }


def parent_emit(w, dst, payload):
    """The per-message rule of the commit before the bulk plane: owner
    looked up per message, boxes created straight in ``out_remote``."""
    program, combiner = w.program, w.program.combiner
    owner = int(w.assignment[dst])
    if owner == w.worker_id:
        box = w.in_next.setdefault(dst, [])
    else:
        box = w.out_remote.setdefault(owner, {}).setdefault(dst, [])
    if combiner is not None and box:
        box[0] = combiner.combine(box[0], payload)
    elif owner == w.worker_id:
        box.append(payload)
        w.in_next_payload_bytes += program.payload_nbytes(payload)
        w.stats.msgs_out_local += 1
    else:
        box.append(payload)
        w.out_remote_wire_bytes += w.model.message_wire_bytes(
            program.payload_nbytes(payload)
        )
        w.stats.msgs_out_remote += 1


def parent_deliver(w, dst, payloads):
    """The receive-side fold of the commit before ``deliver_bucket``."""
    program, combiner = w.program, w.program.combiner
    box = w.in_next.setdefault(dst, [])
    wire = 0.0
    for p in payloads:
        wire += w.model.message_wire_bytes(program.payload_nbytes(p))
        if combiner is not None and box:
            box[0] = combiner.combine(box[0], p)
        else:
            box.append(p)
            w.in_next_payload_bytes += program.payload_nbytes(p)
    return wire


COMBINERS = {"none": lambda: None, "sum": SumCombiner, "min": MinCombiner}


@st.composite
def scenarios(draw):
    n = draw(st.integers(3, 14))
    k = draw(st.integers(1, 4))
    edges = draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        min_size=1, max_size=3 * n,
    ))
    graph = from_edges(n, edges, undirected=draw(st.booleans()))
    assignment = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    assignment[0] = k - 1  # every worker id up to k-1 exists in the fleet
    combiner = draw(st.sampled_from(sorted(COMBINERS)))
    if combiner == "none":
        # object payloads of differing sizes
        payloads = [(v,) * (1 + v % 3) for v in range(n)]
    else:
        payloads = [draw(st.integers(-5, 5)) / 4 for _ in range(n)]
    return graph, assignment, combiner, payloads


def drive(worker, payloads, how):
    """Every hosted vertex sends its payload along its out-edges."""
    for v in sorted(worker.states):
        if how == "bulk":
            worker.emit_to_neighbors(v, payloads[v])
            continue
        for u in worker.effective_neighbors(v):
            if how == "loop":
                worker.emit(v, int(u), payloads[v])
            else:
                parent_emit(worker, int(u), payloads[v])
    if how != "parent":
        worker._route_pending()


def assert_same_plane(build, payloads):
    """``build()`` returns a fresh, identically prepared fleet."""
    planes = {}
    for how in ("bulk", "loop", "parent"):
        workers = build()
        for w in workers:
            drive(w, payloads, how)
        planes[how] = [plane(w) for w in workers]
    assert planes["bulk"] == planes["loop"] == planes["parent"]


class TestEmitDifferential:
    @given(scenarios())
    @settings(max_examples=60, deadline=None)
    def test_bulk_equals_per_message(self, scenario):
        graph, assignment, combiner, payloads = scenario

        def build():
            workers = fleet(graph, assignment, COMBINERS[combiner]())
            for w in workers:
                w.begin_superstep(0, {})
            return workers

        assert_same_plane(build, payloads)

    @given(scenarios(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_with_overlay(self, scenario, data):
        graph, assignment, combiner, payloads = scenario
        n = graph.num_vertices
        v = data.draw(st.integers(0, n - 1))
        added = data.draw(st.integers(0, n - 1))
        nbrs = [int(u) for u in graph.neighbors(v)]

        def build():
            workers = fleet(graph, assignment, COMBINERS[combiner]())
            owner = workers[assignment[v]]
            owner.request_mutation(v, "add", added)
            owner.request_mutation(v, "add", added)  # duplicate edge
            if nbrs:
                owner.request_mutation(v, "remove", nbrs[0])
            for w in workers:
                w.begin_superstep(0, {})
            assert v in owner._overlay
            return workers

        assert_same_plane(build, payloads)

    @given(scenarios(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_after_migration_changed_what_is_hosted(self, scenario, data):
        graph, assignment, combiner, payloads = scenario
        k = max(assignment) + 1
        v = data.draw(st.integers(0, graph.num_vertices - 1))
        dest = (assignment[v] + 1) % k

        def build():
            workers = fleet(graph, assignment, COMBINERS[combiner]())
            moved = np.asarray(assignment, dtype=np.int64)
            if dest != assignment[v]:
                workers[dest].import_vertex(
                    v, *workers[assignment[v]].export_vertex(v)
                )
                moved[v] = dest
            for w in workers:
                w.assignment = moved
                w.begin_superstep(0, {})
            return workers

        assert_same_plane(build, payloads)

    @given(scenarios(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_with_injected_boxes(self, scenario, data):
        graph, assignment, combiner, payloads = scenario
        seeded = data.draw(st.lists(
            st.integers(0, graph.num_vertices - 1), max_size=4, unique=True,
        ))

        def build():
            workers = fleet(graph, assignment, COMBINERS[combiner]())
            for w in workers:
                w.begin_superstep(0, {})
            for dst in seeded:
                workers[assignment[dst]].inject(dst, payloads[dst])
            return workers

        assert_same_plane(build, payloads)

    def test_emit_to_unhosted_unknown_vertex_raises(self):
        (w,) = fleet(gen.ring(4), [0, 0, 0, 0], None)
        w.begin_superstep(0, {})
        for bad in (4, -1):
            with pytest.raises(ValueError, match="unknown vertex"):
                w.emit(0, bad, "x")


class TestDeliverBucket:
    @given(scenarios(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_bucket_equals_per_box_delivery(self, scenario, data):
        graph, assignment, combiner, payloads = scenario
        hosted = [v for v, a in enumerate(assignment) if a == 0]
        if not hosted:
            return
        # Two source workers' buckets in a row: keys unique inside one
        # bucket, repeated across them (the fold into an existing box).
        buckets = [
            [
                (dst, data.draw(st.lists(
                    st.sampled_from(payloads), min_size=1, max_size=3)))
                for dst in data.draw(st.lists(
                    st.sampled_from(hosted), max_size=6, unique=True))
            ]
            for _ in range(2)
        ]

        def receiver():
            w = fleet(graph, assignment, COMBINERS[combiner]())[0]
            w.begin_superstep(0, {})
            w.inject(hosted[0], payloads[hosted[0]])
            return w

        bulk, single, parent = receiver(), receiver(), receiver()
        for items in buckets:
            msgs, wire = bulk.deliver_bucket(items)
            single_wire = sum(single.deliver_remote(d, ps) for d, ps in items)
            parent_wire = sum(parent_deliver(parent, d, ps) for d, ps in items)
            assert msgs == sum(len(ps) for _, ps in items)
            assert wire == single_wire == parent_wire
        assert plane(bulk) == plane(single) == plane(parent)


class _LoopSendContext:
    """ctx proxy whose ``send_to_neighbors`` is the per-edge loop
    ``BCProgram`` used before it took the bulk path."""

    def __init__(self, inner):
        self._inner = inner

    def send_to_neighbors(self, payload):
        for u in self._inner.out_neighbors:
            self._inner.send(int(u), payload)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class LoopSendBC(BCProgram):
    def compute(self, ctx, state, messages):
        return super().compute(_LoopSendContext(ctx), state, messages)


class SendTo(VertexProgram):
    """Vertex 0 messages vertex ``dst`` in superstep 0."""

    def __init__(self, dst):
        self.dst = dst

    def compute(self, ctx, state, messages):
        if ctx.superstep == 0 and ctx.vertex_id == 0:
            ctx.send(self.dst, 1)
        ctx.vote_to_halt()
        return state


class TestJobLevel:
    @pytest.mark.parametrize(
        "engine,workers", [("sim", 4), ("process", 2)], ids=["sim4", "process2"],
    )
    def test_bulk_bc_equals_loop_bc(self, small_world, engine, workers):
        def run(program):
            controller = SwathController(
                roots=list(range(10)), start_factory=bc_mod.start_messages,
                sizer=StaticSizer(4), initiation=SequentialInitiation(),
            )
            return run_job(
                JobSpec(
                    program=program, graph=small_world, num_workers=workers,
                    initially_active=False, observers=[controller],
                ),
                engine=engine,
            )

        bulk, loop = run(BCProgram()), run(LoopSendBC())
        assert bulk.values == loop.values  # bitwise: same floats, same keys
        assert bulk.supersteps == loop.supersteps
        assert trace_to_dict(bulk.trace) == trace_to_dict(loop.trace)

    @pytest.mark.parametrize("offset", [0, -1], ids=["num_vertices", "minus-one"])
    def test_send_to_unknown_vertex_raises_out_of_run(self, ring10, offset):
        dst = ring10.num_vertices if offset == 0 else -1
        job = JobSpec(program=SendTo(dst), graph=ring10, num_workers=2)
        with pytest.raises(ValueError, match="message to unknown vertex"):
            run_job(job)

    def test_routing_follows_migration(self, small_world):
        roots = range(8)
        checker = InvariantChecker()
        engine = DynamicRepartitioningEngine(
            JobSpec(
                program=BCProgram(), graph=small_world, num_workers=4,
                initially_active=False, observers=[checker],
                initial_messages=bc_mod.start_messages(roots),
            ),
            interval=3,
        )
        res = engine.run()
        assert engine.total_moved >= 1
        assert engine.migrations[0].superstep < res.supersteps - 1  # mid-job
        assert np.allclose(
            res.values_array(), betweenness_reference(small_world, roots=roots),
            atol=1e-9,
        )
        # no combiner: every buffered message was drained, every superstep
        assert checker.ok, checker.violations
