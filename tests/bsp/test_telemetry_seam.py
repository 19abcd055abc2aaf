"""The telemetry seam: engines emit events, only the spine calls a sink.

Source-level guard (same idea as the wall-clock guard in
``tests/net/test_transport.py``): the engine files and the two migration
policies hold no call on a sink and read the job's sink slots only to build the ``Telemetry``; the
adapters implement nothing outside the closed event vocabulary.
"""

import inspect
import re

import repro.bsp.dense_ref as bsp_dense
import repro.bsp.engine as bsp_engine
import repro.bsp.telemetry as telemetry
import repro.dist.engine as dist_engine
import repro.elastic.live as elastic_live
import repro.partition.dynamic as partition_dynamic

ENGINE_FILES = (
    bsp_engine, bsp_dense, dist_engine, elastic_live, partition_dynamic,
)
SINKS = r"(?:tracer|metrics|timeline|flight)"

#: a method of a sink called on something named like one
SINK_CALL = re.compile(
    r"\b_?" + SINKS + r"\s*\.\s*(?:start|end|record|unwind|counter|gauge|"
    r"histogram|record_superstep|rollback|annotate|merge_remote|now)\s*\("
)
SINK_GUARD = re.compile(r"\b_?" + SINKS + r"\s+is\s+(?:not\s+)?None")
JOB_SLOT = re.compile(r"\bjob\s*\.\s*" + SINKS + r"\b")


def test_engine_files_call_no_sink():
    for mod in ENGINE_FILES:
        src = inspect.getsource(mod)
        assert not SINK_CALL.search(src), mod.__name__
        assert not SINK_GUARD.search(src), mod.__name__
        assert "Instruments" not in src, mod.__name__


def test_job_sink_slots_are_read_once_to_build_the_spine():
    for mod in ENGINE_FILES:
        reads = JOB_SLOT.findall(inspect.getsource(mod))
        assert len(reads) == (4 if mod is bsp_engine else 0), mod.__name__
    init = inspect.getsource(bsp_engine.BSPEngine.__init__)
    assert len(JOB_SLOT.findall(init)) == 4 and "Telemetry(" in init


def test_adapters_speak_only_the_closed_vocabulary():
    adapters = [
        cls for name, cls in vars(telemetry).items()
        if inspect.isclass(cls) and name.startswith("_")
    ]
    assert len(adapters) == 5
    for cls in adapters:
        public = {
            name for name, member in vars(cls).items()
            if inspect.isfunction(member) and not name.startswith("_")
        }
        assert public <= set(telemetry.EVENTS), cls.__name__
    # An instrument attribute named like an event would be taken for a handler.
    series = {row[0] for row in telemetry._ENGINE_SERIES + telemetry._FLEET_SERIES}
    assert not series & set(telemetry.EVENTS)
    # Every event has a subscriber somewhere: the vocabulary carries no dead word.
    heard = {name for cls in adapters for name in vars(cls)} | {"rollback", "annotate"}
    assert set(telemetry.EVENTS) <= heard

