"""Every sink speaks :class:`repro.core.pipeline.Sink` as written.

The Agent and the Manager drive a sink without knowing which one it is,
so an override that renames a parameter — or gives it another meaning,
as ``MemorySink.rollback(pod_id)`` once did under ``Sink.rollback(op_id)``
— is a second protocol.  The parameter names are the contract.
"""

import inspect

import pytest

from repro.core.pipeline import FileSink, MemorySink, PipelineState, Sink, StreamSink
from repro.storage.cas import CasSink

PROTOCOL = sorted(name for name, member in vars(Sink).items()
                  if inspect.isfunction(member) and not name.startswith("_"))


def test_the_protocol_is_the_one_design_section_5_tabulates():
    assert PROTOCOL == ["exists", "load", "publish", "rollback", "stage",
                        "store", "tip_epoch", "write_cost", "write_delay"]


@pytest.mark.parametrize("sink", [MemorySink, FileSink, CasSink, StreamSink],
                         ids=lambda cls: cls.__name__)
def test_overrides_keep_the_protocol_parameter_names(sink):
    assert issubclass(sink, Sink)
    for name in PROTOCOL:
        if name in vars(sink):
            assert (list(inspect.signature(vars(sink)[name]).parameters)
                    == list(inspect.signature(vars(Sink)[name]).parameters)), (
                f"{sink.__name__}.{name} is not Sink.{name}")


def test_the_memory_sink_is_op_keyed_like_its_peers():
    sink = MemorySink(PipelineState())
    assert sink.tracks_ops and not sink.shared and sink.ack is None
    # nothing stored: nothing to publish, undo or find, for any op
    assert not sink.publish(1) and not sink.rollback(1) and not sink.exists(1)
    assert sink.load("p") == [] and sink.tip_epoch("p") is None
