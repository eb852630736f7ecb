"""Message tracing and CONGEST-style size accounting.

The LOCAL model allows unbounded messages, but the paper's algorithms are
naturally frugal: colors, levels, and small tuples.  These tests pin that
down — every core algorithm's messages stay logarithmic-size — and cover
the MessageTrace API.
"""

import math


from repro import Graph, SynchronousNetwork
from repro.core import (
    compute_hpartition,
    kuhn_defective_coloring,
    legal_coloring,
    linial_coloring,
)
from repro.graphs import forest_union, random_regular
from repro.simulator import MessageTrace, NodeProgram


class PingProgram(NodeProgram):
    def on_start(self, ctx):
        ctx.broadcast(("ping", ctx.node))

    def on_round(self, ctx):
        ctx.halt(len(ctx.inbox))


class TestMessageTraceAPI:
    def test_records_every_message(self):
        g = Graph(range(3), [(0, 1), (1, 2)])
        net = SynchronousNetwork(g)
        trace = MessageTrace()
        net.run(PingProgram, telemetry=trace)
        assert len(trace) == 4  # 1+2+1 broadcasts

    def test_round_numbers(self):
        g = Graph(range(2), [(0, 1)])
        trace = MessageTrace()
        SynchronousNetwork(g).run(PingProgram, telemetry=trace)
        assert trace.per_round() == {0: 2}

    def test_between(self):
        g = Graph(range(3), [(0, 1), (1, 2)])
        trace = MessageTrace()
        SynchronousNetwork(g).run(PingProgram, telemetry=trace)
        assert len(trace.between(0, 1)) == 2
        assert len(trace.between(0, 2)) == 0

    def test_sizes(self):
        g = Graph(range(2), [(0, 1)])
        trace = MessageTrace()
        SynchronousNetwork(g).run(PingProgram, telemetry=trace)
        assert trace.max_size >= 1
        assert trace.total_bytes >= 2
        hist = trace.sizes_histogram(bucket=4)
        assert sum(hist.values()) == 2


class TestCongestFrugality:
    """Messages of the core algorithms stay O(log n)-bit."""

    def _max_message_bytes(self, net, runner):
        trace = MessageTrace()
        original_run = net.run

        def run_traced(*args, **kwargs):
            kwargs.setdefault("telemetry", trace)
            return original_run(*args, **kwargs)

        net.run = run_traced
        try:
            runner()
        finally:
            net.run = original_run
        return trace.max_size

    def test_hpartition_messages_constant(self):
        g = forest_union(400, 4, seed=90)
        net = SynchronousNetwork(g.graph)
        size = self._max_message_bytes(
            net, lambda: compute_hpartition(net, 4)
        )
        assert size <= 16  # the single "leaving" token

    def test_linial_messages_logarithmic(self):
        g = random_regular(500, 6, seed=91)
        net = SynchronousNetwork(g.graph)
        size = self._max_message_bytes(net, lambda: linial_coloring(net))
        # colors are < n initially: O(log n) bits = a few bytes
        assert size <= math.ceil(math.log2(500) / 8) + 4

    def test_defective_messages_logarithmic(self):
        g = random_regular(500, 8, seed=92)
        net = SynchronousNetwork(g.graph)
        size = self._max_message_bytes(
            net, lambda: kuhn_defective_coloring(net, 2)
        )
        assert size <= 8

    def test_legal_coloring_messages_small(self):
        g = forest_union(300, 6, seed=93)
        net = SynchronousNetwork(g.graph)
        size = self._max_message_bytes(
            net, lambda: legal_coloring(net, 6, p=4)
        )
        # tuples of (level, color) and small color values
        assert size <= 24
