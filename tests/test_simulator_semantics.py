"""Deeper simulator semantics: the contracts docs/model.md promises."""

import pytest

from repro import Graph, NodeProgram, SynchronousNetwork
from repro.errors import RoundLimitExceeded
from repro.simulator import MessageTrace


class TestMessageOverwrite:
    def test_second_send_same_round_overwrites(self):
        """One message per ordered pair per round: the last send wins."""

        class DoubleSender(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.send(1, "first")
                    ctx.send(1, "second")
                    ctx.halt()

            def on_round(self, ctx):
                ctx.halt(dict(ctx.inbox))

        g = Graph(range(2), [(0, 1)])
        result = SynchronousNetwork(g).run(DoubleSender)
        assert result.outputs[1] == {0: "second"}


class TestMultiRoundDelivery:
    def test_message_latency_one_round(self):
        """A message sent in round r is readable exactly in round r+1."""
        observed = {}

        class Chain(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.send(1, "hop")
                    ctx.halt()

            def on_round(self, ctx):
                if ctx.node == 1 and "hop" in ctx.inbox.values():
                    observed["round"] = ctx.round_number
                    ctx.send(2, "hop")
                    ctx.halt()
                elif ctx.node == 2 and "hop" in ctx.inbox.values():
                    observed["round2"] = ctx.round_number
                    ctx.halt()

        g = Graph(range(3), [(0, 1), (1, 2)])
        SynchronousNetwork(g).run(Chain)
        assert observed == {"round": 1, "round2": 2}

    def test_rounds_equals_chain_length(self):
        """Information travels one hop per round: a k-hop relay costs k."""

        class Relay(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.broadcast("token")
                    ctx.halt(0)

            def on_round(self, ctx):
                if ctx.inbox:
                    ctx.broadcast("token")
                    ctx.halt(ctx.round_number)

        n = 12
        g = Graph(range(n), [(i, i + 1) for i in range(n - 1)])
        result = SynchronousNetwork(g).run(Relay)
        assert result.rounds == n - 1
        assert result.outputs[n - 1] == n - 1


class TestPartsAndParticipantsCombined:
    def test_part_of_composes_with_participants(self):
        class CountVisible(NodeProgram):
            def on_start(self, ctx):
                ctx.halt(ctx.degree)

        g = Graph(range(6), [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        result = SynchronousNetwork(g).run(
            CountVisible,
            participants=[0, 1, 2, 3],
            part_of={0: "a", 1: "a", 2: "b", 3: "b", 4: "a", 5: "a"},
        )
        # 4 and 5 are excluded by participants even though labeled 'a';
        # 1 sees only 0 (2 is in part b); 3 sees only 2
        assert result.outputs == {0: 1, 1: 1, 2: 1, 3: 1}

    def test_unlabeled_vertices_form_their_own_part(self):
        class CountVisible(NodeProgram):
            def on_start(self, ctx):
                ctx.halt(ctx.degree)

        g = Graph(range(3), [(0, 1), (1, 2)])
        result = SynchronousNetwork(g).run(
            CountVisible, part_of={0: "a"}  # 1 and 2 share the None label
        )
        assert result.outputs == {0: 0, 1: 1, 2: 1}


class TestRoundLimits:
    def test_default_limit_scales_with_n(self):
        class Forever(NodeProgram):
            def on_start(self, ctx):
                ctx.broadcast(0)

            def on_round(self, ctx):
                ctx.broadcast(0)

        g = Graph(range(2), [(0, 1)])
        with pytest.raises(RoundLimitExceeded) as exc:
            SynchronousNetwork(g).run(Forever)
        assert exc.value.limit >= 1000

    def test_error_reports_survivors(self):
        class OneHalts(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.halt()
                else:
                    ctx.broadcast(0)

            def on_round(self, ctx):
                ctx.broadcast(0)

        g = Graph(range(3), [(0, 1), (1, 2)])
        with pytest.raises(RoundLimitExceeded) as exc:
            SynchronousNetwork(g).run(OneHalts, round_limit=4)
        assert exc.value.still_running == 2


class TestTraceRoundNumbers:
    def test_trace_spans_rounds(self):
        class TwoRounds(NodeProgram):
            def on_start(self, ctx):
                ctx.broadcast("a")

            def on_round(self, ctx):
                if ctx.round_number == 1:
                    ctx.broadcast("b")
                else:
                    ctx.halt()

        g = Graph(range(2), [(0, 1)])
        trace = MessageTrace()
        SynchronousNetwork(g).run(TwoRounds, telemetry=trace)
        assert trace.per_round() == {0: 2, 1: 2}


class TestOutputCollection:
    def test_default_output_is_none(self):
        class HaltsBare(NodeProgram):
            def on_start(self, ctx):
                ctx.halt()

        g = Graph.empty(3)
        result = SynchronousNetwork(g).run(HaltsBare)
        assert all(v is None for v in result.outputs.values())

    def test_outputs_keyed_by_participants_only(self):
        class EchoId(NodeProgram):
            def on_start(self, ctx):
                ctx.halt(ctx.node)

        g = Graph.empty(5)
        result = SynchronousNetwork(g).run(EchoId, participants=[1, 3])
        assert set(result.outputs) == {1, 3}
