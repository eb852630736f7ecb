"""The LOCAL-model round simulator: semantics, accounting, restrictions."""

import re
from enum import IntEnum

import numpy as np
import pytest

from repro import Graph, NodeProgram, SynchronousNetwork
from repro.errors import RoundLimitExceeded, SimulationError
from repro.obs import RoundTelemetry
from repro.simulator import FunctionProgram, RoundLedger, engine_names, payload_size


class EchoIdProgram(NodeProgram):
    """Halt immediately with own id; no communication."""

    def on_start(self, ctx):
        ctx.halt(ctx.node)


class SumNeighborsProgram(NodeProgram):
    """Broadcast id, then halt with the sum of received ids."""

    def on_start(self, ctx):
        ctx.broadcast(ctx.node)
        if not ctx.neighbors:
            ctx.halt(0)

    def on_round(self, ctx):
        ctx.halt(sum(ctx.inbox.values()))


class ForeverProgram(NodeProgram):
    """Never halts (for round-limit tests)."""

    def on_start(self, ctx):
        ctx.broadcast("tick")

    def on_round(self, ctx):
        ctx.broadcast("tick")


@pytest.fixture
def net(triangle):
    return SynchronousNetwork(triangle)


class TestRoundSemantics:
    def test_zero_rounds_when_no_communication(self, net):
        result = net.run(EchoIdProgram)
        assert result.rounds == 0
        assert result.outputs == {0: 0, 1: 1, 2: 2}
        assert result.messages == 0

    def test_one_round_exchange(self, net):
        result = net.run(SumNeighborsProgram)
        assert result.rounds == 1
        assert result.outputs == {0: 3, 1: 2, 2: 1}
        assert result.messages == 6

    @pytest.mark.parametrize("engine", engine_names())
    def test_messages_sent_while_halting_are_delivered(self, engine):
        """A node may announce and halt in the same activation.  The
        factory hands out a different program per call, so every engine
        must call it exactly once per node, in slot order."""

        class Announcer(NodeProgram):
            def on_start(self, ctx):
                ctx.broadcast("bye")
                ctx.halt("sender")

            def on_round(self, ctx):  # pragma: no cover
                raise AssertionError("halted node reactivated")

        class Listener(NodeProgram):
            def on_start(self, ctx):
                pass

            def on_round(self, ctx):
                ctx.halt(sorted(ctx.inbox.values()))

        g = Graph(range(2), [(0, 1)])
        net2 = SynchronousNetwork(g, scheduler=engine)
        instances = iter([Announcer(), Listener()])
        result = net2.run(lambda: next(instances))
        # node 0 (created first) is the announcer
        assert result.outputs == {0: "sender", 1: ["bye"]}

    def test_messages_to_halted_nodes_dropped(self):
        class FirstHalts(NodeProgram):
            def on_start(self, ctx):
                if ctx.node == 0:
                    ctx.halt("early")
                else:
                    ctx.broadcast("late")

            def on_round(self, ctx):
                ctx.halt("done")

        g = Graph(range(2), [(0, 1)])
        result = SynchronousNetwork(g).run(FirstHalts)
        assert result.outputs[0] == "early"
        assert result.outputs[1] == "done"

    def test_round_limit(self, net):
        with pytest.raises(RoundLimitExceeded) as exc:
            net.run(ForeverProgram, round_limit=5)
        assert exc.value.limit == 5
        assert exc.value.still_running == 3


class TestVisibility:
    def test_send_to_non_neighbor_rejected(self):
        class BadSender(NodeProgram):
            def on_start(self, ctx):
                ctx.send(99, "hi")

        g = Graph(range(2), [(0, 1)])
        with pytest.raises(SimulationError):
            SynchronousNetwork(g).run(BadSender)

    def test_participants_restriction(self):
        g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
        result = SynchronousNetwork(g).run(
            SumNeighborsProgram, participants=[0, 1, 2]
        )
        assert set(result.outputs) == {0, 1, 2}
        # node 2 no longer sees node 3
        assert result.outputs[2] == 1

    def test_unknown_participant_rejected(self, net):
        with pytest.raises(SimulationError):
            net.run(EchoIdProgram, participants=[7])

    @pytest.mark.parametrize(
        "graph",
        [
            Graph(range(4), [(0, 1), (1, 2), (2, 3)]),
            Graph([40, 10, 30, 20], [(10, 20), (20, 30), (30, 40)]),
        ],
        ids=["contiguous", "relabelled"],
    )
    @pytest.mark.parametrize(
        "make",
        [
            lambda vs: [vs[0], float(vs[1])],
            lambda vs: [vs[0], np.int64(vs[1])],
            lambda vs: [True, vs[2]],
            lambda vs: [vs[0], -1],
            lambda vs: [vs[0], len(vs)],
            lambda vs: [vs[0], max(vs) + 1],
            lambda vs: [vs[0], "a"],
            lambda vs: [IntEnum("Id", {"V": vs[1]}).V, vs[3]],
            lambda vs: [vs[1], vs[0], vs[1]],
            lambda vs: [*reversed(vs), vs[0]],
            lambda vs: [*vs, -1],
            lambda vs: [],
        ],
        ids=[
            "float",
            "np-int64",
            "true",
            "minus-one",
            "n",
            "past-max",
            "str",
            "int-enum",
            "duplicates",
            "everyone",
            "everyone-and-stray",
            "empty",
        ],
    )
    def test_participants_validated_as_one_by_one(self, graph, make):
        """The bulk participant check accepts exactly what ``has_vertex``
        accepts one participant at a time, and names the same offender."""
        participants = make(graph.vertices)
        active = set(participants)
        offender = next((v for v in active if not graph.has_vertex(v)), None)
        net = SynchronousNetwork(graph)
        if offender is None:
            result = net.run(EchoIdProgram, participants=participants)
            assert result.outputs == {v: v for v in active}
            assert list(result.outputs) == sorted(active)
        else:
            message = f"participant {offender} is not a vertex"
            with pytest.raises(SimulationError, match=f"^{re.escape(message)}$"):
                net.run(EchoIdProgram, participants=participants)

    def test_part_of_isolates_parts(self):
        g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
        parts = {0: "a", 1: "a", 2: "b", 3: "b"}
        result = SynchronousNetwork(g).run(SumNeighborsProgram, part_of=parts)
        # 1 only sees 0; 2 only sees 3
        assert result.outputs[1] == 0
        assert result.outputs[2] == 3

    def test_degree_reflects_visibility(self):
        seen = {}

        class DegreeProbe(NodeProgram):
            def on_start(self, ctx):
                seen[ctx.node] = ctx.degree
                ctx.halt()

        g = Graph(range(3), [(0, 1), (1, 2)])
        SynchronousNetwork(g).run(DegreeProbe, part_of={0: 0, 1: 0, 2: 1})
        assert seen == {0: 1, 1: 1, 2: 0}


class TestGlobals:
    def test_n_injected(self):
        captured = {}

        class Probe(NodeProgram):
            def on_start(self, ctx):
                captured[ctx.node] = ctx.globals["n"]
                ctx.halt()

        g = Graph(range(5), [])
        SynchronousNetwork(g).run(Probe)
        assert set(captured.values()) == {5}

    def test_custom_globals(self):
        captured = {}

        class Probe(NodeProgram):
            def on_start(self, ctx):
                captured[ctx.node] = ctx.globals["a"]
                ctx.halt()

        g = Graph(range(2), [])
        SynchronousNetwork(g).run(Probe, global_params={"a": 42})
        assert set(captured.values()) == {42}


class TestAccounting:
    def test_byte_counting(self, net):
        result = net.run(SumNeighborsProgram, count_bytes=True)
        assert result.message_bytes > 0
        assert result.max_message_bytes >= 1

    def test_payload_size(self):
        assert payload_size(None) == 0
        assert payload_size(True) == 1
        assert payload_size(255) == 1
        assert payload_size(256) == 2
        assert payload_size((1, 2)) == 3
        assert payload_size("abc") == 3
        assert payload_size({1: 2}) >= 2


class TestLedger:
    def test_totals_and_breakdown(self):
        ledger = RoundLedger()
        ledger.add("phase-a", 5, messages=10)
        ledger.add("phase-b", 3)
        ledger.add("phase-a", 2)
        assert ledger.total_rounds == 10
        assert ledger.total_messages == 10
        assert ledger.breakdown() == {"phase-a": 7, "phase-b": 3}
        assert "total rounds: 10" in str(ledger)

    def test_add_run(self, net):
        ledger = RoundLedger()
        ledger.add_run("exchange", net.run(SumNeighborsProgram))
        assert ledger.total_rounds == 1

    def test_add_ledger(self):
        inner = RoundLedger()
        inner.add("x", 4)
        outer = RoundLedger()
        outer.add_ledger(inner, prefix="sub/")
        assert outer.breakdown() == {"sub/x": 4}


class TestEventScheduler:
    """Semantics of quiescence declarations under the event fast path."""

    def test_sleeper_woken_by_message(self):
        """An idle node is activated exactly when its mail arrives."""

        class Sleeper(NodeProgram):
            def on_start(self, ctx):
                ctx.idle_until_message()

            def on_round(self, ctx):
                assert ctx.inbox, "idle node activated without messages"
                ctx.halt((ctx.round_number, dict(ctx.inbox)))

        class SlowSender(NodeProgram):
            def on_start(self, ctx):
                pass

            def on_round(self, ctx):
                if ctx.round_number == 3:
                    ctx.broadcast("now")
                    ctx.halt("sent")

        g = Graph(range(2), [(0, 1)])
        instances = iter([Sleeper(), SlowSender()])
        result = SynchronousNetwork(g, scheduler="event").run(
            lambda: next(instances)
        )
        assert result.outputs[0] == (4, {1: "now"})
        assert result.rounds == 4

    def test_wake_at_fast_forwards_empty_rounds(self):
        """With every node asleep, the scheduler jumps to the wakeup round;
        the round count still matches the dense reference."""

        class Napper(NodeProgram):
            def on_start(self, ctx):
                ctx.wake_at(500)
                ctx.idle_until_message()

            def on_round(self, ctx):
                # honours the contract: a no-op until the declared wakeup
                if ctx.round_number >= 500:
                    ctx.halt(ctx.round_number)
                else:
                    ctx.wake_at(500)
                    ctx.idle_until_message()

        g = Graph(range(3), [])
        for mode in ("event", "dense"):
            result = SynchronousNetwork(g, scheduler=mode).run(Napper)
            assert result.rounds == 500
            assert set(result.outputs.values()) == {500}

    def test_dense_ignores_declarations(self):
        """The dense reference activates every running node every round,
        whatever it declared; that is all that separates it from the event
        engine."""

        class Declarer(NodeProgram):
            def on_start(self, ctx):
                ctx.wake_at(7)
                ctx.idle_until_message()

            def on_round(self, ctx):
                ctx.halt(ctx.round_number)

        g = Graph(range(3), [(0, 1), (1, 2)])
        tel = RoundTelemetry()
        dense = SynchronousNetwork(g, scheduler="dense").run(Declarer, telemetry=tel)
        event = SynchronousNetwork(g, scheduler="event").run(Declarer)
        assert dense.outputs == {0: 1, 1: 1, 2: 1} and dense.rounds == 1
        assert event.outputs == {0: 7, 1: 7, 2: 7} and event.rounds == 7
        assert tel.wake_transitions == tel.idle_transitions == 0
        assert tel.fast_forwarded == 0
        assert tel.active_node_rounds() == 6

    def test_declarations_are_per_activation(self):
        """A woken node that does not re-declare idleness runs every round."""
        activations = []

        class OneNap(NodeProgram):
            def on_start(self, ctx):
                ctx.wake_in(5)
                ctx.idle_until_message()

            def on_round(self, ctx):
                activations.append(ctx.round_number)
                if ctx.round_number >= 8:
                    ctx.halt()

        g = Graph(range(1), [])
        SynchronousNetwork(g, scheduler="event").run(OneNap)
        # asleep for rounds 1-4, then awake every round until halting
        assert activations == [5, 6, 7, 8]

    def test_quiescent_deadlock_raises_eagerly(self):
        """All nodes asleep, no mail, no wakeup: the dense engine could only
        exit at the round limit, so the event engine raises the same error
        immediately."""

        class ForeverAsleep(NodeProgram):
            def on_start(self, ctx):
                ctx.idle_until_message()

            def on_round(self, ctx):
                ctx.idle_until_message()

        g = Graph(range(4), [])
        with pytest.raises(RoundLimitExceeded) as exc:
            SynchronousNetwork(g, scheduler="event").run(
                ForeverAsleep, round_limit=99
            )
        assert exc.value.limit == 99
        assert exc.value.still_running == 4

    def test_wake_beyond_round_limit_raises(self):
        class Oversleeper(NodeProgram):
            def on_start(self, ctx):
                ctx.wake_at(1000)
                ctx.idle_until_message()

            def on_round(self, ctx):  # pragma: no cover
                ctx.halt()

        g = Graph(range(2), [])
        with pytest.raises(RoundLimitExceeded):
            SynchronousNetwork(g, scheduler="event").run(
                Oversleeper, round_limit=10
            )

    def test_column_is_default_and_event_matches_dense(self):
        g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
        assert SynchronousNetwork(g).scheduler == "column"
        dense = SynchronousNetwork(g, scheduler="dense").run(
            SumNeighborsProgram, count_bytes=True
        )
        event = SynchronousNetwork(g, scheduler="event").run(
            SumNeighborsProgram, count_bytes=True
        )
        assert dense == event


class TestFunctionProgram:
    def test_start_only(self):
        g = Graph(range(2), [])
        result = SynchronousNetwork(g).run(
            lambda: FunctionProgram(start=lambda ctx: ctx.halt(ctx.node * 10))
        )
        assert result.outputs == {0: 0, 1: 10}

    def test_round_callback(self):
        g = Graph(range(2), [(0, 1)])

        def start(ctx):
            ctx.broadcast("ping")

        def round_(ctx):
            ctx.halt(list(ctx.inbox.values()))

        result = SynchronousNetwork(g).run(
            lambda: FunctionProgram(start=start, round=round_)
        )
        assert result.outputs == {0: ["ping"], 1: ["ping"]}
