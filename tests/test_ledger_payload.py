"""Round/message accounting edge cases: the RoundLedger and payload_size.

Covers the corners the composite algorithms rely on: nested payload size
estimation, zero-round protocols (halt-at-start costs 0 rounds and 0
messages), and ledger composition/breakdown semantics."""

import pytest

from repro import Graph, SynchronousNetwork
from repro.simulator.ledger import PhaseRecord, RoundLedger
from repro.simulator.message import payload_size
from repro.simulator.network import RunResult
from repro.simulator.program import FunctionProgram


class TestPayloadSize:
    def test_none_is_free(self):
        assert payload_size(None) == 0

    def test_bool_is_one_byte_not_int(self):
        # bool is an int subclass; it must hit the bool branch first
        assert payload_size(True) == 1
        assert payload_size(False) == 1

    def test_int_bit_length(self):
        assert payload_size(0) == 1
        assert payload_size(255) == 1
        assert payload_size(256) == 2
        assert payload_size(1 << 16) == 3

    def test_negative_int_pays_a_sign_bit(self):
        # magnitude bits + 1 sign bit: -5 still fits a byte, -255 does not
        assert payload_size(-5) == 1
        assert payload_size(-127) == 1  # 7 + 1 = 8 bits
        assert payload_size(-128) == 2  # 8 + 1 = 9 bits
        assert payload_size(-255) == 2
        assert payload_size(-(1 << 16)) == 3  # 17 + 1 = 18 bits

    def test_sets_sized_by_element_not_repr(self):
        # like tuples: elements + 1 byte container overhead
        assert payload_size({1, 2, 3}) == 4
        assert payload_size(frozenset({1, 2, 3})) == 4
        assert payload_size(set()) == 1
        # deterministic regardless of element magnitude/iteration order
        big = {1 << 40, 3, 7, 1 << 20}
        assert payload_size(big) == payload_size(tuple(sorted(big)))
        assert payload_size({(1, 2), (3, 4)}) == 2 * 3 + 1

    def test_string_utf8(self):
        assert payload_size("abc") == 3
        assert payload_size("é") == 2
        assert payload_size("") == 0

    def test_flat_tuple_and_list(self):
        # container overhead is 1 byte
        assert payload_size((1, 2, 3)) == 4
        assert payload_size([1, 2, 3]) == 4
        assert payload_size(()) == 1

    def test_nested_payloads(self):
        nested = (1, (2, (3, (4,))))
        # each tuple level adds 1: ints are 1 each, four levels of nesting
        assert payload_size(nested) == 4 + 4
        deep = [[[[0]]]]
        assert payload_size(deep) == 1 + 4

    def test_dict_counts_keys_and_values(self):
        assert payload_size({1: 2}) == 3
        assert payload_size({"ab": (1, 2)}) == 2 + 3 + 1

    def test_mixed_nested_structure(self):
        msg = {"color": 300, "parents": [1, 2], "done": False}
        expected = (
            1  # dict overhead
            + len("color") + 2
            + len("parents") + (1 + 1 + 1)
            + len("done") + 1
        )
        assert payload_size(msg) == expected

    def test_fallback_is_repr_length(self):
        class Blob:
            def __repr__(self):
                return "<blob>"

        assert payload_size(Blob()) == len("<blob>")


class TestZeroRoundProtocols:
    def test_halt_at_start_costs_zero_rounds_and_messages(self):
        g = Graph(range(4), [(0, 1), (1, 2), (2, 3)])
        net = SynchronousNetwork(g)
        result = net.run(
            lambda: FunctionProgram(start=lambda ctx: ctx.halt(ctx.node)),
            count_bytes=True,
        )
        assert result.rounds == 0
        assert result.messages == 0
        assert result.message_bytes == 0
        assert result.max_message_bytes == 0
        assert result.outputs == {v: v for v in range(4)}

    def test_zero_round_phase_in_ledger(self):
        g = Graph(range(3), [(0, 1), (1, 2)])
        net = SynchronousNetwork(g)
        result = net.run(
            lambda: FunctionProgram(start=lambda ctx: ctx.halt(None))
        )
        ledger = RoundLedger()
        ledger.add_run("decide-locally", result)
        assert ledger.total_rounds == 0
        assert ledger.total_messages == 0
        assert ledger.breakdown() == {"decide-locally": 0}


class TestRoundLedger:
    def test_empty_ledger(self):
        ledger = RoundLedger()
        assert ledger.total_rounds == 0
        assert ledger.total_messages == 0
        assert ledger.breakdown() == {}
        assert str(ledger) == "total rounds: 0"

    def test_add_and_totals(self):
        ledger = RoundLedger()
        ledger.add("phase-a", 3, messages=10, message_bytes=40)
        ledger.add("phase-b", 2, messages=5, message_bytes=20)
        assert ledger.total_rounds == 5
        assert ledger.total_messages == 15
        assert [p.name for p in ledger.phases] == ["phase-a", "phase-b"]

    def test_breakdown_sums_repeated_phase_names(self):
        ledger = RoundLedger()
        ledger.add("recurse", 4)
        ledger.add("recurse", 6)
        ledger.add("finish", 1)
        assert ledger.breakdown() == {"recurse": 10, "finish": 1}
        assert ledger.total_rounds == 11

    def test_add_run_copies_run_result_fields(self):
        run = RunResult(outputs={}, rounds=7, messages=9, message_bytes=33,
                        max_message_bytes=8)
        ledger = RoundLedger()
        ledger.add_run("bfs", run)
        (phase,) = ledger.phases
        assert phase == PhaseRecord("bfs", 7, 9, 33)

    def test_add_ledger_prefixes_absorbed_phases(self):
        inner = RoundLedger()
        inner.add("color", 5, messages=2)
        inner.add("sweep", 3)
        outer = RoundLedger()
        outer.add("setup", 1)
        outer.add_ledger(inner, prefix="mis/")
        assert outer.total_rounds == 9
        assert outer.breakdown() == {"setup": 1, "mis/color": 5, "mis/sweep": 3}
        # absorbing must copy, not alias
        inner.phases[0].rounds = 100
        assert outer.total_rounds == 9

    def test_str_lists_phases(self):
        ledger = RoundLedger()
        ledger.add("alpha", 2)
        ledger.add("beta", 3)
        text = str(ledger)
        assert "total rounds: 5" in text
        assert "alpha: 2" in text
        assert "beta: 3" in text
