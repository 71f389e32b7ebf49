import re
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from mkpsim import GenParams, gen_adversarial, gen_random, run_algorithm
from mkpsim.algorithms import PROTOCOLS

from mkpsim.simnet import (
    PEERS,
    SOURCE,
    TreeLinks,
    Bottom,
    CapacityReport,
    ConsensusPair,
    Delivery,
    FinalDirective,
    ItemOffer,
    Node,
    RunMetrics,
    SimulationFault,
    SourceNode,
    WeightOffer,
    Winner,
    node_name,
    render_payload,
    render_trace,
    run_protocol,
    tree_links,
)

from conftest import deliveries, metrics_of, per_phase_of


class TestTreeLinks:
    def test_root_of_seven(self):
        assert tree_links(1, 7) == TreeLinks(None, 2, 3)

    def test_inner_node_children(self):
        assert tree_links(2, 7) == TreeLinks(1, 4, 5)
        assert tree_links(5, 7).parent == 2

    def test_partial_children(self):
        assert tree_links(3, 6) == TreeLinks(1, 6, None)

    def test_single_node_tree(self):
        assert tree_links(1, 1) == TreeLinks(None, None, None)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            tree_links(0, 3)
        with pytest.raises(ValueError):
            tree_links(4, 3)

    @given(st.integers(min_value=1, max_value=128))
    def test_tree_is_well_formed(self, n):
        links = {j: tree_links(j, n) for j in range(1, n + 1)}
        roots = [j for j, l in links.items() if l.parent is None]
        assert roots == [1]
        for j, l in links.items():
            for child in (l.left, l.right):
                if child is not None:
                    assert links[child].parent == j
            if j > 1:
                parent_links = links[l.parent]
                assert j in (parent_links.left, parent_links.right)


class _SilentSource(SourceNode):
    def step(self, inbox):
        self.halted = True
        return []

    def recorded_assignment(self):
        return None


class _SilentNode(Node):
    def step(self, inbox):
        return []


class _PingSource(SourceNode):
    """Sends one ping to p1, halts when the echo comes back."""

    def __init__(self):
        self.echo_phase = None

    def step(self, inbox):
        if any(isinstance(m.payload, CapacityReport) for m in inbox):
            self.echo_phase = self.phase
            self.halted = True
            return []
        if self.phase == 1:
            return [(1, WeightOffer(3))]
        return []

    def recorded_assignment(self):
        return None


class _EchoNode(Node):
    def __init__(self):
        self.heard_phase = None

    def step(self, inbox):
        if inbox:
            self.heard_phase = self.phase
            return [(SOURCE, CapacityReport(7))]
        return []


class TestEngine:
    def test_silent_programs_send_nothing_and_halt_immediately(self):
        assignment, metrics, trace = run_protocol(
            _SilentSource(), {j: _SilentNode() for j in (1, 2, 3)}
        )
        assert metrics.messages == 0
        assert metrics.phases == 1
        assert trace == ()

    def test_messages_arrive_one_phase_after_sending(self):
        source = _PingSource()
        echo = _EchoNode()
        _, metrics, trace = run_protocol(source, {1: echo})
        assert echo.heard_phase == 2  # sent in phase 1, readable in phase 2
        assert source.echo_phase == 3
        assert metrics.messages == 2
        assert metrics.phases == 3
        assert [(d.phase, d.sender, d.recipient) for d in trace] == [
            (1, SOURCE, 1),
            (2, 1, SOURCE),
        ]

    def test_traces_are_reproducible(self):
        run1 = run_protocol(_PingSource(), {1: _EchoNode()})
        run2 = run_protocol(_PingSource(), {1: _EchoNode()})
        assert render_trace(run1[2]) == render_trace(run2[2])

    # a recipient is an int node id: a bool or float equal to one is not
    @pytest.mark.parametrize("recipient", [9, True, 1.0, 2.0], ids=repr)
    def test_send_to_nonexistent_node_faults(self, recipient):
        source = _OneShotSource([(recipient, WeightOffer(1))])
        message = f"S sent to nonexistent node {recipient}"
        with pytest.raises(SimulationFault, match=f"^{re.escape(message)}$") as fault:
            run_protocol(source, {1: _SilentNode(), 2: _SilentNode()})
        assert _log_at(fault) == []  # the refused send left no record

    def test_send_to_self_faults(self):
        class Selfy(Node):
            def step(self, inbox):
                return [(1, CapacityReport(1))]

        with pytest.raises(SimulationFault, match="^p1 sent to itself$"):
            run_protocol(_PingSource(), {1: Selfy()})

    def test_empty_processor_map_faults(self):
        with pytest.raises(SimulationFault, match="at least one processor"):
            run_protocol(_SilentSource(), {})

    def test_processor_programs_must_cover_every_id(self):
        with pytest.raises(SimulationFault, match="cover ids 1..n"):
            run_protocol(_SilentSource(), {1: _SilentNode(), 3: _SilentNode()})

    def test_nontermination_guard(self):
        class Chatter(SourceNode):
            def step(self, inbox):
                return [(1, WeightOffer(1))]

            def recorded_assignment(self):
                return None

        with pytest.raises(SimulationFault):
            run_protocol(Chatter(), {1: _SilentNode()}, max_phases=50)

    def test_delivery_to_halted_source_faults(self):
        class Straggler(Node):
            def __init__(self):
                self.sent = False

            def step(self, inbox):
                if not self.sent:
                    self.sent = True
                    return [(SOURCE, CapacityReport(1))]
                return []

        # the source halts in phase 1 while the report is still in flight
        with pytest.raises(SimulationFault, match="halted source"):
            run_protocol(_SilentSource(), {1: Straggler()})

    def test_send_after_source_halted_faults(self):
        class LastWord(SourceNode):
            def step(self, inbox):
                self.halted = True
                return [(1, WeightOffer(1))]

            def recorded_assignment(self):
                return None

        class Answer(Node):
            def step(self, inbox):
                return [(2, CapacityReport(1))] if inbox else []

        # the source halts in phase 1 with its offer in flight; p1 answers
        # it in phase 2
        with pytest.raises(SimulationFault, match="p1 sent a message after the source halted"):
            run_protocol(LastWord(), {1: Answer(), 2: _SilentNode()})

    @pytest.mark.parametrize(
        "recipient,message",
        [
            (-1, "p1 sent to nonexistent node -1"),
            (3, "p1 sent to nonexistent node 3"),
            (1, "p1 sent to itself"),
            # a range, like any recipient that is not PEERS and equals no
            # node id, names a nonexistent node
            (range(1, 3), "p1 sent to nonexistent node range(1, 3)"),
            ("p2", "p1 sent to nonexistent node p2"),
            (None, "p1 sent to nonexistent node None"),
            # equal to a node id, even p1's own, but not an int
            (True, "p1 sent to nonexistent node True"),
            (1.0, "p1 sent to nonexistent node 1.0"),
            (2.0, "p1 sent to nonexistent node 2.0"),
        ],
    )
    def test_a_send_breaking_several_rules_reports_the_first(self, recipient, message):
        # each send is also made after the source halted: the id check
        # comes first, then the self check, then the halted check
        class LastWord(SourceNode):
            def step(self, inbox):
                self.halted = True
                return [(1, WeightOffer(1))]

            def recorded_assignment(self):
                return None

        class Stray(Node):
            def step(self, inbox):
                return [(recipient, CapacityReport(1))] if inbox else []

        with pytest.raises(SimulationFault, match=f"^{re.escape(message)}$") as fault:
            run_protocol(LastWord(), {1: Stray(), 2: _SilentNode()})
        # the refused send left no record: the log holds S's offer alone
        assert [(d.phase, d.sender, d.recipient) for d in _log_at(fault)] == [(1, SOURCE, 1)]

    def test_deliveries_are_ordered_by_sender_then_recipient(self):
        class Scatter(SourceNode):
            """Sends in ascending recipient order, twice to p3, then halts."""

            def step(self, inbox):
                self.halted = True
                return [
                    (1, WeightOffer(4)),
                    (2, WeightOffer(2)),
                    (3, WeightOffer(1)),
                    (3, WeightOffer(3)),
                ]

            def recorded_assignment(self):
                return None

        class Recorder(Node):
            def __init__(self, sends=()):
                self.sends = list(sends)
                self.inboxes = []

            def step(self, inbox):
                self.inboxes.append(inbox)
                sends, self.sends = self.sends, []
                return sends

        nodes = {
            1: Recorder([(3, CapacityReport(5))]),
            2: Recorder([(1, CapacityReport(7)), (3, CapacityReport(6))]),
            3: Recorder(),
        }
        _, metrics, trace = run_protocol(Scatter(), nodes)
        assert render_trace(trace) == (
            "1 S p1 weight 4\n"
            "1 S p2 weight 2\n"
            "1 S p3 weight 1\n"
            "1 S p3 weight 3\n"
            "1 p1 p3 capacity 5\n"
            "1 p2 p1 capacity 7\n"
            "1 p2 p3 capacity 6\n"
        )
        assert metrics == RunMetrics(7, 1)
        assert [(d.sender, render_payload(d.payload)) for d in nodes[3].inboxes[1]] == [
            (SOURCE, "weight 1"),
            (SOURCE, "weight 3"),
            (1, "capacity 5"),
            (2, "capacity 6"),
        ]
        assert [d.sender for d in nodes[1].inboxes[1]] == [SOURCE, 2]
        # a recipient's inbox holds the very records the trace keeps
        assert all(any(d is t for t in trace) for d in nodes[3].inboxes[1])

    @pytest.mark.parametrize(
        "recipients,message",
        [
            ([3, 1], "S sent to p1 after a send to p3"),
            ([1, 3, 3, 2], "S sent to p2 after a send to p3"),
        ],
        ids=["two unicasts", "after a repeated unicast"],
    )
    def test_sends_out_of_recipient_order_fault(self, recipients, message):
        # the engine checks a node's order and never fixes it
        sends = [(r, WeightOffer(k)) for k, r in enumerate(recipients)]
        message += ": a node's sends must come in ascending recipient order"
        with pytest.raises(SimulationFault, match=f"^{re.escape(message)}$"):
            run_protocol(_OneShotSource(sends), {j: _SilentNode() for j in range(1, 5)})


def _fault_text(source, processors, **kwargs) -> str:
    with pytest.raises(SimulationFault) as fault:
        run_protocol(source, processors, **kwargs)
    return str(fault.value)


def _log_at(fault) -> list:
    """The records a run had logged when it raised ``fault``."""
    tb = fault.value.__traceback__
    while tb.tb_frame.f_code is not run_protocol.__code__:
        tb = tb.tb_next
    return tb.tb_frame.f_locals["log"]


class _Talker(SourceNode):
    """Pings p1 in every phase until phase ``last``, then halts; in phase
    ``last`` it sends ``final`` instead.  Keeps a weak reference to its
    first ping, and in each later phase notes whether that ping is alive."""

    def __init__(self, last, final):
        self.last, self.final = last, final
        self.first_ping = None
        self.alive = []

    def step(self, inbox):
        if self.phase == 1:
            ping = WeightOffer(1)
            self.first_ping = weakref.ref(ping)
            return [(1, ping)]
        self.alive.append(self.first_ping() is not None)
        if self.phase == self.last:
            self.halted = True
            return self.final
        return [(1, WeightOffer(self.phase))]

    def recorded_assignment(self):
        return None


class _Relay(Node):
    """Tells p2 how many records it read, in every phase it has mail."""

    def step(self, inbox):
        return [(2, CapacityReport(len(inbox)))] if inbox else []


def _relay_nodes():
    return {1: _Relay(), 2: _SilentNode()}


class TestRunWithoutTrace:
    def test_same_metrics_and_no_trace(self):
        _, metrics, trace = run_protocol(_Talker(4, []), _relay_nodes())
        _, bare, none = run_protocol(_Talker(4, []), _relay_nodes(), keep_trace=False)
        assert none is None and len(trace) == 6
        assert bare == metrics == metrics_of(trace)

    def test_records_are_released_once_delivered(self):
        # the first ping is read by p1 in phase 2; only a kept trace holds
        # it after that
        traced, bare = _Talker(4, []), _Talker(4, [])
        run_protocol(traced, _relay_nodes())
        run_protocol(bare, _relay_nodes(), keep_trace=False)
        assert traced.alive == [True, True, True]
        assert bare.alive == [True, False, False]

    @pytest.mark.parametrize(
        "final,message",
        [
            ([(2, WeightOffer(0)), (1, WeightOffer(0))],
             "S sent to p1 after a send to p2: "
             "a node's sends must come in ascending recipient order"),
            ([(PEERS, WeightOffer(0)), (2, WeightOffer(0))],
             "S sent to p2 by a multicast and another send in one phase"),
            ([(1, WeightOffer(0))], "p1 sent a message after the source halted"),
        ],
        ids=["out of order", "overlap", "after the halt"],
    )
    def test_faults_read_the_same(self, final, message):
        # the bad sends come in phase 3, after two phases' records are gone;
        # p1 relays the source's last send in phase 4, after the halt
        runs = [
            _fault_text(_Talker(3, final), _relay_nodes(), keep_trace=keep)
            for keep in (True, False)
        ]
        assert runs == [message, message]


class _SendsOnce(Node):
    """Sends ``sends`` in its first step and nothing after."""

    def __init__(self, sends):
        self.sends = sends

    def step(self, inbox):
        sends, self.sends = self.sends, []
        return sends


class TestSendOrderOfALaterSender:
    @pytest.mark.parametrize(
        "recipients,message",
        [
            ([3, 1], "p2 sent to p1 after a send to p3"),
            ([0, 4, 3], "p2 sent to p3 after a send to p4"),
            ([0, PEERS, 0], "p2 sent to S after a send to p4"),
        ],
        ids=["second send", "third send", "third after a PEERS send"],
    )
    def test_the_check_reads_only_the_nodes_own_records(self, recipients, message):
        # S and p1 send before p2 in phase 1, so p2's records are not the
        # first of the phase
        message += ": a node's sends must come in ascending recipient order"
        for keep in (True, False):
            processors = {
                1: _SendsOnce([(3, WeightOffer(7)), (4, WeightOffer(8))]),
                2: _SendsOnce([(r, WeightOffer(k)) for k, r in enumerate(recipients)]),
                3: _SilentNode(),
                4: _SilentNode(),
            }
            source = _OneShotSource([(PEERS, WeightOffer(6))])
            assert _fault_text(source, processors, keep_trace=keep) == message


class _Recorder(Node):
    """Keeps every inbox it is stepped with; sends nothing."""

    def __init__(self):
        self.inboxes = []

    def step(self, inbox):
        self.inboxes.append(inbox)
        return []


class _OneShotSource(SourceNode):
    """Sends ``sends`` in phase 1 and halts."""

    def __init__(self, sends):
        self.sends = sends

    def step(self, inbox):
        self.halted = True
        return self.sends

    def recorded_assignment(self):
        return None


class _Chorus(Node):
    """Answers an offer from S with one ``PEERS`` send of its id; keeps every
    inbox it is stepped with."""

    def __init__(self, j):
        self.j = j
        self.inboxes = []

    def step(self, inbox):
        self.inboxes.append(inbox)
        if not any(m.sender == SOURCE for m in inbox):
            return []
        return [(PEERS, CapacityReport(self.j))]


class TestMulticast:
    @pytest.mark.parametrize("n", [1, 4])
    def test_every_recipient_reads_the_record_the_trace_keeps(self, n):
        # from S, outside the processors' complete graph, PEERS is all n
        nodes = {j: _Recorder() for j in range(1, n + 1)}
        _, metrics, trace = run_protocol(_OneShotSource([(PEERS, WeightOffer(6))]), nodes)
        (record,) = trace
        assert record.recipient == range(1, n + 1)
        for node in nodes.values():
            (inbox,) = node.inboxes[1:]
            assert len(inbox) == 1 and inbox[0] is record
        assert metrics == RunMetrics(n, 1)
        assert metrics_of(trace) == metrics
        assert render_trace(trace) == "".join(f"1 S p{j} weight 6\n" for j in range(1, n + 1))

    def test_records_keep_emission_order_before_a_peers_send(self):
        # two unicasts to S keep their order before p2's PEERS send; the
        # same sends with the PEERS send first are a fault
        a, b, d = WeightOffer(1), WeightOffer(2), WeightOffer(4)
        sends = [(SOURCE, a), (SOURCE, d), (PEERS, b)]

        def run(sends, log):
            nodes = {j: _Recorder() for j in range(1, 6)}
            nodes[2] = _SendsOnce(sends)
            return nodes, run_protocol(_PlannedSource({}, log, halt_at=2), nodes)

        message = ("p2 sent to S after a send to p5: "
                   "a node's sends must come in ascending recipient order")
        with pytest.raises(SimulationFault, match=f"^{re.escape(message)}$"):
            run([sends[2], *sends[:2]], [])
        log = []
        nodes, (_, metrics, trace) = run(sends, log)
        assert [(record.recipient, record.payload) for record in trace] == [
            (SOURCE, a), (SOURCE, d), (range(1, 6), b),
        ]
        assert render_trace(trace) == (
            "1 p2 S weight 1\n"
            "1 p2 S weight 4\n"
            "1 p2 p1 weight 2\n"
            "1 p2 p3 weight 2\n"
            "1 p2 p4 weight 2\n"
            "1 p2 p5 weight 2\n"
        )
        assert log[1] == ((2, SOURCE), [(2, a), (2, d)])
        assert [m.payload for m in nodes[3].inboxes[1]] == [b]
        assert metrics.messages == 6

    @pytest.mark.parametrize(
        "sends,message",
        [
            ([(PEERS, CapacityReport(1))], "p1 sent a message after the source halted"),
            ([(9, CapacityReport(1)), (PEERS, CapacityReport(1))],
             "p1 sent to nonexistent node 9"),
            ([(PEERS, CapacityReport(1)), (9, CapacityReport(1))],
             "p1 sent a message after the source halted"),
            ([(range(2, 4), CapacityReport(1)), (PEERS, CapacityReport(1))],
             "p1 sent to nonexistent node range(2, 4)"),
        ],
        ids=["halted", "nonexistent first", "halted first", "stale range first"],
    )
    def test_a_peers_send_breaking_several_rules_reports_the_first(self, sends, message):
        # every send is also made after the source halted: each is checked
        # once, in the order the node emitted them, before the order check
        class Stray(Node):
            def step(self, inbox):
                return sends if inbox else []

        source = _OneShotSource([(1, WeightOffer(1))])
        with pytest.raises(SimulationFault, match=f"^{re.escape(message)}$"):
            run_protocol(source, {1: Stray(), 2: _SilentNode(), 3: _SilentNode()})

    @pytest.mark.parametrize(
        "sends,shared",
        [
            ([(PEERS, WeightOffer(1)), (2, WeightOffer(2))], 2),
            ([(2, WeightOffer(2)), (PEERS, WeightOffer(1))], 2),
            ([(1, WeightOffer(1)), (3, WeightOffer(2)), (PEERS, WeightOffer(3))], 3),
            ([(PEERS, WeightOffer(1)), (PEERS, WeightOffer(2))], 1),
            ([(PEERS, WeightOffer(1)), (2, WeightOffer(2)), (2, WeightOffer(3))], 2),
        ],
        ids=["unicast after", "unicast first", "after two unicasts", "twice",
             "two unicasts after"],
    )
    def test_a_multicast_sharing_a_recipient_with_another_send_faults(self, sends, shared):
        # S's PEERS send may share no recipient with another send of S in
        # one phase: the engine refuses such sends, whatever their emission
        # order, and names the lowest recipient shared with the send before
        message = f"^S sent to p{shared} by a multicast and another send in one phase$"
        with pytest.raises(SimulationFault, match=message):
            run_protocol(_OneShotSource(sends), {j: _SilentNode() for j in range(1, 5)})

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 6).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.integers(0, n).flatmap(
                    lambda j: st.tuples(
                        st.just(j),
                        st.lists(
                            st.sampled_from([PEERS, *(k for k in range(n + 1) if k != j)]),
                            min_size=1,
                            max_size=5,
                        ),
                    )
                ),
            )
        )
    )
    def test_a_nodes_records_pass_as_emitted_or_fault(self, case):
        # node j of a run of n processors sends in phase 1.  The reference
        # expands each record to its recipients, a PEERS record to 1..n but
        # for the sender, and asks for a strictly ascending sequence, except
        # that consecutive unicasts may repeat a recipient; the first record
        # that breaks it names the fault.
        n, (j, recipients) = case
        sends = [(r, WeightOffer(k)) for k, r in enumerate(recipients)]
        spans = [
            [k for k in range(1, n + 1) if k != j] if r is PEERS else [r] for r in recipients
        ]
        unicast = [r is not PEERS for r in recipients]
        expanded = [(k, i) for k, span in enumerate(spans) for i in span]
        for (k0, i0), (k1, i1) in zip(expanded, expanded[1:]):
            if i1 > i0 or (i1 == i0 and unicast[k0] and unicast[k1]):
                continue
            shared = set(spans[k0]) & set(spans[k1])
            if shared and not (unicast[k0] and unicast[k1]):
                message = f"sent to p{min(shared)} by a multicast and another send in one phase"
            else:
                message = (f"sent to {node_name(i1)} after a send to {node_name(i0)}: "
                           f"a node's sends must come in ascending recipient order")
            break
        else:
            message = None
        processors = {k: _SendsOnce(sends if k == j else []) for k in range(1, n + 1)}
        source = _Metronome([], halt_at=2, sends={1: sends} if j == SOURCE else {})
        if message is None:
            _, _, trace = run_protocol(source, processors)
            everyone = range(1, n + 1)
            assert [(d.recipient, d.payload) for d in trace] == [
                (everyone if r is PEERS else r, payload) for r, payload in sends
            ]
        else:
            assert _fault_text(source, processors) == f"{node_name(j)} {message}"


class TestPeers:
    @staticmethod
    def chorus(n):
        nodes = {j: _Chorus(j) for j in range(1, n + 1)}
        source = _Metronome([], halt_at=2, sends={1: [(PEERS, WeightOffer(1))]})
        _, metrics, trace = run_protocol(source, nodes)
        return nodes, metrics, trace

    def test_one_record_reaches_every_other_processor(self):
        nodes, metrics, trace = self.chorus(3)
        assert metrics.messages == 3 + 3 * 2
        assert per_phase_of(trace) == ((1, 3), (2, 6))
        assert metrics_of(trace) == metrics
        pairs = trace[1:]
        assert [(d.sender, d.recipient) for d in pairs] == [(j, range(1, 4)) for j in (1, 2, 3)]
        for j, node in nodes.items():
            # each processor reads the others' records themselves, none of its own
            assert [id(m) for m in node.inboxes[2]] == [id(d) for d in pairs if d.sender != j]
        assert render_trace(trace) == render_by_line(trace) == (
            "1 S p1 weight 1\n1 S p2 weight 1\n1 S p3 weight 1\n"
            "2 p1 p2 capacity 1\n2 p1 p3 capacity 1\n"
            "2 p2 p1 capacity 2\n2 p2 p3 capacity 2\n"
            "2 p3 p1 capacity 3\n2 p3 p2 capacity 3\n"
        )

    def test_a_unicast_to_the_source_may_come_first(self):
        log = []
        nodes = {
            1: _Scripted(1, log),
            2: _Scripted(2, log, {1: ([(SOURCE, WeightOffer(1)), (PEERS, WeightOffer(2))], None)}),
            3: _Scripted(3, log),
        }
        _, metrics, trace = run_protocol(_Metronome(log, halt_at=2), nodes)
        assert metrics.messages == 3
        assert log[4:] == [(SOURCE, [2]), (1, [2]), (3, [2])]
        assert render_trace(trace) == "1 p2 S weight 1\n1 p2 p1 weight 2\n1 p2 p3 weight 2\n"

    @pytest.mark.parametrize(
        "j,sends,message",
        [
            (2, [(3, WeightOffer(1)), (PEERS, WeightOffer(2))],
             "p2 sent to p3 by a multicast and another send in one phase"),
            (2, [(1, WeightOffer(1)), (PEERS, WeightOffer(2))],
             "p2 sent to p1 by a multicast and another send in one phase"),
            (2, [(PEERS, WeightOffer(2)), (3, WeightOffer(1))],
             "p2 sent to p3 by a multicast and another send in one phase"),
            (2, [(PEERS, WeightOffer(1)), (PEERS, WeightOffer(2))],
             "p2 sent to p1 by a multicast and another send in one phase"),
            (1, [(PEERS, WeightOffer(1)), (PEERS, WeightOffer(2))],
             "p1 sent to p2 by a multicast and another send in one phase"),
            (2, [(PEERS, WeightOffer(2)), (SOURCE, WeightOffer(1))],
             "p2 sent to S after a send to p3: "
             "a node's sends must come in ascending recipient order"),
            (3, [(PEERS, WeightOffer(2)), (SOURCE, WeightOffer(1))],
             "p3 sent to S after a send to p2: "
             "a node's sends must come in ascending recipient order"),
        ],
        ids=["unicast above first", "unicast below first", "unicast after",
             "twice", "twice from p1", "to S after", "to S after, from the top id"],
    )
    def test_it_shares_every_processor_with_the_other_sends(self, j, sends, message):
        # a PEERS record counts as reaching 1..n in the order check, but no
        # fault names its sender as a recipient
        for keep in (True, False):
            processors = {k: _SendsOnce(sends if k == j else []) for k in (1, 2, 3)}
            assert _fault_text(_OneShotSource([]), processors, keep_trace=keep) == message

    @pytest.mark.parametrize(
        "n,message",
        [(1, "p1 sent to its peers, but it has none"),
         (2, "p1 sent a message after the source halted")],
        ids=["no peers", "after the halt"],
    )
    def test_faults(self, n, message):
        # p1 answers in phase 2 the offer the source sent as it halted: at
        # n = 1 the missing peers are reported before the halt
        class Answer(Node):
            def step(self, inbox):
                return [(PEERS, CapacityReport(1))] if inbox else []

        source = _OneShotSource([(1, WeightOffer(1))])
        processors = {1: Answer(), **{k: _SilentNode() for k in range(2, n + 1)}}
        assert _fault_text(source, processors) == message
        processors = {1: _SendsOnce([(PEERS, CapacityReport(1))])}
        if n == 1:  # and in phase 1, before any halt
            assert _fault_text(_Metronome([], halt_at=2), processors) == message


def _first_recipient_order(trace):
    """(phase, sender, first recipient) of each record, as the trace keeps them."""
    return [
        (d.phase, d.sender, d.recipient.start if isinstance(d.recipient, range) else d.recipient)
        for d in trace
    ]


class TestProtocolSendOrder:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 12), st.integers(1, 9), st.integers(0, 2**32 - 1))
    def test_protocol_traces_come_in_sender_then_first_recipient_order(self, m, n, seed):
        # the engine reorders nothing, so every program must emit in order
        inst = gen_random(GenParams(m, n, 50, 50, 1, 100, seed=seed))
        for alg in ("simple", "modified", "dist", "tree"):
            keys = _first_recipient_order(run_algorithm(alg, inst).trace)
            assert keys == sorted(keys), alg

    @pytest.mark.parametrize(
        "params,last_phase",
        [
            (GenParams(3, 2, 50, 50, 1, 100, seed=24),
             "12 S p1 final 0:25\n12 S p2 weight 11\n12 S p2 final 1:12\n"),
            (GenParams(6, 4, 50, 50, 1, 100, seed=15),
             "30 S p1 final 1:48\n30 S p2 final 3:2\n30 S p3 final 0:1\n30 S p4 weight 44\n"),
        ],
        ids=["award before a directive to its winner", "award after the directives"],
    )
    def test_tree_award_takes_its_place_among_the_directives(self, params, last_phase):
        trace = run_algorithm("tree", gen_random(params)).trace
        assert render_trace(tuple(d for d in trace if d.phase == trace[-1].phase)) == last_phase


class _Metronome(SourceNode):
    """Steps every phase until ``halt_at``, sending ``sends[phase]``; each
    step is logged as (node id, senders of its inbox)."""

    def __init__(self, log, halt_at, sends=None):
        self.log = log
        self.halt_at = halt_at
        self.sends = sends or {}

    def step(self, inbox):
        self.log.append((SOURCE, [d.sender for d in inbox]))
        self.halted = self.phase == self.halt_at
        return self.sends.get(self.phase, [])

    def recorded_assignment(self):
        return None


class _Scripted(Node):
    """Logs each step; its k-th step sends ``plan[k][0]`` and asks for a
    wake-up in phase ``plan[k][1]`` unless that is None."""

    def __init__(self, j, log, plan=None):
        self.j = j
        self.log = log
        self.plan = plan or {}
        self.steps = 0

    def step(self, inbox):
        self.steps += 1
        self.log.append((self.j, [d.sender for d in inbox]))
        sends, wake = self.plan.get(self.steps, ([], None))
        if wake is not None:
            self.wake_at = wake
        return sends


class TestActiveStepping:
    def test_idle_processors_are_not_stepped_after_phase_one(self):
        log = []
        offers = {1: [(2, WeightOffer(1))], 3: [(2, WeightOffer(2))]}
        source = _Metronome(log, halt_at=3, sends=offers)
        nodes = {j: _Scripted(j, log) for j in (1, 2, 3)}
        _, metrics, trace = run_protocol(source, nodes)
        # phase 1: everyone; 2: p2 has mail; 3: the source alone, which
        # halts; 4 drains the last offer to p2 and nobody else
        assert log == [
            (SOURCE, []), (1, []), (2, []), (3, []),
            (SOURCE, []), (2, [SOURCE]),
            (SOURCE, []),
            (2, [SOURCE]),
        ]
        assert (nodes[1].steps, nodes[2].steps, nodes[3].steps) == (1, 3, 1)
        assert metrics.phases == 3
        assert [d.phase for d in trace] == [1, 3]

    def test_wake_up_steps_the_node_once_with_an_empty_inbox(self):
        log = []
        p1 = _Scripted(1, log, {1: ([], 4), 2: ([(SOURCE, CapacityReport(1))], None)})
        _, metrics, trace = run_protocol(_Metronome(log, halt_at=6), {1: p1, 2: _Scripted(2, log)})
        assert log == [
            (SOURCE, []), (1, []), (2, []),
            (SOURCE, []),
            (SOURCE, []),
            (SOURCE, []), (1, []),
            (SOURCE, [1]),
            (SOURCE, []),
        ]
        assert [(d.phase, d.sender, d.recipient) for d in trace] == [(4, 1, SOURCE)]
        assert p1.wake_at is None  # the engine took the request

    def test_wake_up_and_mail_in_one_phase_step_once(self):
        log = []
        p1 = _Scripted(1, log, {1: ([], 4)})
        source = _Metronome(log, halt_at=5, sends={3: [(1, WeightOffer(1))]})
        run_protocol(source, {1: p1})
        assert p1.steps == 2
        assert log[-3:] == [(SOURCE, []), (1, [SOURCE]), (SOURCE, [])]

    def test_wake_ups_reach_drain_phases_but_do_not_extend_the_run(self):
        log = []
        p1 = _Scripted(1, log, {1: ([], 3), 2: ([], 50)})
        source = _Metronome(log, halt_at=2, sends={2: [(2, WeightOffer(1))]})
        _, metrics, _ = run_protocol(source, {1: p1, 2: _Scripted(2, log)})
        # phase 3 only drains the offer to p2; p1's wake-up for it is kept,
        # its wake-up for phase 50 is dropped when the run ends
        assert log == [
            (SOURCE, []), (1, []), (2, []),
            (SOURCE, []),
            (1, []), (2, [SOURCE]),
        ]
        assert metrics.phases == 2

    @pytest.mark.parametrize("wake", [3, 2])
    def test_wake_up_not_in_the_future_faults(self, wake):
        p1 = _Scripted(1, [], {1: ([], 3), 2: ([], wake)})
        message = f"p1 asked to wake in phase {wake} during phase 3"
        with pytest.raises(SimulationFault, match=message):
            run_protocol(_Metronome([], halt_at=5), {1: p1})

    def test_source_wake_up_faults(self):
        class Sleepy(_Metronome):
            def step(self, inbox):
                self.wake_at = 3
                return super().step(inbox)

        with pytest.raises(SimulationFault, match="S asked for a wake-up"):
            run_protocol(Sleepy([], halt_at=5), {1: _SilentNode()})

    @pytest.mark.parametrize(
        "preset,plan,woken",
        [
            (3, {}, [1, 3]),  # taken after the node's step in phase 1
            (3, {1: ([], 4)}, [1, 4]),  # that step asks for another phase
            (None, {1: ([], 4)}, [1, 4]),
        ],
        ids=["kept", "replaced in the first step", "none"],
    )
    def test_a_wake_up_set_before_the_run(self, preset, plan, woken):
        phases = []

        class Logged(_Scripted):
            def step(self, inbox):
                phases.append(self.phase)
                return super().step(inbox)

        source = _Metronome([], halt_at=5)
        p1 = Logged(1, [], plan)
        p1.wake_at = preset
        run_protocol(source, {1: p1})
        assert phases == woken
        assert p1.wake_at is None

    def test_a_wake_up_set_on_the_source_before_the_run_faults(self):
        source = _Metronome([], halt_at=5)
        source.wake_at = 2
        with pytest.raises(SimulationFault, match="^S asked for a wake-up; it steps in every phase$"):
            run_protocol(source, {1: _SilentNode()})

    @pytest.mark.parametrize("n", [5, 9, 11])
    def test_no_wake_up_is_left_after_a_run(self, n):
        # trees with childless nodes above the bottom level, which ask for
        # wake-ups in every round
        inst = gen_random(GenParams(6, n, 50, 50, 1, 100, seed=n))
        protocol = PROTOCOLS["tree"]
        source = protocol.source(inst, protocol)
        processors = {j: protocol.processor(inst, j, protocol) for j in range(1, n + 1)}
        assert any(p.needs_wake for p in processors.values())
        run_protocol(source, processors)
        assert [node.wake_at for node in [source, *processors.values()]] == [None] * (n + 1)

    def test_steps_within_a_phase_run_in_ascending_id_order(self):
        log = []
        nodes = {
            1: _Scripted(1, log, {2: ([], 3)}),
            2: _Scripted(2, log),
            3: _Scripted(3, log, {1: ([], 3)}),
            4: _Scripted(
                4, log, {1: ([(1, CapacityReport(2)), (3, CapacityReport(1))], 2),
                         2: ([(2, CapacityReport(3))], None)}
            ),
        }
        run_protocol(_Metronome(log, halt_at=3), nodes)
        # phase 2: mail for p1 and p3, p4 woken; phase 3: mail for p2, p3 and
        # p1 woken (asked for in that order)
        assert [j for j, _ in log] == [0, 1, 2, 3, 4, 0, 1, 3, 4, 0, 1, 2, 3]

    def test_tree_steps_only_nodes_with_mail_or_a_wake_up(self, monkeypatch):
        import mkpsim.algorithms as algorithms

        steps = 0
        engine = algorithms.run_protocol

        def counted(source, processors, **kwargs):
            def counting(step):
                def wrapped(inbox):
                    nonlocal steps
                    steps += 1
                    return step(inbox)
                return wrapped

            for node in [source, *processors.values()]:
                node.step = counting(node.step)
            return engine(source, processors, **kwargs)

        monkeypatch.setattr(algorithms, "run_protocol", counted)
        inst = gen_random(GenParams(50, 100, 50, 50, 1, 100, seed=1))
        run = algorithms.run_algorithm("tree", inst)
        assert (run.phases, run.messages, run.changed_knapsacks) == (450, 10050, ())
        # 450 source steps (9 phases per round, 50 rounds); 100 processor
        # steps in phase 1; per round 100 offers, 50 nodes with children
        # hearing their pairs and the 13 childless nodes p51..p63 one level
        # above the bottom woken to send theirs; 50 awards
        assert steps == 450 + 100 + 50 * (100 + 50 + 13) + 50 == 8750


# A plan maps (node id, phase) to what the node does if it steps in that
# phase: its sends and the phase it asks to be woken in, or None.


def _pairs(inbox):
    return [(d.sender, d.payload) for d in inbox]


class _PlannedSource(SourceNode):
    """Follows the plan in every phase, logging (phase, S) and its inbox as
    (sender, payload) pairs, and halts in phase ``halt_at``."""

    def __init__(self, plan, log, halt_at):
        self.plan, self.log, self.halt_at = plan, log, halt_at

    def step(self, inbox):
        self.log.append(((self.phase, SOURCE), _pairs(inbox)))
        self.halted = self.phase == self.halt_at
        return self.plan.get((SOURCE, self.phase), ([], None))[0]

    def recorded_assignment(self):
        return None


class _Planned(Node):
    """Follows the plan, logging (phase, id) and the inbox, as (sender,
    payload) pairs, for each step.  It also works out the phase on its own,
    from its mail, which must all be from the phase before, else as phase 1
    on its first step, else as its earliest wake-up past its last step: a
    step with none of them has no phase under the stepping rule and fails
    the run, as does a step whose phase the engine set otherwise."""

    def __init__(self, j, plan, log):
        self.j, self.plan, self.log = j, plan, log
        self.last = 0  # the phase of its last step, 0 before the first
        self.asked = []

    def step(self, inbox):
        if inbox:
            phase = inbox[0].phase + 1
            assert {d.phase for d in inbox} == {phase - 1}, f"p{self.j} read stale mail"
        elif self.last == 0:
            phase = 1
        else:
            phase = min((w for w in self.asked if w > self.last), default=None)
            assert phase is not None, f"p{self.j} stepped with no mail and no wake-up"
        assert self.phase == phase, f"p{self.j} stepped in phase {self.phase}, not {phase}"
        self.last = phase
        self.log.append(((phase, self.j), _pairs(inbox)))
        sends, wake = self.plan.get((self.j, phase), ([], None))
        if wake is not None:
            self.wake_at = wake
            self.asked.append(wake)
        return sends


def _planned_run(n, halt_at, plan):
    """The (phase, id) steps of a planned run through the engine, each with
    the inbox it read as (sender, payload) pairs."""
    log = []
    nodes = {j: _Planned(j, plan, log) for j in range(1, n + 1)}
    run_protocol(_PlannedSource(plan, log, halt_at), nodes)
    return log


def _stepping_rule(n, halt_at, plan):
    """The same steps and inboxes from the module docstring's rule alone: S
    steps in every phase until it halts; a processor steps in phase 1, then
    only in a phase in which it has mail or asked to be woken.  Each send
    is fanned out to its recipients one at a time, in the order the nodes
    step and emit; a ``PEERS`` send goes to every processor but its sender.
    The run ends with the first phase from the halt on in which nobody
    sends."""
    mail = {}  # phase -> {id: the (sender, payload) pairs it reads then}
    woken = {1: set(range(1, n + 1))}  # phase -> ids woken in it
    steps = []
    phase = 0
    while True:
        phase += 1
        boxes = mail.pop(phase, {})
        stepping = set(boxes) | woken.pop(phase, set())
        if phase <= halt_at:
            stepping.add(SOURCE)
        sent = False
        for j in sorted(stepping):
            steps.append(((phase, j), boxes.get(j, [])))
            sends, wake = plan.get((j, phase), ([], None))
            for recipient, payload in sends:
                ids = [k for k in range(1, n + 1) if k != j] if recipient is PEERS else [recipient]
                for k in ids:
                    mail.setdefault(phase + 1, {}).setdefault(k, []).append((j, payload))
                    sent = True
            if wake is not None:
                woken.setdefault(wake, set()).add(j)
        if phase >= halt_at and not sent:
            return steps


@st.composite
def _plans(draw):
    """(n, halt phase, plan) for a legal run: random unicasts, ``PEERS``
    sends from S and from processors, messages to S, wake-ups and silent
    steps.  Nobody sends after the halt phase or to S in it, each node's
    sends come in recipient order, S or a processor with a peer sends
    ``PEERS`` last and to no processor else, and each send of a node in a
    phase has its own payload."""
    n = draw(st.integers(min_value=1, max_value=5))
    halt_at = draw(st.integers(min_value=1, max_value=5))
    plan = {}
    for phase in range(1, halt_at + 3):
        for j in range(n + 1):
            if not draw(st.booleans()):
                continue  # a silent step, if the node steps at all
            sends = []
            if phase <= halt_at:
                allowed = [k for k in range(n + 1) if k != j and (k or phase < halt_at)]
                peers = (j == SOURCE or n > 1) and draw(st.booleans())
                if peers:  # then a node's only other send may go to S
                    allowed = [k for k in allowed if k == SOURCE]
                recipients = sorted(draw(st.sets(st.sampled_from(allowed)))) if allowed else []
                for k in recipients:
                    sends.append((k, WeightOffer(10 * phase + len(sends))))
                if peers:
                    sends.append((PEERS, WeightOffer(10 * phase + len(sends))))
            wake = None
            if j != SOURCE and draw(st.booleans()):
                wake = draw(st.integers(min_value=phase + 1, max_value=halt_at + 3))
            plan[j, phase] = (sends, wake)
    return n, halt_at, plan


class TestSchedulerDifferential:
    @settings(max_examples=300, deadline=None)
    @given(_plans())
    def test_steps_follow_the_stepping_rule(self, case):
        n, halt_at, plan = case
        assert _planned_run(n, halt_at, plan) == _stepping_rule(n, halt_at, plan)

    @pytest.mark.parametrize(
        "n,halt_at,plan,steps",
        [
            # S's PEERS record and p4's unicast land in p2's box
            (4, 2,
             {(SOURCE, 1): ([(PEERS, WeightOffer(1))], None),
              (4, 1): ([(2, CapacityReport(4))], None)},
             [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (2, 0), (2, 1), (2, 2), (2, 3), (2, 4)]),
            # a phase of unicasts only, right after a PEERS phase
            (3, 3,
             {(SOURCE, 1): ([(PEERS, WeightOffer(1))], None),
              (SOURCE, 2): ([(3, WeightOffer(2))], None),
              (1, 2): ([(2, CapacityReport(1))], None)},
             [(1, 0), (1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (2, 2), (2, 3),
              (3, 0), (3, 2), (3, 3)]),
            # a wake-up with no mail: p1 steps in phase 3 on an empty inbox
            (2, 4,
             {(1, 1): ([], 3), (1, 3): ([(SOURCE, CapacityReport(1))], None)},
             [(1, 0), (1, 1), (1, 2), (2, 0), (3, 0), (3, 1), (4, 0)]),
            # a wake-up in a phase that also brings mail steps p1 once
            (2, 4,
             {(1, 1): ([], 3), (SOURCE, 2): ([(1, WeightOffer(2))], None)},
             [(1, 0), (1, 1), (1, 2), (2, 0), (3, 0), (3, 1), (4, 0)]),
            # mail for S, and a drain phase after the halt
            (2, 2,
             {(2, 1): ([(SOURCE, CapacityReport(2))], None),
              (SOURCE, 2): ([(PEERS, WeightOffer(2))], None)},
             [(1, 0), (1, 1), (1, 2), (2, 0), (3, 1), (3, 2)]),
        ],
        ids=["PEERS and unicast in one box", "unicasts after a PEERS phase",
             "wake-up without mail", "wake-up with mail", "mail for S and a drain"],
    )
    def test_named_cases(self, n, halt_at, plan, steps):
        run = _planned_run(n, halt_at, plan)
        assert run == _stepping_rule(n, halt_at, plan)
        assert [step for step, _ in run] == steps

    W1, W2, W3 = WeightOffer(1), WeightOffer(2), WeightOffer(3)

    @pytest.mark.parametrize(
        "n,plan,inboxes",
        [
            (3,
             {(2, 1): ([(PEERS, W1)], None)},
             {1: [(2, W1)], 3: [(2, W1)]}),
            (3,
             {(SOURCE, 1): ([(1, W1)], None), (2, 1): ([(PEERS, W2)], None)},
             {1: [(SOURCE, W1), (2, W2)], 3: [(2, W2)]}),
            (3,
             {(1, 1): ([(PEERS, W1)], None), (2, 1): ([(PEERS, W2)], None),
              (3, 1): ([(2, W3)], None)},
             {1: [(2, W2)], 2: [(1, W1), (3, W3)], 3: [(1, W1), (2, W2)]}),
            (3,
             {(SOURCE, 1): ([(PEERS, W1)], None), (1, 1): ([(PEERS, W2)], None)},
             {1: [(SOURCE, W1)], 2: [(SOURCE, W1), (1, W2)], 3: [(SOURCE, W1), (1, W2)]}),
            (2,
             {(1, 1): ([(SOURCE, W1), (PEERS, W2)], None)},
             {2: [(1, W2)]}),
        ],
        ids=["a lone broadcaster", "after S's unicast", "around a higher sender's unicast",
             "after S's PEERS send", "after a unicast to S"],
    )
    def test_named_broadcast_cases(self, n, plan, inboxes):
        # the processors' inboxes in phase 2, after the broadcasts of phase 1:
        # each holds every broadcast but its own, in sender order with its
        # direct mail; a processor whose inbox is empty does not step
        run = _planned_run(n, 2, plan)
        assert run == _stepping_rule(n, 2, plan)
        assert {j: pairs for (phase, j), pairs in run if phase == 2 and j != SOURCE} == inboxes

    @pytest.mark.parametrize(
        "n,plan,message",
        [
            (1, {(1, 1): ([(PEERS, W1)], None)}, "p1 sent to its peers, but it has none"),
            (3, {(SOURCE, 1): ([(1, W1), (PEERS, W2)], None)},
             "S sent to p1 by a multicast and another send in one phase"),
            (3, {(2, 1): ([(3, W1), (PEERS, W2)], None)},
             "p2 sent to p3 by a multicast and another send in one phase"),
        ],
        ids=["no peers", "from S after a unicast", "after a send to a processor"],
    )
    def test_named_broadcast_faults(self, n, plan, message):
        with pytest.raises(SimulationFault, match=f"^{re.escape(message)}$"):
            _planned_run(n, 2, plan)


_PAYLOADS = [
    (CapacityReport(5), "CapacityReport(capacity=5)"),
    (ItemOffer(8, 4), "ItemOffer(cost=8, weight=4)"),
    (WeightOffer(5), "WeightOffer(weight=5)"),
    (Bottom(), "Bottom()"),
    (ConsensusPair(2, None), "ConsensusPair(best=2, capacity=None)"),
    (Winner(5), "Winner(processor=5)"),
    (FinalDirective(2, 7), "FinalDirective(item=2, weight=7)"),
]


class TestPayloadAndRecordContract:
    @pytest.mark.parametrize("payload,text", _PAYLOADS, ids=[t for _, t in _PAYLOADS])
    def test_repr_equality_and_hash(self, payload, text):
        assert repr(payload) == text
        twin = type(payload)(**vars(payload))
        assert twin is not payload
        assert twin == payload and hash(twin) == hash(payload)

    def test_payloads_of_different_classes_with_equal_fields_differ(self):
        assert CapacityReport(5) != WeightOffer(5)
        kinds = [type(payload) for payload, _ in _PAYLOADS]
        pairs = 0
        for a in kinds:
            for b in kinds:
                arity = len(a.__dataclass_fields__)
                if a is not b and arity == len(b.__dataclass_fields__) > 0:
                    values = range(1, arity + 1)
                    assert a(*values) != b(*values)
                    pairs += 1
        assert pairs == 12  # three one-field and three two-field classes, both ways

    @pytest.mark.parametrize("alg", ["simple", "dist", "tree"])
    def test_records_of_a_traced_run_match_constructed_ones(self, alg):
        trace = run_algorithm(alg, gen_random(GenParams(6, 5, 50, 50, 1, 100, seed=2))).trace
        assert any(type(d.recipient) is range for d in trace) == (alg != "simple")
        for d in trace:
            assert type(d) is Delivery
            fields = [getattr(d, name) for name in Delivery.__slots__]  # all four set
            assert repr(d) == repr(Delivery(*fields))


class TestMetricsAndRendering:
    def test_empty_trace_metrics(self):
        assert metrics_of(()) == RunMetrics(0, 0)
        assert per_phase_of(()) == ()

    def test_metrics_of_counts_by_send_phase(self):
        trace = (
            Delivery(1, SOURCE, 1, WeightOffer(2)),
            Delivery(1, SOURCE, 2, WeightOffer(2)),
            Delivery(3, 1, SOURCE, Winner(1)),
        )
        assert metrics_of(trace) == RunMetrics(3, 3)
        assert per_phase_of(trace) == ((1, 2), (3, 1))

    def test_metrics_of_counts_each_recipient_of_a_multicast(self):
        trace = (
            Delivery(1, SOURCE, range(1, 4), WeightOffer(2)),
            Delivery(2, 2, range(1, 2), ConsensusPair(2, 5)),
            Delivery(2, 2, range(3, 4), ConsensusPair(2, 5)),
            Delivery(3, 1, SOURCE, Winner(1)),
        )
        assert metrics_of(trace) == RunMetrics(6, 3)
        assert per_phase_of(trace) == ((1, 3), (2, 2), (3, 1))
        assert [(d[0], d[2]) for d in deliveries(trace)] == [
            (1, 1), (1, 2), (1, 3), (2, 1), (2, 3), (3, SOURCE),
        ]

    def test_node_names(self):
        assert node_name(SOURCE) == "S"
        assert node_name(4) == "p4"

    @pytest.mark.parametrize(
        "payload,text",
        [
            (CapacityReport(7), "capacity 7"),
            (ItemOffer(8, 4), "item 8 4"),
            (WeightOffer(7), "weight 7"),
            (Bottom(), "bottom"),
            (ConsensusPair(2, 9), "pair 2 9"),
            (ConsensusPair(2, None), "pair 2 -"),
            (ConsensusPair(None, None), "pair - -"),
            (Winner(2), "winner 2"),
            (FinalDirective(2, 7), "final 2:7"),
        ],
    )
    def test_payload_rendering(self, payload, text):
        assert render_payload(payload) == text

    @pytest.mark.parametrize("payload", ["weight 3", None, (1, 2)], ids=repr)
    def test_payload_rendering_refuses_an_unknown_payload(self, payload):
        with pytest.raises(TypeError, match=f"^{re.escape(f'unknown payload {payload!r}')}$"):
            render_payload(payload)

    def test_trace_rendering_format(self):
        trace = (Delivery(3, 2, SOURCE, Winner(2)),)
        assert render_trace(trace) == "3 p2 S winner 2\n"
        assert render_trace(()) == ""


def render_by_line(trace):
    """The trace renderer restated one delivery at a time, a multicast record
    expanded to its recipients and each payload rendered once per object:
    the reference for :func:`render_trace`."""
    texts = {}
    lines = []
    for phase, sender, recipient, payload in deliveries(trace):
        text = texts.get(id(payload))
        if text is None:
            text = texts[id(payload)] = render_payload(payload)
        lines.append(f"{phase} {node_name(sender)} {node_name(recipient)} {text}")
    return "\n".join(lines) + ("\n" if lines else "")


@st.composite
def hand_built_traces(draw):
    """Records over a small pool of payload objects, in groups of four
    shapes: a run of unicasts, one multicast over a range of ids, a
    broadcast to processors 1..n split around its sender into two ranges,
    and one range that holds its sender and another id (a ``PEERS``
    record's shape).
    The pool holds distinct objects of equal value, and a group may reuse
    any object, so groups meet with the same payload under another phase,
    sender or shape, and objects recur at non-adjacent positions.  Ids go
    up to 4 or to a few hundred, in any order, so a record may name an id
    past every one before it as its sender, as a unicast recipient or at
    either end of a range."""
    pool = [
        WeightOffer(3),
        WeightOffer(3),
        ConsensusPair(2, None),
        ConsensusPair(None, None),
        ConsensusPair(2, 5),
        FinalDirective(1, 4),
        FinalDirective(1, 4),
        Winner(1),
        Bottom(),
        CapacityReport(0),
        ItemOffer(8, 4),
    ]
    ids = st.integers(0, draw(st.sampled_from([4, 300])))
    unicasts = st.lists(ids, min_size=1, max_size=4)
    multicast = st.builds(lambda lo, k: [range(lo, lo + k)], ids, st.integers(1, 40))
    records = []
    for _ in range(draw(st.integers(0, 8))):
        phase, sender = draw(st.integers(1, 3)), draw(ids)
        payload = draw(st.sampled_from(pool))
        shape = draw(st.sampled_from(["unicasts", "multicast", "split", "holding"]))
        if shape == "unicasts":
            recipients = draw(unicasts)
        elif shape == "multicast":  # any range but the sender alone, which reaches nobody
            recipients = draw(multicast.filter(lambda rs, s=sender: rs[0] != range(s, s + 1)))
        elif shape == "split":
            n = draw(st.integers(max(sender, 1), sender + 6))
            recipients = [r for r in (range(1, sender), range(sender + 1, n + 1)) if r]
        else:
            start = draw(st.integers(max(sender - 6, 0), sender))
            stop = draw(st.integers(sender + 1 + (start == sender), sender + 7))
            recipients = [range(start, stop)]
        records += [Delivery(phase, sender, r, payload) for r in recipients]
    return tuple(records)


class TestRenderDifferential:
    @given(hand_built_traces())
    def test_matches_line_by_line_rendering(self, trace):
        assert render_trace(trace) == render_by_line(trace)

    def test_named_shapes(self):
        offer, twin, final = WeightOffer(3), WeightOffer(3), FinalDirective(7, 2)
        pair = ConsensusPair(1, 4)
        shapes = {
            "empty": (),
            "reused at non-adjacent positions": (
                Delivery(1, SOURCE, 1, offer),
                Delivery(1, SOURCE, 2, twin),
                Delivery(1, SOURCE, 3, offer),
            ),
            "one object, two senders, one phase": (
                Delivery(2, 1, 2, pair),
                Delivery(2, 1, 3, pair),
                Delivery(2, 2, 1, pair),
                Delivery(2, 2, 3, pair),
            ),
            "equal values, distinct objects": (
                Delivery(1, SOURCE, 1, offer),
                Delivery(1, SOURCE, 2, twin),
            ),
            "broken only by the phase": (
                Delivery(1, SOURCE, 1, offer),
                Delivery(2, SOURCE, 1, offer),
                Delivery(2, SOURCE, 2, offer),
            ),
            "final directive": (
                Delivery(4, SOURCE, 1, final),
                Delivery(4, SOURCE, 2, final),
            ),
            "a high id first": (
                Delivery(1, SOURCE, 250, offer),
                Delivery(1, SOURCE, 3, offer),
            ),
            "a sender past every id before it": (
                Delivery(1, SOURCE, 2, offer),
                Delivery(2, 300, 1, pair),
                Delivery(2, 301, range(1, 3), pair),
            ),
            # the recipients' names depend on the range as well as the sender
            "one sender, two ranges, holding it in one": (
                Delivery(2, 4, range(1, 4), pair),
                Delivery(5, 4, range(1, 6), pair),
                Delivery(8, 4, range(1, 4), pair),
            ),
        }
        for name, trace in shapes.items():
            assert render_trace(trace) == render_by_line(trace), name
        assert render_trace(shapes["final directive"]) == "4 S p1 final 7:2\n4 S p2 final 7:2\n"
        assert render_trace(shapes["one sender, two ranges, holding it in one"]) == "".join(
            f"{phase} p4 p{k} pair 1 4\n" for phase, ks in ((2, (1, 2, 3)), (5, (1, 2, 3, 5)),
                                                           (8, (1, 2, 3))) for k in ks
        )
        assert render_trace(shapes["a sender past every id before it"]).endswith(
            "2 p301 p1 pair 1 4\n2 p301 p2 pair 1 4\n"
        )

    def test_named_multicast_shapes(self):
        offer, pair, final = WeightOffer(3), ConsensusPair(1, 4), FinalDirective(7, 2)
        shapes = {
            "one recipient": (Delivery(1, SOURCE, range(2, 3), offer),),
            "split around the sender": (
                Delivery(2, 3, range(1, 3), pair),
                Delivery(2, 3, range(4, 6), pair),
            ),
            "holding the sender": (Delivery(2, 3, range(1, 6), pair),),
            "holding the sender first and last": (
                Delivery(2, 1, range(1, 4), pair),
                Delivery(2, 3, range(1, 4), pair),
            ),
            "unicasts and a multicast of one object": (
                Delivery(1, SOURCE, 1, offer),
                Delivery(1, SOURCE, range(2, 4), offer),
                Delivery(2, SOURCE, 1, offer),
            ),
            "to the source": (Delivery(3, 2, range(0, 2), pair),),
            "past every id before it": (
                Delivery(1, SOURCE, range(1, 3), offer),
                Delivery(2, 2, range(250, 253), pair),
            ),
            "final directive": (Delivery(4, SOURCE, range(1, 3), final),),
        }
        for name, trace in shapes.items():
            assert render_trace(trace) == render_by_line(trace), name
        assert render_trace(shapes["split around the sender"]) == "".join(
            f"2 p3 p{k} pair 1 4\n" for k in (1, 2, 4, 5)
        )
        assert render_trace(shapes["holding the sender"]) == render_trace(
            shapes["split around the sender"]
        )
        assert render_trace(shapes["final directive"]) == "4 S p1 final 7:2\n4 S p2 final 7:2\n"

    @pytest.mark.parametrize("alg", ["simple", "modified", "dist", "tree"])
    def test_matches_on_protocol_traces(self, alg):
        for inst in (
            gen_random(GenParams(9, 5, 30, 20, 1, 40, seed=1)),
            gen_random(GenParams(20, 7, 30, 20, 1, 40, seed=2)),
            gen_adversarial(3, 10),  # the final pass rewrites every knapsack
        ):
            trace = run_algorithm(alg, inst).trace
            assert render_trace(trace) == render_by_line(trace)
