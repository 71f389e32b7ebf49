import pytest
from hypothesis import given, strategies as st

from mkpsim import GenParams, gen_adversarial, gen_random, run_algorithm

from mkpsim.simnet import (
    SOURCE,
    TreeLinks,
    Bottom,
    CapacityReport,
    ConsensusPair,
    Delivery,
    FinalDirective,
    ItemOffer,
    Node,
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

from conftest import metrics_of


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
        self.phase = 0
        self.echo_phase = None

    def step(self, inbox):
        self.phase += 1
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
        self.phase = 0

    def step(self, inbox):
        self.phase += 1
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

    def test_send_to_nonexistent_node_faults(self):
        class Bad(SourceNode):
            def step(self, inbox):
                return [(9, WeightOffer(1))]

            def recorded_assignment(self):
                return None

        with pytest.raises(SimulationFault, match="^S sent to nonexistent node 9$"):
            run_protocol(Bad(), {1: _SilentNode(), 2: _SilentNode()})

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
        ],
    )
    def test_a_send_breaking_several_rules_reports_the_first(self, recipient, message):
        # each send is also made after the source halted: the range check
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

        with pytest.raises(SimulationFault, match=f"^{message}$"):
            run_protocol(LastWord(), {1: Stray(), 2: _SilentNode()})

    def test_deliveries_are_ordered_by_sender_then_recipient(self):
        class Scatter(SourceNode):
            """Sends in descending recipient order, twice to p3, then halts."""

            def step(self, inbox):
                self.halted = True
                return [
                    (3, WeightOffer(1)),
                    (2, WeightOffer(2)),
                    (3, WeightOffer(3)),
                    (1, WeightOffer(4)),
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
            2: Recorder([(3, CapacityReport(6)), (1, CapacityReport(7))]),
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
        assert metrics.per_phase == ((1, 7),)
        assert [(d.sender, render_payload(d.payload)) for d in nodes[3].inboxes[1]] == [
            (SOURCE, "weight 1"),
            (SOURCE, "weight 3"),
            (1, "capacity 5"),
            (2, "capacity 6"),
        ]
        assert [d.sender for d in nodes[1].inboxes[1]] == [SOURCE, 2]
        # a recipient's inbox holds the very records the trace keeps
        assert all(any(d is t for t in trace) for d in nodes[3].inboxes[1])


class _Metronome(SourceNode):
    """Steps every phase until ``halt_at``, sending ``sends[phase]``; each
    step is logged as (node id, senders of its inbox)."""

    def __init__(self, log, halt_at, sends=None):
        self.log = log
        self.halt_at = halt_at
        self.sends = sends or {}
        self.phase = 0

    def step(self, inbox):
        self.phase += 1
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

    def test_steps_within_a_phase_run_in_ascending_id_order(self):
        log = []
        nodes = {
            1: _Scripted(1, log, {2: ([], 3)}),
            2: _Scripted(2, log),
            3: _Scripted(3, log, {1: ([], 3)}),
            4: _Scripted(
                4, log, {1: ([(3, CapacityReport(1)), (1, CapacityReport(2))], 2),
                         2: ([(2, CapacityReport(3))], None)}
            ),
        }
        run_protocol(_Metronome(log, halt_at=3), nodes)
        # phase 2: mail for p3 and p1, p4 woken; phase 3: mail for p2, p3 and
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


class TestMetricsAndRendering:
    def test_empty_trace_metrics(self):
        metrics = metrics_of(())
        assert metrics.messages == 0 and metrics.phases == 0
        assert metrics.per_phase == ()

    def test_metrics_of_counts_by_send_phase(self):
        trace = (
            Delivery(1, SOURCE, 1, WeightOffer(2)),
            Delivery(1, SOURCE, 2, WeightOffer(2)),
            Delivery(3, 1, SOURCE, Winner(1)),
        )
        metrics = metrics_of(trace)
        assert metrics.messages == 3
        assert metrics.phases == 3
        assert metrics.per_phase == ((1, 2), (3, 1))

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
            (FinalDirective(((2, 7), (5, 3))), "final 2:7 5:3"),
        ],
    )
    def test_payload_rendering(self, payload, text):
        assert render_payload(payload) == text

    def test_trace_rendering_format(self):
        trace = (Delivery(3, 2, SOURCE, Winner(2)),)
        assert render_trace(trace) == "3 p2 S winner 2\n"
        assert render_trace(()) == ""


def render_by_line(trace):
    """The trace renderer restated one delivery at a time, each payload
    rendered once per object: the reference for :func:`render_trace`."""
    texts = {}
    lines = []
    for d in trace:
        text = texts.get(id(d.payload))
        if text is None:
            text = texts[id(d.payload)] = render_payload(d.payload)
        lines.append(f"{d.phase} {node_name(d.sender)} {node_name(d.recipient)} {text}")
    return "\n".join(lines) + ("\n" if lines else "")


@st.composite
def hand_built_traces(draw):
    """Runs of deliveries over a small pool of payload objects: the pool
    holds distinct objects of equal value and ``FinalDirective(())``, and a
    run may reuse any object, so runs meet with the same payload under
    another phase or sender, and objects recur at non-adjacent positions."""
    pool = [
        WeightOffer(3),
        WeightOffer(3),
        ConsensusPair(2, None),
        ConsensusPair(None, None),
        ConsensusPair(2, 5),
        FinalDirective(()),
        FinalDirective(((1, 4), (7, 2))),
        Winner(1),
        Bottom(),
        CapacityReport(0),
        ItemOffer(8, 4),
    ]
    run = st.tuples(
        st.integers(1, 3),  # phase
        st.integers(0, 4),  # sender
        st.sampled_from(pool),
        st.lists(st.integers(0, 4), min_size=1, max_size=4),  # recipients
    )
    return tuple(
        Delivery(phase, sender, recipient, payload)
        for phase, sender, payload, recipients in draw(st.lists(run, max_size=8))
        for recipient in recipients
    )


class TestRenderDifferential:
    @given(hand_built_traces())
    def test_matches_line_by_line_rendering(self, trace):
        assert render_trace(trace) == render_by_line(trace)

    def test_named_shapes(self):
        offer, twin, final = WeightOffer(3), WeightOffer(3), FinalDirective(())
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
            "empty final directive": (
                Delivery(4, SOURCE, 1, final),
                Delivery(4, SOURCE, 2, final),
            ),
        }
        for name, trace in shapes.items():
            assert render_trace(trace) == render_by_line(trace), name
        assert render_trace(shapes["empty final directive"]) == "4 S p1 final\n4 S p2 final\n"

    @pytest.mark.parametrize("alg", ["simple", "modified", "dist", "tree"])
    def test_matches_on_protocol_traces(self, alg):
        for inst in (
            gen_random(GenParams(9, 5, 30, 20, 1, 40, seed=1)),
            gen_random(GenParams(20, 7, 30, 20, 1, 40, seed=2)),
            gen_adversarial(3, 10),  # the final pass rewrites every knapsack
        ):
            trace = run_algorithm(alg, inst).trace
            assert render_trace(trace) == render_by_line(trace)
