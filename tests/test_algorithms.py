import hashlib
import random
import re
from dataclasses import replace

import pytest
from hypothesis import example, given, settings, strategies as st

from mkpsim import (
    ALGORITHMS,
    Assignment,
    DomainError,
    GenParams,
    Instance,
    check_feasible,
    final_reassign,
    gen_adversarial,
    gen_random,
    render_trace,
    run_algorithm,
)
from mkpsim.algorithms import (
    _BOTTOM,
    _NO_PAIR,
    PROTOCOLS,
    BatchProcessor,
    BroadcastProcessor,
    TreeProcessor,
    _check_run,
)
from mkpsim.oracle import batch_round_greedy, strict_sequential_greedy
from mkpsim.simnet import (
    PEERS,
    SOURCE,
    Bottom,
    CapacityReport,
    ConsensusPair,
    Delivery,
    FinalDirective,
    SimulationFault,
    WeightOffer,
    Winner,
    run_protocol,
)

from conftest import deliveries, items_by_knapsack, metrics_of, small_instances


def placement(result):
    return dict(sorted(result.assignment.placement.items()))


class TestFinalReassign:
    def test_empty_pool_is_a_no_op(self):
        # every item is placed, so the pool is empty, although a lone item
        # (cost 9) would beat knapsack 0's contents (cost 5) were it free
        inst = Instance.from_pairs([(2, 1), (3, 1), (9, 2)], [2, 2])
        assignment = Assignment.empty(inst)
        assignment.assign(inst, 0, 0)
        assignment.assign(inst, 1, 0)
        assignment.assign(inst, 2, 1)
        out, changed = final_reassign(assignment, inst)
        assert changed == ()
        assert out == assignment

    def test_family_swaps_every_knapsack(self):
        fam = gen_adversarial(2, 10)
        assignment = Assignment.empty(fam)
        assignment.assign(fam, 0, 0)
        assignment.assign(fam, 1, 1)
        out, changed = final_reassign(assignment, fam)
        assert changed == (0, 1)
        assert items_by_knapsack(out, fam) == [[2], [3]]
        assert sum(fam.item(i).cost for i in out.assigned_items()) == 20

    def test_instance_a_after_strict_greedy(self, instance_a):
        greedy = strict_sequential_greedy(instance_a)
        assert greedy.profit == 17
        out, changed = final_reassign(greedy.assignment, instance_a)
        assert changed == (1,)
        assert items_by_knapsack(out, instance_a)[1] == [2]  # 7 beats the 6 it held
        assert sum(instance_a.item(i).cost for i in out.assigned_items()) == 18

    def test_evicted_items_stay_available_to_later_knapsacks(self):
        inst = Instance.from_pairs([(3, 4), (10, 5)], [5, 4])
        assignment = Assignment.empty(inst)
        assignment.assign(inst, 0, 0)
        out, changed = final_reassign(assignment, inst)
        assert changed == (0, 1)
        assert items_by_knapsack(out, inst) == [[1], [0]]  # the evicted item found a new home

    def test_cost_ties_pick_the_smallest_id(self):
        inst = Instance.from_pairs([(5, 2), (5, 1)], [3])
        out, changed = final_reassign(Assignment.empty(inst), inst)
        assert changed == (0,)
        assert items_by_knapsack(out, inst) == [[0]]

    def test_equal_profit_keeps_current_contents(self):
        inst = Instance.from_pairs([(5, 1), (5, 1)], [1])
        assignment = Assignment.empty(inst)
        assignment.assign(inst, 1, 0)
        out, changed = final_reassign(assignment, inst)
        assert changed == ()
        assert items_by_knapsack(out, inst) == [[1]]

    def test_profit_never_decreases(self, instance_a):
        greedy = strict_sequential_greedy(instance_a)
        out, _ = final_reassign(greedy.assignment, instance_a)
        total = sum(instance_a.item(i).cost for i in out.assigned_items())
        assert total >= greedy.profit


def reassign_by_rescanning(assignment, inst):
    """The reassignment pass restated quadratically: for every knapsack,
    scan the whole pool in id order for the best fitting item and recount
    the knapsack's contents from the placement."""
    placement = dict(assignment.placement)
    pool = {i for i, k in placement.items() if k is None}
    changed = []
    for j, cap in enumerate(inst.capacities):
        best = None
        for i in sorted(pool):
            item = inst.items[i]
            if item.weight <= cap and (best is None or item.cost > best.cost):
                best = item
        if best is None:
            continue
        held = [i for i, k in placement.items() if k == j]
        if best.cost > sum(inst.items[i].cost for i in held):
            for i in held:
                placement[i] = None
            placement[best.id] = j
            pool.remove(best.id)
            pool.update(held)
            changed.append(j)
    remaining = [
        cap - sum(inst.items[i].weight for i, k in placement.items() if k == j)
        for j, cap in enumerate(inst.capacities)
    ]
    return placement, remaining, tuple(changed)


def assert_reassign_matches_rescan(inst, assignment):
    out, changed = final_reassign(assignment, inst)
    assert (out.placement, out.remaining, changed) == reassign_by_rescanning(
        assignment, inst
    )
    return out, changed


@st.composite
def reassign_cases(draw):
    """Small instances with zero capacities and repeated costs, and a
    feasible partial assignment."""
    n = draw(st.integers(1, 4))
    caps = draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
    pairs = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(1, 8)), max_size=12))
    inst = Instance.from_pairs(pairs, caps)
    assignment = Assignment.empty(inst)
    for item in inst.items:
        j = draw(st.none() | st.integers(0, n - 1))
        if j is not None and item.weight <= assignment.remaining[j]:
            assignment.assign(inst, item.id, j)
    return inst, assignment


@st.composite
def eviction_heavy_cases(draw):
    """Several cheap light items packed first-fit into each knapsack, a pool
    of dearer items, costs that tie across the two, and capacities in
    descending order, so that swaps evict items a later, smaller knapsack
    may pick."""
    n = draw(st.integers(2, 5))
    caps = sorted(draw(st.lists(st.integers(1, 12), min_size=n, max_size=n)), reverse=True)
    held = st.tuples(st.integers(1, 3), st.integers(1, 3))
    free = st.tuples(st.integers(1, 8), st.integers(1, 12))
    tagged = draw(
        st.permutations(
            [(pair, True) for pair in draw(st.lists(held, min_size=n, max_size=4 * n))]
            + [(pair, False) for pair in draw(st.lists(free, min_size=1, max_size=3 * n))]
        )
    )
    inst = Instance.from_pairs([pair for pair, _ in tagged], caps)
    assignment = Assignment.empty(inst)
    for item, (_, packed) in zip(inst.items, tagged):
        fits = [j for j in range(n) if item.weight <= assignment.remaining[j]]
        if packed and fits:
            assignment.assign(inst, item.id, fits[0])
    return inst, assignment


class TestReassignDifferential:
    @settings(max_examples=200, deadline=None)
    @given(reassign_cases())
    def test_matches_quadratic_restatement(self, case):
        assert_reassign_matches_rescan(*case)

    @settings(max_examples=300, deadline=None)
    @given(eviction_heavy_cases())
    def test_matches_quadratic_restatement_when_evicting(self, case):
        assert_reassign_matches_rescan(*case)

    @settings(max_examples=200, deadline=None)
    @given(reassign_cases())
    def test_input_is_left_unchanged(self, case):
        # a run keeps its dispatch record itself as the pre-final snapshot
        inst, assignment = case
        placement, remaining = dict(assignment.placement), list(assignment.remaining)
        out, _ = final_reassign(assignment, inst)
        assert (assignment.placement, assignment.remaining) == (placement, remaining)
        assert out.placement is not assignment.placement
        assert out.remaining is not assignment.remaining

    def test_cost_tie_goes_to_the_smallest_id(self):
        inst = Instance.from_pairs([(1, 1), (7, 5), (7, 2), (7, 3)], [5, 3])
        out, changed = assert_reassign_matches_rescan(inst, Assignment.empty(inst))
        assert changed == (0, 1)
        assert items_by_knapsack(out, inst) == [[1], [2]]

    def test_equal_profit_keeps_the_current_contents(self):
        inst = Instance.from_pairs([(3, 1), (2, 1), (5, 2)], [2])
        assignment = Assignment.empty(inst)
        assignment.assign(inst, 0, 0)
        assignment.assign(inst, 1, 0)
        out, changed = assert_reassign_matches_rescan(inst, assignment)
        assert changed == () and items_by_knapsack(out, inst) == [[0, 1]]

    def test_zero_capacity_knapsacks_are_skipped(self):
        inst = Instance.from_pairs([(4, 1), (9, 2)], [0, 2, 0])
        out, changed = assert_reassign_matches_rescan(inst, Assignment.empty(inst))
        assert changed == (1,) and items_by_knapsack(out, inst) == [[], [1], []]

    def test_evicted_items_go_to_later_knapsacks_in_cost_order(self):
        # knapsack 0 evicts three items; knapsacks 1 and 2 take the two
        # best of them, and knapsack 3 the best item that was never placed
        inst = Instance.from_pairs(
            [(3, 2), (4, 2), (4, 2), (20, 9), (1, 1)], [9, 2, 2, 1]
        )
        assignment = Assignment.empty(inst)
        for i in (0, 1, 2):
            assignment.assign(inst, i, 0)
        out, changed = assert_reassign_matches_rescan(inst, assignment)
        assert changed == (0, 1, 2, 3)
        assert items_by_knapsack(out, inst) == [[3], [1], [2], [4]]

    def test_an_evicted_item_beats_an_equal_cost_pool_item_on_its_id(self):
        # knapsack 0 evicts item 0 (cost 4); knapsack 1 must take it, not
        # the pool's item 1 of the same cost, which ranks first among the
        # items never set aside
        inst = Instance.from_pairs([(4, 2), (4, 2), (10, 5)], [5, 2])
        assignment = Assignment.empty(inst)
        assignment.assign(inst, 0, 0)
        out, changed = assert_reassign_matches_rescan(inst, assignment)
        assert changed == (0, 1)
        assert items_by_knapsack(out, inst) == [[2], [0]]

    def test_a_later_more_profitable_eviction_ranks_first(self):
        # knapsack 0 evicts item 0 (cost 3), then knapsack 1 item 1 (cost
        # 6); knapsack 2 must weigh item 1 against the pool's item 4 (cost
        # 5), not only the first eviction
        inst = Instance.from_pairs([(3, 1), (6, 1), (10, 4), (11, 5), (5, 1)], [4, 5, 1])
        assignment = Assignment.empty(inst)
        assignment.assign(inst, 0, 0)
        assignment.assign(inst, 1, 1)
        out, changed = assert_reassign_matches_rescan(inst, assignment)
        assert changed == (0, 1, 2)
        assert items_by_knapsack(out, inst) == [[2], [3], [1]]

    @staticmethod
    def count_insorts(monkeypatch):
        import mkpsim.algorithms as algorithms

        calls = []
        insort = algorithms.insort

        def counted(pool, entry):
            calls.append(entry)
            insort(pool, entry)

        monkeypatch.setattr(algorithms, "insort", counted)
        return calls

    def test_evictions_no_knapsack_could_pick_are_never_filed(self, monkeypatch):
        # the batch-wide shape: every knapsack holds a light item and
        # fillers, and swaps them for a heavy item that outranks them all
        fillers = [(1, 2 + i % 3) for i in range(60)]
        inst = Instance.from_pairs(
            [(it.cost, it.weight) for it in gen_adversarial(8, 20).items] + fillers,
            [20] * 8,
        )
        assignment = batch_round_greedy(inst).assignment
        calls = self.count_insorts(monkeypatch)
        _, changed = assert_reassign_matches_rescan(inst, assignment)
        assert changed == tuple(range(8))
        assert calls == []

    def test_evictions_are_filed_at_most_once(self, monkeypatch):
        inst = evicting_instance()
        pre = run_algorithm("modified", inst).pre_final_assignment
        calls = self.count_insorts(monkeypatch)
        _, changed = assert_reassign_matches_rescan(inst, pre)
        evicted = [i for i, k in pre.placement.items() if k in changed]
        assert 0 < len(calls) <= len(evicted)
        assert len(set(calls)) == len(calls)


class TestSimpleGreedy:
    def test_instance_a(self, instance_a):
        run = run_algorithm("simple", instance_a)
        assert placement(run) == {0: 0, 1: 1, 2: None, 3: None}
        assert run.profit == 14
        assert run.messages == 8  # 2n per round, 2 rounds
        assert run.rounds == 2
        assert run.phases == 4
        assert run.changed_knapsacks == ()

    def test_family_picks_only_light_items(self):
        for n in (1, 2, 4):
            fam = gen_adversarial(n, 10)
            run = run_algorithm("simple", fam)
            assert run.profit == 2 * n
            assert run.rounds == 2
            assert run.messages == 4 * n

    def test_empty_instance(self):
        run = run_algorithm("simple", Instance.from_pairs([], [5, 5]))
        assert run.profit == 0 and run.messages == 0 and run.rounds == 0

    def test_fewer_items_than_knapsacks_still_costs_a_full_round(self):
        inst = Instance.from_pairs([(5, 1)], [3, 9, 4])
        run = run_algorithm("simple", inst)
        assert run.rounds == 1
        assert run.messages == 6  # three reports, three dispatches
        assert placement(run) == {0: 1}  # largest capacity wins the only item

    def test_matches_batch_recomputation(self, instance_a):
        run = run_algorithm("simple", instance_a)
        assert run.assignment.placement == batch_round_greedy(instance_a).assignment.placement


class TestModifiedGreedy:
    def test_instance_a_swaps_knapsack_one(self, instance_a):
        run = run_algorithm("modified", instance_a)
        assert run.pre_final_profit == 14
        assert run.profit == 15
        assert placement(run) == {0: 0, 1: None, 2: 1, 3: None}
        assert run.changed_knapsacks == (1,)
        assert run.messages == 9  # 8 dispatch + 1 directive

    def test_family_reaches_the_heavy_items(self):
        for n, W in ((1, 3), (2, 10), (4, 100)):
            run = run_algorithm("modified", gen_adversarial(n, W))
            assert run.profit == n * W

    def test_no_op_when_everything_was_assigned(self):
        inst = Instance.from_pairs([(4, 2), (3, 2), (2, 1)], [10])
        simple = run_algorithm("simple", inst)
        modified = run_algorithm("modified", inst)
        assert simple.assignment.placement == modified.assignment.placement
        assert modified.changed_knapsacks == ()
        assert modified.messages == simple.messages


@settings(max_examples=100, deadline=None)
@given(small_instances(max_n=4))
@example(gen_adversarial(3, 10))
def test_each_directive_names_the_one_item_its_knapsack_holds(inst):
    for name, protocol in PROTOCOLS.items():
        if not protocol.reassigns:
            continue
        run = run_algorithm(name, inst)
        sent = [
            (sender, k, payload)
            for _, sender, k, payload in deliveries(run.trace)
            if type(payload) is FinalDirective
        ]
        final = items_by_knapsack(run.assignment, inst)
        expected = []
        for j in run.changed_knapsacks:
            (item,) = final[j]
            expected.append((SOURCE, j + 1, FinalDirective(item, inst.items[item].weight)))
        assert sent == expected, name


class TestDistributedGreedy:
    def test_instance_a(self, instance_a):
        run = run_algorithm("dist", instance_a)
        assert run.pre_final_profit == 17
        assert run.profit == 18
        assert placement(run) == {0: 0, 1: None, 2: 1, 3: 0}
        assert run.rounds == 4
        assert run.messages == 20  # 4 rounds of n^2, 3 winners, 1 directive
        assert run.phases == 13  # 3m + 1

    def test_unfittable_single_item_is_discarded(self):
        inst = Instance.from_pairs([(9, 8)], [5, 7])
        run = run_algorithm("dist", inst)
        assert run.profit == 0
        assert placement(run) == {0: None}
        assert run.messages == 4  # n^2 with no winner and no directive

    def test_discarded_item_that_fits_whole_knapsack_returns_in_final(self):
        # greedy fills both knapsacks before the big item's turn; the final
        # pass swaps it back in
        inst = Instance.from_pairs([(9, 3), (8, 3), (10, 4)], [4, 4])
        run = run_algorithm("dist", inst)
        assert run.pre_final_profit == 17
        assert run.profit == 19

    def test_pre_final_matches_sequential_recomputation(self, instance_a):
        run = run_algorithm("dist", instance_a)
        sequential = strict_sequential_greedy(instance_a)
        assert run.pre_final_assignment.placement == sequential.assignment.placement
        assert run.pre_final_profit == sequential.profit

    def test_single_processor_round_trip(self):
        inst = Instance.from_pairs([(5, 2), (4, 2)], [3])
        run = run_algorithm("dist", inst)
        assert placement(run) == {0: 0, 1: None}
        assert run.messages == 2 * 1 + 1  # two offers, one winner report

    def test_capacity_tie_goes_to_smallest_processor_id(self):
        inst = Instance.from_pairs([(5, 2)], [9, 9, 9])
        run = run_algorithm("dist", inst)
        assert placement(run) == {0: 0}

    # p1's send is pinned by test_capacity_exchange_missing_a_pair too
    @pytest.mark.parametrize("j", [1, 2, 3])
    def test_pair_is_one_send_to_every_peer(self, j):
        node = BroadcastProcessor(Instance.from_pairs([(5, 2)], [9, 9, 9]), j, PROTOCOLS["dist"])
        sends = node.step([Delivery(1, SOURCE, range(1, 4), WeightOffer(2))])
        assert sends == [(PEERS, ConsensusPair(j, 9))]
        assert sends[0][1] is node.my_report


class TestBroadcastProcessorFaults:
    """Each fault of one ``dist`` processor, raised from a single step."""

    @staticmethod
    def p1():
        return BroadcastProcessor(Instance.from_pairs([(5, 2)], [9, 9, 9]), 1, PROTOCOLS["dist"])

    @staticmethod
    def mail(*messages):
        return [Delivery(1, sender, 1, payload) for sender, payload in messages]

    def test_weight_offer_from_a_non_source(self):
        with pytest.raises(SimulationFault, match="^p1: weight offer from non-source$"):
            self.p1().step(self.mail((2, WeightOffer(2))))

    def test_directive_from_a_non_source(self):
        with pytest.raises(SimulationFault, match="^p1: directive from non-source$"):
            self.p1().step(self.mail((2, FinalDirective(0, 2))))

    def test_capacity_pair_from_the_source(self):
        with pytest.raises(SimulationFault, match="^p1: capacity pair from the source$"):
            self.p1().step(self.mail((SOURCE, ConsensusPair(2, 9))))

    @pytest.mark.parametrize("payload", [Winner(2), Bottom(), CapacityReport(4)])
    def test_unexpected_payload(self, payload):
        message = re.escape(f"p1: unexpected payload {payload!r}")
        with pytest.raises(SimulationFault, match=f"^{message}$"):
            self.p1().step(self.mail((SOURCE, payload)))

    @pytest.mark.parametrize(
        "messages",
        [
            [(SOURCE, WeightOffer(2)), (SOURCE, WeightOffer(3))],
            [(SOURCE, WeightOffer(2)), (2, ConsensusPair(2, 9))],
        ],
        ids=["two offers", "offer with pairs"],
    )
    def test_malformed_round_start(self, messages):
        with pytest.raises(SimulationFault, match="^p1: malformed round start$"):
            self.p1().step(self.mail(*messages))

    def test_capacity_exchange_without_an_offer(self):
        pairs = self.mail((2, ConsensusPair(2, 9)), (3, ConsensusPair(3, 9)))
        with pytest.raises(SimulationFault, match="^p1: capacity exchange out of step$"):
            self.p1().step(pairs)

    def test_capacity_exchange_missing_a_pair(self):
        node = self.p1()
        assert node.step(self.mail((SOURCE, WeightOffer(2)))) == [
            (PEERS, ConsensusPair(1, 9)),
        ]
        with pytest.raises(SimulationFault, match="^p1: capacity exchange out of step$"):
            node.step(self.mail((2, ConsensusPair(2, 9))))

    @pytest.mark.parametrize(
        "where,sender,payload,message",
        [
            (where, 3, payload, message)
            for where in (0, 1, 2)
            for payload, message in [
                (Winner(3), "unexpected payload Winner(processor=3)"),
                (WeightOffer(2), "weight offer from non-source"),
                (FinalDirective(0, 2), "directive from non-source"),
            ]
        ]
        + [  # a record from S comes first in an inbox
            (0, SOURCE, WeightOffer(2), "malformed round start"),
            (0, SOURCE, ConsensusPair(3, 9), "capacity pair from the source"),
        ],
    )
    def test_stray_record_among_the_exchange_pairs(self, where, sender, payload, message):
        node = self.p1()
        node.step(self.mail((SOURCE, WeightOffer(2))))
        pairs = [(2, ConsensusPair(2, 9)), (3, ConsensusPair(3, 9))]
        pairs.insert(where, (sender, payload))
        with pytest.raises(SimulationFault, match=f"^{re.escape('p1: ' + message)}$"):
            node.step(self.mail(*pairs))


@st.composite
def exchanges(draw):
    """p_j of a ``dist`` run over n processors, its capacity, a round's
    weight and the n - 1 pairs of its exchange, one from each other
    processor in sender order: each names any id, its sender's or not, and
    carries no capacity, a small one (so that ties are common) or a huge one."""
    n = draw(st.integers(2, 9))
    j = draw(st.integers(1, n))
    capacities = st.integers(0, 12) | st.integers(0, 10**30)
    capacity = draw(capacities)
    weight = draw(st.integers(1, 12))
    pairs = [
        ConsensusPair(draw(st.integers(1, n + 1)), draw(st.none() | capacities))
        for _ in range(n - 1)
    ]
    return n, j, capacity, weight, pairs


class TestBroadcastExchange:
    """The exchange step against ``_best_pair`` over the pairs and p_j's own."""

    @settings(max_examples=400)
    @given(exchanges())
    # another pair names p_j and beats its own, eligible and not
    @example((3, 2, 5, 3, [ConsensusPair(2, 9), ConsensusPair(3, None)]))
    @example((3, 2, 5, 7, [ConsensusPair(2, 9), ConsensusPair(3, None)]))
    # a three-way capacity tie goes to the smallest id
    @example((3, 2, 5, 3, [ConsensusPair(1, 5), ConsensusPair(3, 5)]))
    @example((3, 2, 5, 3, [ConsensusPair(3, 5), ConsensusPair(4, 5)]))
    def test_wins_iff_the_best_pair_names_it(self, exchange):
        n, j, capacity, weight, pairs = exchange
        capacities = [1] * n
        capacities[j - 1] = capacity
        node = BroadcastProcessor(Instance.from_pairs([], capacities), j, PROTOCOLS["dist"])
        node.step([Delivery(1, SOURCE, range(1, n + 1), WeightOffer(weight))])
        own = ConsensusPair(j, capacity if capacity >= weight else None)
        assert node.my_report == own
        senders = [k for k in range(1, n + 1) if k != j]
        inbox = [Delivery(2, k, j, pair) for k, pair in zip(senders, pairs)]
        best = _best_pair(pairs + [own])
        wins = best is not None and best.best == j
        if wins and capacity < weight:
            # a pair naming p_j won although the item does not fit it
            message = f"^p{j} received an item of weight {weight} with only {capacity} remaining$"
            with pytest.raises(SimulationFault, match=message):
                node.step(inbox)
            return
        assert node.step(inbox) == ([(SOURCE, Winner(j))] if wins else [])
        assert node.remaining == (capacity - weight if wins else capacity)
        assert node.my_report is None


def _best_pair(pairs: list[ConsensusPair]) -> ConsensusPair | None:
    """The greedy choice among candidate pairs: largest capacity, ties to the
    smallest processor id; ``None`` when no pair carries a capacity."""
    best = best_capacity = None
    for pair in pairs:
        capacity = pair.capacity
        if capacity is not None and (
            best is None
            or capacity > best_capacity
            or (capacity == best_capacity and pair.best < best.best)
        ):
            best, best_capacity = pair, capacity
    return best


def reference_broadcast_step(node, inbox):
    """``BroadcastProcessor.step`` as a per-message dispatch: each record is
    checked on its own and sorted into offers and pairs, and only then does
    the step start a round or decide the exchange."""
    offers: list[WeightOffer] = []
    pairs: list[ConsensusPair] = []
    # payload classes are final, so the exact type decides
    for msg in inbox:
        payload = msg.payload
        kind = type(payload)
        if kind is ConsensusPair:
            if msg.sender == SOURCE:
                raise SimulationFault(f"p{node.j}: capacity pair from the source")
            pairs.append(payload)
        elif kind is WeightOffer:
            if msg.sender != SOURCE:
                raise SimulationFault(f"p{node.j}: weight offer from non-source")
            offers.append(payload)
        elif kind is FinalDirective:
            if msg.sender != SOURCE:
                raise SimulationFault(f"p{node.j}: directive from non-source")
            node._apply_directive(payload)
        else:
            raise SimulationFault(f"p{node.j}: unexpected payload {payload!r}")

    out = []
    if offers:
        if len(offers) != 1 or pairs:
            raise SimulationFault(f"p{node.j}: malformed round start")
        weight = offers[0].weight
        node.current_weight = weight
        eligible = node.remaining >= weight
        if eligible and node.own_pair.capacity != node.remaining:
            node.own_pair = ConsensusPair(node.j, node.remaining)
        report = node.my_report = node.own_pair if eligible else node.no_pair
        if node.n > 1:
            out.append((PEERS, report))  # to every other processor
        else:
            # nobody to talk to: the lone processor decides immediately
            if eligible:
                out.append((SOURCE, Winner(node.j)))
                node._take(weight)
            node.my_report = None
    elif pairs:
        report = node.my_report
        if report is None or len(pairs) != node.n - 1:
            raise SimulationFault(f"p{node.j}: capacity exchange out of step")
        best = _best_pair(pairs + [report])
        node.my_report = None
        if best is None or best.best != node.j:
            return []
        node._take(node.current_weight)
        return [(SOURCE, Winner(node.j))]
    return out


@st.composite
def broadcast_steps(draw):
    """A ``dist`` processor p_j of n, its capacity, the weight of the
    exchange it is inside (``None``: it waits for an offer) and one inbox in
    sender order: up to two records from S, then up to n from peers.  S
    sends an offer, a directive, a pair, a winner, a bottom or a capacity
    report; the peers send pairs, one of which may be a stray offer,
    directive or winner."""
    n = draw(st.integers(1, 5))
    j = draw(st.integers(1, n))
    capacity = draw(st.integers(0, 12))
    exchange_weight = draw(st.none() | st.integers(1, 12))
    small = st.integers(0, 14)
    extreme = st.sampled_from((-1, 0, 10**400, 10**400 + 1))
    pair = st.builds(ConsensusPair, st.integers(1, n + 1), st.none() | small | extreme)
    offer = st.builds(WeightOffer, st.integers(1, 14))
    directive = st.builds(FinalDirective, st.integers(0, 3), small)
    winner = st.builds(Winner, st.integers(1, n))
    stray = pair | winner | st.just(Bottom()) | st.builds(CapacityReport, small)
    from_source = draw(st.lists(offer | directive, max_size=2) | st.lists(offer | stray, max_size=2))
    # none, as at a round start, n - 1, as in an exchange, or up to n
    count = draw(st.just(0) | st.just(n - 1) | st.integers(0, n))
    from_peers = draw(st.lists(pair, min_size=count, max_size=count))
    if from_peers and draw(st.integers(0, 2)) == 0:
        from_peers[draw(st.integers(0, count - 1))] = draw(offer | directive | winner)
    senders = sorted(draw(st.lists(st.integers(1, n), min_size=len(from_peers),
                                   max_size=len(from_peers))))
    inbox = [Delivery(2, SOURCE, j, payload) for payload in from_source]
    inbox += [Delivery(2, k, j, payload) for k, payload in zip(senders, from_peers)]
    return n, j, capacity, exchange_weight, inbox


class TestBroadcastStepDifferential:
    """The step against :func:`reference_broadcast_step` on any inbox."""

    @staticmethod
    def outcome(step, node, inbox):
        try:
            sends = step(node, inbox)
        except SimulationFault as fault:
            return str(fault)
        return sends, node.remaining, node.my_report, node.current_weight

    @settings(max_examples=600, deadline=None)
    @given(broadcast_steps())
    # a whole exchange, won and lost
    @example((3, 2, 5, 3, [Delivery(2, 1, 2, ConsensusPair(1, 4)), Delivery(2, 3, 2, ConsensusPair(3, 5))]))
    @example((3, 2, 5, 3, [Delivery(2, 1, 2, ConsensusPair(1, 5)), Delivery(2, 3, 2, ConsensusPair(3, 6))]))
    # a directive, then the exchange it changed the capacity for
    @example((2, 1, 9, 3, [Delivery(2, SOURCE, 1, FinalDirective(0, 7)),
                           Delivery(2, 2, 1, ConsensusPair(2, 1))]))
    # an offer after a directive, with the capacity the directive left
    @example((3, 3, 9, None, [Delivery(2, SOURCE, 3, FinalDirective(0, 7)),
                              Delivery(2, SOURCE, 3, WeightOffer(2))]))
    # capacities at the ints' extremes: -1 and 0 below p_j's own, and
    # 400-digit ones one apart, above it and tied with it
    @example((3, 2, 5, 3, [Delivery(2, 1, 2, ConsensusPair(1, -1)),
                           Delivery(2, 3, 2, ConsensusPair(3, 0))]))
    @example((3, 2, 5, 3, [Delivery(2, 1, 2, ConsensusPair(1, 0)),
                           Delivery(2, 3, 2, ConsensusPair(3, -1))]))
    @example((3, 2, 10**400, 3, [Delivery(2, 1, 2, ConsensusPair(1, 10**400)),
                                 Delivery(2, 3, 2, ConsensusPair(3, 10**400 + 1))]))
    @example((3, 2, 10**400 + 1, 3, [Delivery(2, 1, 2, ConsensusPair(1, 10**400)),
                                     Delivery(2, 3, 2, ConsensusPair(3, 10**400 + 1))]))
    @example((3, 1, 10**400, 3, [Delivery(2, 2, 1, ConsensusPair(2, 10**400 + 1)),
                                 Delivery(2, 3, 1, ConsensusPair(3, -1))]))
    # every pair ties, p_j's own too: the smallest id wins, p_j or another
    @example((4, 3, 5, 3, [Delivery(2, k, 3, ConsensusPair(k, 5)) for k in (1, 2, 4)]))
    @example((4, 1, 5, 3, [Delivery(2, k, 1, ConsensusPair(k, 5)) for k in (2, 3, 4)]))
    # a peer's pair names the receiver, as the best (the item fits, or not)
    # and tied with its own pair
    @example((3, 2, 5, 3, [Delivery(2, 1, 2, ConsensusPair(2, 9)),
                           Delivery(2, 3, 2, ConsensusPair(3, None))]))
    @example((3, 2, 5, 7, [Delivery(2, 1, 2, ConsensusPair(2, 9)),
                           Delivery(2, 3, 2, ConsensusPair(3, None))]))
    @example((3, 3, 5, 3, [Delivery(2, 1, 3, ConsensusPair(3, 5)),
                           Delivery(2, 2, 3, ConsensusPair(2, 5))]))
    def test_matches_the_per_message_dispatch(self, case):
        n, j, capacity, exchange_weight, inbox = case
        nodes = []
        for _ in range(2):
            capacities = [1] * n
            capacities[j - 1] = capacity
            node = BroadcastProcessor(Instance.from_pairs([], capacities), j, PROTOCOLS["dist"])
            if exchange_weight is not None:
                node.step([Delivery(1, SOURCE, range(1, n + 1), WeightOffer(exchange_weight))])
            nodes.append(node)
        got = self.outcome(BroadcastProcessor.step, nodes[0], inbox)
        assert got == self.outcome(reference_broadcast_step, nodes[1], inbox)


def dist_round(node, weight, rival):
    """One round of p1 in a ``dist`` run over two processors: the offer of
    ``weight``, then p2's pair with capacity ``rival``.  Returns the pair p1
    sent."""
    [(_, pair)] = node.step([Delivery(1, SOURCE, range(1, 3), WeightOffer(weight))])
    node.step([Delivery(2, 2, 1, ConsensusPair(2, rival))])
    return pair


class TestBroadcastPairReuse:
    def test_a_pair_is_sent_again_until_the_capacity_changes(self):
        node = BroadcastProcessor(Instance.from_pairs([], [10, 10]), 1, PROTOCOLS["dist"])
        first = dist_round(node, 3, 20)  # p2 wins
        assert first == ConsensusPair(1, 10)
        assert dist_round(node, 4, 20) is first
        ineligible = dist_round(node, 11, None)
        assert ineligible == ConsensusPair(1, None)
        assert dist_round(node, 12, None) is ineligible
        assert dist_round(node, 3, 5) is first  # p1 wins: 10 remaining -> 7
        after_win = dist_round(node, 3, 20)
        assert after_win == ConsensusPair(1, 7) and after_win is not first
        assert dist_round(node, 4, 20) is after_win
        assert dist_round(node, 8, 20) is ineligible
        node.step([Delivery(1, SOURCE, 1, FinalDirective(0, 6))])  # 4 remaining
        after_directive = dist_round(node, 3, 20)
        assert after_directive == ConsensusPair(1, 4)
        assert after_directive is not after_win

    def test_a_trace_holds_few_pair_objects(self):
        # n ineligible pairs, and one eligible pair per processor and win;
        # one per processor and round (1,920 here) without the reuse
        inst = gen_random(GenParams(30, 64, 50, 50, 1, 100, seed=1))
        run = run_algorithm("dist", inst)
        pairs = {id(d.payload) for d in run.trace if type(d.payload) is ConsensusPair}
        assigned = len(run.pre_final_assignment.assigned_items())
        assert len(pairs) <= 2 * inst.n + assigned


def best_pair_by_max(pairs):
    """The consensus argmax restated: the first pair of largest capacity,
    ties to the smallest id; ``None`` when no pair carries a capacity."""
    eligible = [p for p in pairs if p.capacity is not None]
    return max(eligible, key=lambda p: (p.capacity, -p.best)) if eligible else None


class TestBestPair:
    @settings(max_examples=300)
    @given(
        st.lists(
            st.builds(
                ConsensusPair,
                st.integers(1, 6),
                st.none() | st.integers(0, 3) | st.integers(0, 10**30),
            ),
            max_size=8,
        )
    )
    def test_matches_max(self, pairs):
        assert _best_pair(pairs) is best_pair_by_max(pairs)

    def test_only_absent_capacities_give_none(self):
        assert _best_pair([ConsensusPair(2, None), ConsensusPair(1, None)]) is None
        assert _best_pair([]) is None

    def test_zero_capacity_beats_an_absent_one(self):
        zero = ConsensusPair(3, 0)
        assert _best_pair([ConsensusPair(1, None), zero, ConsensusPair(2, None)]) is zero

    def test_capacity_tie_goes_to_the_smallest_id(self):
        pairs = [ConsensusPair(4, 7), ConsensusPair(2, 7), ConsensusPair(3, 7)]
        assert _best_pair(pairs) is pairs[1]


def tree_node(j, capacities):
    """Processor p_j of a ``tree`` run over ``capacities``, with the run's period."""
    return TreeProcessor(Instance.from_pairs([], capacities), j, PROTOCOLS["tree"])


@pytest.mark.parametrize("n", [*range(1, 71), 100, 1000])
def test_tree_processors_form_the_heap_over_1_to_n(n):
    inst = Instance.from_pairs([], [1] * n)
    nodes = {j: TreeProcessor(inst, j, PROTOCOLS["tree"]) for j in range(1, n + 1)}
    assert [j for j, node in nodes.items() if node.parent is None] == [1]
    for j, node in nodes.items():
        assert node.children == tuple(c for c in (2 * j, 2 * j + 1) if c <= n)
        assert all(nodes[c].parent == j for c in node.children)
        if j > 1:
            assert j in nodes[node.parent].children
        # no child's pair steps a childless node above the bottom level
        above_bottom = j.bit_length() < n.bit_length()
        assert node.needs_wake == (not node.children and above_bottom)


def engine_step(node, inbox, phase=None):
    """``node.step(inbox)`` with ``node.phase`` set as the engine sets it:
    to the phase after the stamp of the inbox's records, or for an empty
    inbox to ``phase`` (phase 1, or the one after a step that asked for a
    wake-up)."""
    node.phase = inbox[0].phase + 1 if inbox else phase
    return node.step(inbox)


def tree_round(node, n, weight, child_mail, start=1):
    """Step p_j of a tree over 1..n through the round that starts in phase
    ``start``: the weight offer, then its children's ``(sender, pair)`` mail
    in the order given, or, for a childless node, its wake-up.  Returns the
    sends of its send phase, which is ``start + 1`` on the bottom level."""
    j = node.j
    send_phase = start + n.bit_length() - j.bit_length() + 1
    sends = engine_step(node, [Delivery(start, SOURCE, range(1, n + 1), WeightOffer(weight))])
    if send_phase == start + 1:
        return sends
    assert sends == [] and node.wake_next == (not child_mail)
    if child_mail:
        return engine_step(node, [Delivery(send_phase - 1, c, j, pair) for c, pair in child_mail])
    assert send_phase == start + 2  # the phase after the offer's
    node.wake_next = False  # the engine takes the request
    return engine_step(node, [], send_phase)


def expected_verdict(j, remaining, weight, child_pairs):
    """What p_j sends up: the greedy choice among its children's pairs and
    its own, if eligible; the root turns it into a winner or bottom."""
    own = [ConsensusPair(j, remaining)] if remaining >= weight else []
    best = _best_pair(list(child_pairs) + own)
    if j == 1:
        return [(SOURCE, Bottom() if best is None else Winner(best.best))]
    return [(j // 2, ConsensusPair(None, None) if best is None else best)]


def in_subtree(k, c):
    while k > c:
        k //= 2
    return k == c


@st.composite
def tree_rounds(draw):
    """p_j of a tree over 1..n, its capacity, a round's weight and a pair
    from each child in either arrival order: absent or naming a processor
    in that child's subtree, with small capacities so that ties are common."""
    n = draw(st.integers(1, 23))
    j = draw(st.integers(1, n))
    capacity = draw(st.integers(0, 6))
    weight = draw(st.integers(1, 6))
    mail = []
    for c in (2 * j, 2 * j + 1):
        if c <= n:
            below = [k for k in range(c, n + 1) if in_subtree(k, c)]
            cap = draw(st.none() | st.integers(0, 6))
            pair = ConsensusPair(None if cap is None else draw(st.sampled_from(below)), cap)
            mail.append((c, pair))
    return n, j, capacity, weight, draw(st.permutations(mail))


class TestTreeProcessorDifferential:
    @settings(max_examples=300, deadline=None)
    @given(tree_rounds())
    def test_forwards_the_best_of_its_children_and_itself(self, case):
        n, j, capacity, weight, mail = case
        node = tree_node(j, [capacity] * n)
        sends = tree_round(node, n, weight, mail)
        assert sends == expected_verdict(j, capacity, weight, [pair for _, pair in mail])
        # a child's pair goes up as the object the child sent
        (_, sent), = sends
        received = {pair.best: pair for _, pair in mail}
        if j != 1 and sent.best not in (j, None):
            assert sent is received[sent.best]

    def test_a_won_round_reduces_the_next_pair(self):
        # p2 of 5 wins round 1 with capacity 9; the award of weight 4 lands
        # in the first phase of round 2, whose pair carries 5
        node = tree_node(2, [9] * 5)
        period = node.period
        silent = [(4, ConsensusPair(None, None)), (5, ConsensusPair(None, None))]
        assert tree_round(node, 5, 4, silent) == [(1, ConsensusPair(2, 9))]
        assert engine_step(node, [Delivery(period, SOURCE, 2, WeightOffer(4))]) == []
        assert tree_round(node, 5, 3, silent, start=period + 1) == [(1, ConsensusPair(2, 5))]
        # a child's larger capacity now beats p2's
        mail = [(4, ConsensusPair(4, 6)), (5, ConsensusPair(5, 3))]
        assert tree_round(node, 5, 3, mail, start=2 * period + 1) == [(1, mail[0][1])]

    def test_an_unchanged_capacity_resends_the_same_pair(self):
        node = tree_node(2, [9] * 5)
        period = node.period
        silent = [(4, ConsensusPair(None, None)), (5, ConsensusPair(None, None))]
        (_, first), = tree_round(node, 5, 4, silent)
        (_, again), = tree_round(node, 5, 2, silent, start=period + 1)
        assert again is first == ConsensusPair(2, 9)
        engine_step(node, [Delivery(2 * period, SOURCE, 2, WeightOffer(2))])  # p2 won that round
        (_, after), = tree_round(node, 5, 2, silent, start=2 * period + 1)
        assert after == ConsensusPair(2, 7) and after is not first

    def test_a_directive_changes_the_next_pair(self):
        node = tree_node(3, [9] * 7)
        period = node.period
        silent = [(6, ConsensusPair(None, None)), (7, ConsensusPair(None, None))]
        assert tree_round(node, 7, 2, silent) == [(1, ConsensusPair(3, 9))]
        # the reassignment pass refills p3 with one item of weight 5
        assert engine_step(node, [Delivery(period, SOURCE, 3, FinalDirective(0, 5))]) == []
        assert tree_round(node, 7, 4, silent, start=period + 1) == [(1, ConsensusPair(3, 4))]
        assert tree_round(node, 7, 5, silent, start=2 * period + 1) == [
            (1, ConsensusPair(None, None))
        ]

    def test_an_ineligible_root_reports_a_child_or_bottom(self):
        root = tree_node(1, [3, 9, 9])
        mail = [(3, ConsensusPair(3, 9)), (2, ConsensusPair(2, 9))]
        assert tree_round(root, 3, 4, mail) == [(SOURCE, Winner(2))]
        silent = [(2, ConsensusPair(None, None)), (3, ConsensusPair(None, None))]
        assert tree_round(root, 3, 4, silent, start=root.period + 1) == [(SOURCE, Bottom())]


def reference_tree_step(node, child_pairs, inbox):
    """``TreeProcessor.step`` as a list of the round's pairs: each child's
    pair is appended to ``child_pairs`` as it is read, the own pair is
    appended at the send offset, and :func:`_best_pair` chooses among them.
    The caller keeps ``child_pairs`` from step to step; the round's offer
    empties it."""
    offset = (node.phase - 1) % node.period + 1
    for msg in inbox:
        payload = msg.payload
        kind = type(payload)
        if kind is ConsensusPair:
            if msg.sender not in node.children:
                raise SimulationFault(
                    f"p{node.j}: aggregation pair from non-child p{msg.sender}"
                )
            child_pairs.append(payload)
        elif kind is WeightOffer:
            if msg.sender != SOURCE:
                raise SimulationFault(f"p{node.j}: weight offer from non-source")
            if offset == 2:  # the round's offer broadcast
                node.current_weight = payload.weight
                child_pairs.clear()
                node.wake_next = node.needs_wake
            elif offset == 1:  # the award for the round just decided
                if payload.weight != node.current_weight:
                    raise SimulationFault(f"p{node.j}: award weight mismatch")
                node._take(payload.weight)
            else:
                raise SimulationFault(f"p{node.j}: weight offer off schedule")
        elif kind is FinalDirective:
            if msg.sender != SOURCE:
                raise SimulationFault(f"p{node.j}: directive from non-source")
            node._apply_directive(payload)
        else:
            raise SimulationFault(f"p{node.j}: unexpected payload {payload!r}")

    if offset != node.send_offset or node.current_weight is None:
        return []
    remaining = node.remaining
    if remaining >= node.current_weight:
        own = node.own_pair
        if own.capacity != remaining:
            own = node.own_pair = ConsensusPair(node.j, remaining)
        child_pairs.append(own)
    best = _best_pair(child_pairs)
    if node.parent is not None:
        return [(node.parent, best or _NO_PAIR)]
    return [(SOURCE, _BOTTOM if best is None else Winner(best.best))]


@st.composite
def tree_step_sequences(draw):
    """p_j of a tree over 1..n, its capacity and up to eight inboxes for it.
    Each inbox is read at round offset 1, 2, p_j's send offset or any other,
    and holds offers and awards, directives and pairs from p_j's children,
    with ties, absent capacities and ids from anywhere; now and then one
    record at any position is a pair from a non-child, an offer or a
    directive from a processor, or a stray winner, bottom or capacity
    report.  An empty inbox is a wake-up."""
    n = draw(st.integers(1, 12))
    j = draw(st.integers(1, n))
    capacity = draw(st.integers(0, 8))
    period = n.bit_length() + 2
    send_offset = period - j.bit_length()
    children = [c for c in (2 * j, 2 * j + 1) if c <= n]
    small = st.integers(0, 8)
    ids = st.sampled_from([j, *children]) | st.integers(-1, n + 2)
    pair = st.builds(ConsensusPair, ids, st.none() | small)
    offer = st.builds(WeightOffer, st.integers(1, 4))
    directive = st.builds(FinalDirective, st.integers(0, 3), small)
    good = st.tuples(st.just(SOURCE), offer | directive)
    if children:
        good = good | st.tuples(st.sampled_from(children), pair)
    others = [k for k in range(n + 3) if k not in children]
    bad = (
        st.tuples(st.sampled_from(others), pair)
        | st.tuples(st.integers(1, n + 2), offer | directive)
        | st.tuples(
            st.integers(0, n + 2),
            st.builds(Winner, st.integers(1, n)) | st.just(Bottom())
            | st.builds(CapacityReport, small),
        )
    )
    inboxes = []
    for _ in range(draw(st.integers(1, 8))):
        records = draw(st.lists(good, max_size=4))
        if draw(st.integers(0, 7)) == 0:
            records.insert(draw(st.integers(0, len(records))), draw(bad))
        offset = draw(st.sampled_from([1, 2, send_offset]) | st.integers(1, period))
        sent_in = draw(st.integers(1, 3)) * period + offset - 1
        inboxes.append([Delivery(sent_in, k, j, payload) for k, payload in records])
    return n, j, capacity, inboxes


class TestTreeStepDifferential:
    """The step against :func:`reference_tree_step` over a sequence of inboxes."""

    @staticmethod
    def outcome(step, *args):
        try:
            return step(*args)
        except SimulationFault as fault:
            return str(fault)

    @settings(max_examples=600, deadline=None)
    @given(tree_step_sequences())
    # a round of p2 of 5 (a round has 5 phases; p2 sends at offset 3): the
    # offer, then its children's pairs, tied on capacity with each other
    # and with p2's own
    @example((5, 2, 6, [
        [Delivery(6, SOURCE, 2, WeightOffer(3))],
        [Delivery(7, 4, 2, ConsensusPair(5, 6)), Delivery(7, 5, 2, ConsensusPair(4, 6))],
    ]))
    # equal pairs, distinct objects: the first one read goes up, and a
    # child's pair beats an equal own pair
    @example((5, 2, 6, [
        [Delivery(6, SOURCE, 2, WeightOffer(3))],
        [Delivery(7, 4, 2, ConsensusPair(2, 6)), Delivery(7, 5, 2, ConsensusPair(2, 6))],
    ]))
    # a leaf's round (it sends at offset 2), its award and the next round
    @example((3, 3, 5, [
        [Delivery(5, SOURCE, 3, WeightOffer(2))],
        [Delivery(8, SOURCE, 3, WeightOffer(2))],
        [Delivery(9, SOURCE, 3, WeightOffer(2))],
    ]))
    # p1 of 3 (p1 sends at offset 3 of 4) sends twice in a round, with its
    # award between, so the own pair it sent first beats the later pairs
    @example((3, 1, 7, [
        [Delivery(5, SOURCE, 1, WeightOffer(4))],
        [Delivery(6, 2, 1, ConsensusPair(2, None))],
        [Delivery(8, SOURCE, 1, WeightOffer(4))],
        [Delivery(10, 3, 1, ConsensusPair(3, 1))],
    ]))
    def test_matches_the_pair_list_step(self, case):
        n, j, capacity, inboxes = case
        capacities = [1] * n
        capacities[j - 1] = capacity
        node, ref = tree_node(j, capacities), tree_node(j, capacities)
        child_pairs = []
        owns = []  # (the node's own pair, the reference's), as each is built
        woken = 1  # the phase of a step with no mail: 1, then the one after the last request
        for inbox in inboxes:
            got = self.outcome(engine_step, node, inbox, woken)
            ref.phase = node.phase
            want = self.outcome(reference_tree_step, ref, child_pairs, inbox)
            if isinstance(want, str):
                assert got == want
                return
            owns.append((node.own_pair, ref.own_pair))
            assert [r for r, _ in got] == [r for r, _ in want]
            for (_, sent), (_, expected) in zip(got, want):
                # the same object: a child's, the shared constants, or the
                # node's own pair where the reference sent its own
                assert (
                    sent is expected
                    or any(sent is a and expected is b for a, b in owns)
                    or (type(sent) is Winner and sent == expected)
                )
            assert (node.remaining, node.own_pair, node.current_weight, node.wake_next) == (
                ref.remaining, ref.own_pair, ref.current_weight, ref.wake_next)
            if node.wake_next:
                woken = node.phase + 1
            node.wake_next = ref.wake_next = False  # the engine takes the request


class TestTreeProcessorFaults:
    """Each fault of one ``tree`` processor.  The tree has seven processors,
    so a round has five phases and p1, whose children are p2 and p3, sends
    in the fourth; p1 has capacity 4."""

    @staticmethod
    def p1():
        return tree_node(1, [4] + [9] * 6)

    @staticmethod
    def mail(phase, *messages):
        """Messages sent in ``phase`` to p1, read in the phase after it."""
        return [Delivery(phase, sender, 1, payload) for sender, payload in messages]

    @pytest.mark.parametrize("sender", [SOURCE, 4, 7])
    def test_pair_from_a_non_child(self, sender):
        message = f"^p1: aggregation pair from non-child p{sender}$"
        with pytest.raises(SimulationFault, match=message):
            engine_step(self.p1(), self.mail(3, (sender, ConsensusPair(sender, 9))))

    def test_weight_offer_from_a_non_source(self):
        with pytest.raises(SimulationFault, match="^p1: weight offer from non-source$"):
            engine_step(self.p1(), self.mail(1, (2, WeightOffer(2))))

    def test_directive_from_a_non_source(self):
        with pytest.raises(SimulationFault, match="^p1: directive from non-source$"):
            engine_step(self.p1(), self.mail(5, (2, FinalDirective(0, 2))))

    @pytest.mark.parametrize("phase", [2, 3, 4, 7])
    def test_weight_offer_off_schedule(self, phase):
        # an offer is read at offset 2 (a round's broadcast) or 1 (an award)
        with pytest.raises(SimulationFault, match="^p1: weight offer off schedule$"):
            engine_step(self.p1(), self.mail(phase, (SOURCE, WeightOffer(2))))

    def test_award_weight_mismatch(self):
        node = self.p1()
        assert engine_step(node, self.mail(1, (SOURCE, WeightOffer(2)))) == []
        with pytest.raises(SimulationFault, match="^p1: award weight mismatch$"):
            engine_step(node, self.mail(5, (SOURCE, WeightOffer(3))))

    def test_award_before_any_offer(self):
        with pytest.raises(SimulationFault, match="^p1: award weight mismatch$"):
            engine_step(self.p1(), self.mail(5, (SOURCE, WeightOffer(3))))

    @pytest.mark.parametrize("payload", [Winner(2), Bottom(), CapacityReport(4)])
    def test_unexpected_payload(self, payload):
        message = re.escape(f"p1: unexpected payload {payload!r}")
        with pytest.raises(SimulationFault, match=f"^{message}$"):
            engine_step(self.p1(), self.mail(1, (SOURCE, payload)))

    def test_overweight_award(self):
        node = self.p1()
        assert engine_step(node, self.mail(1, (SOURCE, WeightOffer(5)))) == []
        with pytest.raises(
            SimulationFault, match="^p1 received an item of weight 5 with only 4 remaining$"
        ):
            engine_step(node, self.mail(5, (SOURCE, WeightOffer(5))))

    @pytest.mark.parametrize(
        "messages,fault",
        [
            (
                [(4, ConsensusPair(4, 9)), (SOURCE, WeightOffer(2))],
                "aggregation pair from non-child p4",
            ),
            ([(SOURCE, WeightOffer(2)), (4, ConsensusPair(4, 9))], "weight offer off schedule"),
            (
                [(2, ConsensusPair(2, 9)), (SOURCE, Bottom())],
                re.escape("unexpected payload Bottom()"),
            ),
        ],
        ids=["pair first", "offer first", "good pair first"],
    )
    def test_the_first_faulty_message_decides(self, messages, fault):
        with pytest.raises(SimulationFault, match=f"^p1: {fault}$"):
            engine_step(self.p1(), self.mail(3, *messages))


def fault_text(call, *args):
    """The text of the fault that ``call(*args)`` raises."""
    with pytest.raises(SimulationFault) as fault:
        call(*args)
    return str(fault.value)


class TestBatchProcessorFaults:
    """Each fault of one ``simple`` processor, raised from a single step."""

    @staticmethod
    def p1():
        return BatchProcessor(Instance.from_pairs([(5, 2)], [9, 9, 9]), 1, PROTOCOLS["simple"])

    def test_traffic_from_a_peer(self):
        inbox = [Delivery(2, 2, 1, Bottom())]
        assert fault_text(self.p1().step, inbox) == "p1 expected traffic from S only"

    @pytest.mark.parametrize("payload", [Winner(2), CapacityReport(4), WeightOffer(2)])
    def test_unexpected_payload(self, payload):
        inbox = [Delivery(2, SOURCE, 1, payload)]
        assert fault_text(self.p1().step, inbox) == f"p1: unexpected payload {payload!r}"


class TestSourceFaults:
    """Each fault of a source, raised from its steps on hand-built inboxes.
    The instance has two items and three processors, so a ``tree`` round
    has four phases."""

    INST = Instance.from_pairs([(5, 2), (3, 1)], [9, 9, 9])

    @classmethod
    def source(cls, name):
        protocol = PROTOCOLS[name]
        return protocol.source(cls.INST, protocol)

    @staticmethod
    def to_source(phase, *messages):
        return [Delivery(phase, sender, SOURCE, payload) for sender, payload in messages]

    @pytest.mark.parametrize("name", ["simple", "modified"])
    @pytest.mark.parametrize("payload", [Winner(1), Bottom(), ConsensusPair(1, 9)])
    def test_batch_source_unexpected_payload(self, name, payload):
        inbox = self.to_source(1, (1, CapacityReport(9)), (2, payload))
        assert fault_text(self.source(name).step, inbox) == f"S: unexpected payload {payload!r}"

    @pytest.mark.parametrize("name", ["simple", "modified"])
    def test_batch_source_missing_a_report(self, name):
        inbox = self.to_source(1, (1, CapacityReport(9)), (3, CapacityReport(9)))
        assert (
            fault_text(self.source(name).step, inbox)
            == "S expected a capacity report from every processor"
        )

    @pytest.mark.parametrize("payload", [Bottom(), CapacityReport(4), ConsensusPair(1, 9)])
    def test_broadcast_source_unexpected_payload(self, payload):
        inbox = self.to_source(3, (1, payload))
        assert fault_text(engine_step, self.source("dist"), inbox) == (
            f"S: unexpected payload {payload!r}"
        )

    def test_broadcast_source_two_winners(self):
        source = self.source("dist")
        assert engine_step(source, [], 1) == [(PEERS, WeightOffer(1))]
        inbox = self.to_source(3, (1, Winner(3)), (2, Winner(1)))
        assert fault_text(engine_step, source, inbox) == "two winners in one round: [1, 3]"

    def test_broadcast_source_winner_before_any_round(self):
        inbox = self.to_source(1, (1, Winner(1)))
        assert fault_text(engine_step, self.source("dist"), inbox) == (
            "winner reported outside any round"
        )

    def test_broadcast_source_of_one_processor_winner_before_any_round(self):
        # phase 2 is off the lone processor's schedule too, but no item is
        # pending yet, and that is the fault reported
        inst = Instance.from_pairs([(5, 2), (3, 1)], [9])
        source = PROTOCOLS["dist"].source(inst, PROTOCOLS["dist"])
        inbox = self.to_source(1, (1, Winner(1)))
        assert fault_text(engine_step, source, inbox) == "winner reported outside any round"

    def test_broadcast_source_second_winner_of_a_round(self):
        # a winner read in phase 2, before any processor can have decided
        # the round, is not booked: the round's winner lands in phase 4
        source = self.source("dist")
        assert engine_step(source, [], 1) == [(PEERS, WeightOffer(1))]
        inbox = self.to_source(1, (2, Winner(2)))
        assert fault_text(engine_step, source, inbox) == "S: winner report arrived off schedule"
        assert source.assignment.placement == {0: None, 1: None}

    @pytest.mark.parametrize("offset", [1, 2])
    def test_broadcast_source_winner_off_schedule(self, offset):
        # after round 1 opens, a winner read at any offset but 0 (phase 4,
        # the next round's first) is a fault and books nothing
        source = self.source("dist")
        for phase in range(1, offset + 1):
            engine_step(source, [], phase)
        inbox = self.to_source(offset, (1, Winner(1)))
        assert fault_text(engine_step, source, inbox) == "S: winner report arrived off schedule"
        assert source.assignment.placement == {0: None, 1: None}

    @pytest.mark.parametrize(
        "offset,message",
        [(0, "winner reported outside any round"), (1, "S: winner report arrived off schedule")],
    )
    def test_broadcast_source_of_one_processor_books_at_offset_two(self, offset, message):
        # the lone processor reports as soon as the offer arrives (phase 2),
        # so its report lands in phase 3; in phase 4 round 1 is booked and
        # round 2 not yet open, and in phase 5 round 2 is open but not due
        inst = Instance.from_pairs([(5, 2), (3, 1)], [9])
        source = PROTOCOLS["dist"].source(inst, PROTOCOLS["dist"])
        assert engine_step(source, [], 1) == [(PEERS, WeightOffer(1))]
        assert engine_step(source, [], 2) == []
        assert engine_step(source, self.to_source(2, (1, Winner(1)))) == []
        assert source.assignment.placement == {0: None, 1: 0}
        for phase in range(4, 4 + offset):
            engine_step(source, [], phase)
        inbox = self.to_source(3 + offset, (1, Winner(1)))
        assert fault_text(engine_step, source, inbox) == message

    @pytest.mark.parametrize("steps", [0, 1, 2])
    def test_tree_source_result_off_schedule(self, steps):
        # after ``steps`` empty phases the source's next phase is not a
        # round's last, the one the root's verdict is due in
        source = self.source("tree")
        for phase in range(1, steps + 1):
            engine_step(source, [], phase)
        inbox = self.to_source(steps, (1, Winner(1)))
        assert fault_text(engine_step, source, inbox) == "S: consensus result arrived off schedule"

    @pytest.mark.parametrize(
        "messages",
        [[], [(1, Winner(1)), (1, Winner(2))], [(2, Winner(2))]],
        ids=["none", "two", "from p2"],
    )
    def test_tree_source_wants_one_verdict_from_the_root(self, messages):
        source = self.source("tree")
        for phase in range(1, 4):
            engine_step(source, [], phase)
        inbox = self.to_source(3, *messages)
        assert fault_text(engine_step, source, inbox, 4) == (
            "S expected exactly one verdict from the root"
        )

    @pytest.mark.parametrize("payload", [CapacityReport(4), ConsensusPair(1, 9), WeightOffer(2)])
    def test_tree_source_unexpected_verdict(self, payload):
        source = self.source("tree")
        for phase in range(1, 4):
            engine_step(source, [], phase)
        inbox = self.to_source(3, (1, payload))
        assert fault_text(engine_step, source, inbox) == f"S: unexpected verdict {payload!r}"

    def test_a_processor_that_disagrees_with_the_record(self):
        inst = self.INST
        processors = {j: BatchProcessor(inst, j, PROTOCOLS["simple"]) for j in (1, 2, 3)}
        processors[2].remaining = 7
        assert (
            fault_text(_check_run, inst, Assignment.empty(inst), processors)
            == "p2 remaining capacity 7 disagrees with the source's record"
        )

    @pytest.mark.parametrize("knapsack", [3, -1])
    def test_reassigning_an_item_in_an_unknown_knapsack(self, knapsack):
        inst = self.INST
        assignment = Assignment({0: None, 1: knapsack}, [9, 9, 9])
        with pytest.raises(DomainError) as fault:
            final_reassign(assignment, inst)
        assert str(fault.value) == f"item 1 assigned to unknown knapsack {knapsack}"

    @pytest.mark.parametrize("item", [-1, 3])
    @pytest.mark.parametrize(
        "pool",
        [{0: None, 1: None, 2: None}, {0: 0, 1: 1, 2: None}],
        ids=["fitting pool", "nothing fits"],
    )
    def test_reassigning_an_unknown_item(self, item, pool):
        # item 2 fits no knapsack; -1 and 3 = m name no item, in knapsack 0
        inst = Instance.from_pairs([(3, 2), (9, 5), (1, 6)], [5, 5])
        assignment = Assignment({**pool, item: 0}, [5, 5])
        with pytest.raises(DomainError) as fault:
            final_reassign(assignment, inst)
        assert str(fault.value) == check_feasible(assignment, inst)
        assert str(fault.value) == f"unknown item id {item}"

    @pytest.mark.parametrize(
        "placement, first",
        [
            ({-1: 0, 0: 5}, "unknown item id -1"),
            ({0: 5, 2: 0}, "item 0 assigned to unknown knapsack 5"),
            ({0: None, 1: 0, 2: 5, 3: 0}, "unknown item id 2"),
        ],
    )
    def test_reassignment_reports_the_first_bad_entry_in_id_order(self, placement, first):
        assignment = Assignment(placement, [9, 9, 9])
        with pytest.raises(DomainError) as fault:
            final_reassign(assignment, self.INST)
        assert str(fault.value) == check_feasible(assignment, self.INST) == first


class TestTreeGreedy:
    def test_matches_dist_on_instance_a(self, instance_a):
        dist = run_algorithm("dist", instance_a)
        tree = run_algorithm("tree", instance_a)
        assert tree.assignment.placement == dist.assignment.placement
        assert tree.profit == dist.profit == 18
        assert tree.messages == 20  # 2n + 1 per assigned item, 2n otherwise
        assert tree.phases == 16  # m * (floor(log2 n) + 3)

    def test_seven_processor_consensus_example(self):
        inst = Instance.from_pairs([(1, 4)], [5, 9, 3, 9, 1, 2, 8])
        for name in ("dist", "tree"):
            run = run_algorithm(name, inst)
            assert placement(run) == {0: 1}  # capacity 9, smaller id than p4

    def test_single_item_metrics_on_four_processors(self):
        inst = Instance.from_pairs([(6, 4)], [5, 9, 3, 9])
        run = run_algorithm("tree", inst)
        assert run.messages == 9  # n offers + (n-1) tree-ups + root + award
        assert run.phases == 5  # offer, two tree levels, root->S, award
        derived = metrics_of(run.trace)
        assert derived.messages == 9 and derived.phases == 5

    def test_phase_count_single_processor(self):
        inst = Instance.from_pairs([(5, 2), (4, 9)], [3])
        run = run_algorithm("tree", inst)
        assert run.phases == 6  # m * (0 + 3)
        assert placement(run) == {0: 0, 1: None}

    def test_empty_instance(self):
        run = run_algorithm("tree", Instance.from_pairs([], [5]))
        assert run.profit == 0 and run.messages == 0


class TestProtocolEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(small_instances())
    def test_dist_and_tree_agree_everywhere(self, inst):
        dist = run_algorithm("dist", inst)
        tree = run_algorithm("tree", inst)
        assert dist.assignment.placement == tree.assignment.placement
        assert dist.pre_final_assignment.placement == tree.pre_final_assignment.placement
        assert dist.profit == tree.profit

    @settings(max_examples=120, deadline=None)
    @given(small_instances())
    def test_simulations_match_centralized_recomputations(self, inst):
        assert (
            run_algorithm("simple", inst).assignment.placement
            == batch_round_greedy(inst).assignment.placement
        )
        dist = run_algorithm("dist", inst)
        sequential = strict_sequential_greedy(inst)
        assert dist.pre_final_assignment.placement == sequential.assignment.placement

    @settings(max_examples=120, deadline=None)
    @given(small_instances())
    def test_every_run_is_feasible_and_final_never_hurts(self, inst):
        for name in ("simple", "modified", "dist", "tree"):
            run = run_algorithm(name, inst)
            assert check_feasible(run.assignment, inst) is None
            assert check_feasible(run.pre_final_assignment, inst) is None
            assert run.profit >= run.pre_final_profit

    @settings(max_examples=120, deadline=None)
    @given(small_instances())
    def test_exact_message_and_phase_accounting(self, inst):
        m, n = inst.m, inst.n
        rounds = -(-m // n)
        simple = run_algorithm("simple", inst)
        assert simple.messages == 2 * n * rounds
        assert simple.messages <= 2 * m + 2 * n
        modified = run_algorithm("modified", inst)
        assert modified.messages == 2 * n * rounds + len(modified.changed_knapsacks)
        dist = run_algorithm("dist", inst)
        assigned = len(dist.pre_final_assignment.assigned_items())
        assert dist.messages == m * n * n + assigned + len(dist.changed_knapsacks)
        assert dist.messages <= m * (n + n * n) + n
        assert dist.phases == (3 * m + 1 if m else 1)
        tree = run_algorithm("tree", inst)
        assert tree.messages == 2 * m * n + assigned + len(tree.changed_knapsacks)
        assert tree.messages <= 2 * m * n + m + n
        levels = n.bit_length() - 1
        assert tree.phases == (m * (levels + 3) if m else 1)
        for run in (simple, modified, dist, tree):
            derived = metrics_of(run.trace)
            assert derived.messages == run.messages == len(deliveries(run.trace))
            assert derived.phases <= run.phases


class TestEdgesAndScale:
    def test_family_message_total_matches_per_item_average(self):
        # n=2 family: every round costs n^2, two winners, two directives
        run = run_algorithm("dist", gen_adversarial(2, 10))
        assert run.messages == 20  # m * (n^2 + 1) on average

    def test_batch_rank_ties_break_by_ascending_processor_id(self):
        inst = Instance.from_pairs([(9, 2), (8, 2), (7, 2)], [5, 5, 5])
        run = run_algorithm("simple", inst)
        assert placement(run) == {0: 0, 1: 1, 2: 2}

    def test_zero_capacity_knapsacks_take_nothing(self):
        inst = Instance.from_pairs([(5, 1), (4, 2)], [0, 0])
        for name in ("simple", "modified", "dist", "tree"):
            run = run_algorithm(name, inst)
            assert run.profit == 0
            assert run.assignment.assigned_items() == []

    def test_zero_cost_items_are_still_dispatched(self):
        inst = Instance.from_pairs([(0, 1), (0, 2)], [5])
        run = run_algorithm("dist", inst)
        assert run.assignment.assigned_items() == [0, 1]
        assert run.profit == 0

    def test_billion_scale_integers_stay_exact(self):
        big = 10**9
        inst = Instance.from_pairs(
            [(2 * big, big), (2 * big + 1, big + 1), (big, big)],
            [2 * big, big + 1],
        )
        dist = run_algorithm("dist", inst)
        tree = run_algorithm("tree", inst)
        assert dist.assignment.placement == tree.assignment.placement
        assert dist.profit == tree.profit
        assert check_feasible(dist.assignment, inst) is None

    def test_wide_tree_matches_flat_consensus(self):
        # 100 processors: five aggregation levels, many absent children
        pairs = [((i * 7919) % 97 + 1, (i * 104729) % 13 + 1) for i in range(40)]
        caps = [(j * 31) % 23 + 1 for j in range(100)]
        inst = Instance.from_pairs(pairs, caps)
        dist = run_algorithm("dist", inst)
        tree = run_algorithm("tree", inst)
        assert dist.assignment.placement == tree.assignment.placement
        assert tree.phases == 40 * (6 + 3)  # floor(log2 100) = 6
        sequential = strict_sequential_greedy(inst)
        assert dist.pre_final_assignment.placement == sequential.assignment.placement

    def test_more_processors_than_items(self):
        inst = Instance.from_pairs([(3, 2)], [1, 4, 4, 9, 2])
        for name in ("dist", "tree"):
            run = run_algorithm(name, inst)
            assert placement(run) == {0: 3}
        batch = run_algorithm("simple", inst)
        assert placement(batch) == {0: 3}

    def test_protocol_phases_outlast_the_last_send_on_silent_endings(self):
        # last item fits nowhere and the reassignment changes nothing, so the
        # engine's phase count exceeds what the trace alone can show
        inst = Instance.from_pairs([(9, 2), (1, 50)], [3])
        run = run_algorithm("dist", inst)
        assert run.messages == 3
        assert run.phases == 7  # 3m + 1
        assert metrics_of(run.trace).phases == 4  # last actual send


GOLDEN_DIST_TRACE_A = """\
1 S p1 weight 4
1 S p2 weight 4
2 p1 p2 pair 1 10
2 p2 p1 pair 2 7
3 p1 S winner 1
4 S p1 weight 4
4 S p2 weight 4
5 p1 p2 pair 1 6
5 p2 p1 pair 2 7
6 p2 S winner 2
7 S p1 weight 7
7 S p2 weight 7
8 p1 p2 pair 1 -
8 p2 p1 pair 2 -
10 S p1 weight 6
10 S p2 weight 6
11 p1 p2 pair 1 6
11 p2 p1 pair 2 -
12 p1 S winner 1
13 S p2 final 2:7
"""


def test_instance_a_dist_trace_golden(instance_a):
    # phase 9 is the silent winner slot for the item nothing can fit
    from mkpsim import render_trace

    run = run_algorithm("dist", instance_a)
    assert render_trace(run.trace) == GOLDEN_DIST_TRACE_A


# SHA-256 of render_trace, with the run's message and phase counts, for
# seeded instances beyond instance A.  The digests come from an engine that
# sorted each whole phase by (sender, recipient), so they pin that order
# independently of how the engine obtains it.
GOLDEN_INSTANCES = {
    # (m, n, cost_max, weight_max, cap_min, cap_max, seed)
    "random-m25-n7": GenParams(25, 7, 50, 50, 1, 100, seed=11),
    "random-m4-n100": GenParams(4, 100, 50, 50, 1, 100, seed=3),  # tree depth 6
    "random-m30-n3-tight": GenParams(30, 3, 50, 80, 1, 60, seed=5),
    "adversarial-n5-W4": (5, 4),
    # every capacity is 100 in the first round: each dist fold of it is a
    # 32-way tie (the dist trace is pinned in CI too)
    "adversarial-n32-W100": (32, 100),
}

GOLDEN_TRACE_DIGESTS = {
    ("random-m25-n7", "simple"): (56, 8, "cb92c6d9fa56c789194d8e79ddd0fd787fe714836aebe31925f046e4ac399f38"),
    ("random-m25-n7", "modified"): (56, 9, "cb92c6d9fa56c789194d8e79ddd0fd787fe714836aebe31925f046e4ac399f38"),
    ("random-m25-n7", "dist"): (1238, 76, "0d483d7337892548b2e4bd352483b2e2416ca333d19758ca2a7ea69e184c49ca"),
    ("random-m25-n7", "tree"): (363, 125, "ab28aeb9d6132eafae8770e4fd8e286f917117903c68175f10870492fc0cc0ca"),
    ("random-m4-n100", "simple"): (200, 2, "0fc81edad1da03e8ff82dfd2ccbcb3ed0f8959532d831eaa0eb173ed0e23cebc"),
    ("random-m4-n100", "modified"): (200, 3, "0fc81edad1da03e8ff82dfd2ccbcb3ed0f8959532d831eaa0eb173ed0e23cebc"),
    ("random-m4-n100", "dist"): (40004, 13, "c234ea4d17c2ff7fcc23a5f2e46235ce1c808fe617d25242f2ebb663355c6f96"),
    ("random-m4-n100", "tree"): (804, 36, "873256cd2be4f4b8e060f564895207f0f0db6bf8fe3688993c2d110c6af14933"),
    ("random-m30-n3-tight", "simple"): (60, 20, "77cc98338e42a224fc703f3c25fe1805580b4e6e59bff30bfb5f0fdd8eb2fa26"),
    ("random-m30-n3-tight", "modified"): (61, 21, "d339b1b017485696adb21be4a1f6235fb9b40481c720d5f3dd477ea397da8995"),
    ("random-m30-n3-tight", "dist"): (276, 91, "bf60b7528e7466d58b2b357bdac3872b7d71ee9f1312f83a30cd323ab72b1a74"),
    ("random-m30-n3-tight", "tree"): (186, 120, "9f61ab4b61ba0714ebaead78df813a53501303ea6a2762da4b6a4402f0abfffe"),
    ("adversarial-n5-W4", "simple"): (20, 4, "d91f0dff49fdb2eb9ccb87ac86317ffb227893d77216385f81e2789618adafa4"),
    ("adversarial-n5-W4", "modified"): (25, 5, "9c389346030f3b052f32f20b06ba082638d44de6238de088ac9472ab10629d32"),
    ("adversarial-n5-W4", "dist"): (260, 31, "fdb6e38227e844a9c4985e45f05445b680aae5f36560163b3ad1deb0f8e42ac5"),
    ("adversarial-n5-W4", "tree"): (110, 50, "0e97b892a035d4a40efd232180bb36a49b63ad0186665f22a77ff50ef065cbf4"),
    ("adversarial-n32-W100", "simple"): (128, 4, "2f38fb6873a515cf3422fc121c803afb9753c49d33771079422370a86ec3cc59"),
    ("adversarial-n32-W100", "modified"): (160, 5, "1c84a2cbefd0ec41578c5cb2394bd7d2532f6cb540aa92fc5df5cb3bb3662c83"),
    ("adversarial-n32-W100", "dist"): (65600, 193, "8cf2a2044c520525f453e199facd441ef93142f3ca0d2ae4ac59752204704d53"),
    ("adversarial-n32-W100", "tree"): (4160, 512, "2099540fbbf74cc1dacf4b9a63993d479db73fc4e431f849f699982782ee2df5"),
    ("evicting-m332-n18", "simple"): (684, 38, "7c42faef892f54ea8bef460de5d314c491762a1fbb4f7af7131981c4fb942aa3"),
    ("evicting-m332-n18", "modified"): (702, 39, "d5c2b227a677f0ad24019271ffac183cc0c5d92e9b7ba8ee2a2568bfa5195881"),
    ("evicting-m332-n18", "dist"): (107634, 997, "4132730a0fffe716dc59ce9e9a3a4494f888487843325157ea61122376935512"),
    ("evicting-m332-n18", "tree"): (12018, 2324, "7a21d583b16d851f6a7ab56f20e0113fc0b52f8e8585cba99122c26b65831bff"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_INSTANCES))
def test_seeded_traces_match_golden_digests(case):
    spec = GOLDEN_INSTANCES[case]
    inst = gen_random(spec) if isinstance(spec, GenParams) else gen_adversarial(*spec)
    for name in ALGORITHMS:
        run = run_algorithm(name, inst)
        digest = hashlib.sha256(render_trace(run.trace).encode()).hexdigest()
        assert (run.messages, run.phases, digest) == GOLDEN_TRACE_DIGESTS[case, name], name


def evicting_instance() -> Instance:
    """``gen_adversarial(16, 20)`` plus 300 fillers of density <= 3/5,
    shuffled, with two capacity-3 knapsacks after the sixteen of capacity 20.

    Greedy leaves a light item and some fillers in every capacity-20
    knapsack; the reassignment pass swaps each of them for a heavy item, and
    the two small knapsacks then take light items evicted earlier.
    """
    rng = random.Random(2024)
    pairs = [(it.cost, it.weight) for it in gen_adversarial(16, 20).items]
    pairs += [(rng.randint(1, 3), rng.randint(5, 50)) for _ in range(300)]
    rng.shuffle(pairs)
    return Instance.from_pairs(pairs, [20] * 16 + [3, 3])


def test_evicting_instance_matches_golden_digests():
    # digests taken before the reassignment pass and check_feasible were
    # rewritten around a single grouping pass
    inst = evicting_instance()
    for name in ALGORITHMS:
        run = run_algorithm(name, inst)
        digest = hashlib.sha256(render_trace(run.trace).encode()).hexdigest()
        assert (run.messages, run.phases, digest) == GOLDEN_TRACE_DIGESTS[
            "evicting-m332-n18", name
        ], name
        if name == "simple":
            continue
        pre = run.pre_final_assignment
        assert run.changed_knapsacks == tuple(range(18)), name
        pre_groups = items_by_knapsack(pre, inst)
        assert all(len(pre_groups[j]) > 1 for j in range(16)), name
        final_groups = items_by_knapsack(run.assignment, inst)
        for j in (16, 17):
            (taken,) = final_groups[j]
            assert pre.placement[taken] in range(16), name  # evicted earlier


class TestOneRecordPerBroadcast:
    """A ``dist`` run keeps one record per ``PEERS`` send: each round's offer
    from S and each processor's pair are one record apiece."""

    CASES = {**GOLDEN_INSTANCES, "random-m100-n64": GenParams(100, 64, 50, 50, 1, 100, seed=1)}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_a_round_is_n_plus_one_records(self, case):
        spec = self.CASES[case]
        inst = gen_random(spec) if isinstance(spec, GenParams) else gen_adversarial(*spec)
        run = run_algorithm("dist", inst)
        everyone = range(1, inst.n + 1)
        offers = [d for d in run.trace if isinstance(d.payload, WeightOffer)]
        assert len(offers) == inst.m
        assert all(d.sender == SOURCE and d.recipient == everyone for d in offers)
        # m(n + 1) records: each round's offer and one pair per processor;
        # then a winner report per item placed and a directive per change
        placed = len(run.pre_final_assignment.assigned_items())
        assert len(run.trace) == inst.m * (inst.n + 1) + placed + len(run.changed_knapsacks)
        if case == "random-m100-n64":
            assert len(run.trace) == 6593


# Trees with a node that must send without having mail: at n = 5, 12 and 33
# some childless nodes sit one level above the bottom (p3 of 5, p7 of 12,
# p17..p31 of 33), and n = 2, 3, 6 cover a lone child, a full tree and a
# node with one child.  ``dist`` is the control.  Digests taken before the
# engine stepped only the nodes with mail or a wake-up.
WAKEUP_TREE_NS = (2, 3, 5, 6, 12, 33)

WAKEUP_TRACE_DIGESTS = {
    (2, "dist"): (43, 31, "45d0c69e16866fa28f29fcf4cac2bc08b7606d8955eeaca6c81c7a4ecb0d2f52"),
    (2, "tree"): (43, 40, "359895f6e94539011135066afaace6d59e5320a62ed88473c0974c2e08d9f4f9"),
    (3, "dist"): (119, 40, "6322b9d7e79f14bae60f00ef4d75c6cfe1d46877b5a8dde509d19ef41c8294e0"),
    (3, "tree"): (80, 52, "84ca9660b2af83062899335e15f9890fa4d6ccb18e1da248e03e12fcc4228540"),
    (5, "dist"): (483, 58, "4b725d3210ba1fc719595e7c0ffe83682978e2e66558e4241545e201e768a52f"),
    (5, "tree"): (198, 95, "6e3cfd3a63b93ead8ef516c03f0c4e48b480c9116503f2cca028d1b6d7efa69d"),
    (6, "dist"): (801, 67, "1315a2fd8150e7b62b66978f0a472a014b2ded255ee76406db0f99c539810f06"),
    (6, "tree"): (273, 110, "043eae4966257b8870c0e92d8378d5ef2342089c989c3c315612fce8e834ecfe"),
    (12, "dist"): (5780, 121, "ded7cb5e92ed61e1f04dc76fdc681ffc8ad139526d8cf5866fea5369f4d1f093"),
    (12, "tree"): (980, 240, "225df805192be04dce25ef708fb06b60be4e535fef01a9875647424c667fdd93"),
    (33, "dist"): (112235, 310, "a3d5cdf3085879184993e9f2b7ab6903dff5801579af1f29881eecc7e7f7a678"),
    (33, "tree"): (6866, 824, "62fed3171b4f680c90500688ed368bbbcd45fe17ed52187416dfae06b19dbb69"),
}


@pytest.mark.parametrize("n", WAKEUP_TREE_NS)
def test_wakeup_trees_match_golden_digests(n):
    inst = gen_random(GenParams(3 * n + 4, n, 50, 60, 1, 80, seed=600 + n))
    for name in ("dist", "tree"):
        run = run_algorithm(name, inst)
        digest = hashlib.sha256(render_trace(run.trace).encode()).hexdigest()
        assert (run.messages, run.phases, digest) == WAKEUP_TRACE_DIGESTS[n, name], name


# (m, n, weight_max, cap_max, seed): non-power-of-two n up to 70 (tree depth
# up to 6), m up to 300; the tight capacities leave items for the
# reassignment pass.
DIFFERENTIAL_CASES = [
    (300, 3, 50, 100, 1),
    (240, 6, 60, 40, 2),
    (150, 11, 50, 100, 3),
    (90, 23, 80, 50, 4),
    (45, 37, 50, 100, 5),
    (30, 50, 90, 40, 6),
    (12, 70, 50, 100, 7),
]


@pytest.mark.parametrize("m,n,weight_max,cap_max,seed", DIFFERENTIAL_CASES)
def test_differential_sweep_at_depth(m, n, weight_max, cap_max, seed):
    inst = gen_random(GenParams(m, n, 50, weight_max, 1, cap_max, seed=seed))
    runs = {name: run_algorithm(name, inst) for name in ALGORITHMS}
    sequential = strict_sequential_greedy(inst).assignment.placement
    assert runs["dist"].pre_final_assignment.placement == sequential
    assert runs["tree"].pre_final_assignment.placement == sequential
    assert runs["dist"].assignment.placement == runs["tree"].assignment.placement
    batch = batch_round_greedy(inst).assignment.placement
    assert runs["simple"].assignment.placement == batch
    assert runs["modified"].pre_final_assignment.placement == batch

    rounds = -(-m // n)
    levels = n.bit_length() - 1
    assigned = sum(k is not None for k in sequential.values())
    ch = {name: len(run.changed_knapsacks) for name, run in runs.items()}
    expected = {
        "simple": (2 * n * rounds, 2 * rounds),
        "modified": (2 * n * rounds + ch["modified"], 2 * rounds + 1),
        "dist": (m * n * n + assigned + ch["dist"], 3 * m + 1),
        "tree": (2 * m * n + assigned + ch["tree"], m * (levels + 3)),
    }
    for name, run in runs.items():
        assert (run.messages, run.phases) == expected[name], name
        assert metrics_of(run.trace).messages == run.messages
        assert check_feasible(run.assignment, inst) is None


def test_dist_past_n_64():
    # n = 127, a non-power-of-two past the sweep above: 1.6M messages, most
    # of them in multicasts, and tight capacities for the reassignment pass
    inst = gen_random(GenParams(100, 127, 50, 80, 1, 40, seed=8))
    run = run_algorithm("dist", inst)
    sequential = strict_sequential_greedy(inst).assignment.placement
    assert run.pre_final_assignment.placement == sequential
    assigned = sum(k is not None for k in sequential.values())
    changed = len(run.changed_knapsacks)
    assert (assigned, changed) == (41, 11)
    assert run.messages == PROTOCOLS["dist"].messages(inst, assigned, changed) == 1_612_952
    assert render_trace(run.trace).count("\n") == run.messages


def test_each_run_passes_its_own_phase_bound(monkeypatch, instance_a):
    # an engine default far below every run's phase count (13 for dist, 16
    # for tree on instance A) changes nothing: each protocol passes its own
    # bound, the phase its source halts in plus one phase that drains
    import mkpsim.algorithms as algorithms

    expected = {name: run_algorithm(name, instance_a) for name in ALGORITHMS}
    engine = algorithms.run_protocol
    bounds = []

    def capped(source, processors, **kwargs):
        kwargs.setdefault("max_phases", 2)
        bounds.append(kwargs["max_phases"])
        return engine(source, processors, **kwargs)

    monkeypatch.setattr(algorithms, "run_protocol", capped)
    for name in ALGORITHMS:
        run = run_algorithm(name, instance_a)
        assert bounds.pop() == run.phases + 1 > 2
        assert render_trace(run.trace) == render_trace(expected[name].trace)


class TestRunAlgorithmDispatch:
    def test_unknown_name_rejected(self, instance_a):
        with pytest.raises(ValueError):
            run_algorithm("bogus", instance_a)

    def test_runs_are_deterministic(self, instance_a):
        from mkpsim import render_trace

        for name in ("simple", "modified", "dist", "tree"):
            first = run_algorithm(name, instance_a)
            second = run_algorithm(name, instance_a)
            assert render_trace(first.trace) == render_trace(second.trace)
            assert first.assignment.placement == second.assignment.placement


def adversarial_with_fillers(n: int, W: int, fillers: int, seed: int) -> Instance:
    """The adversarial family for (n, W) plus ``fillers`` light items of
    density at most 3/5, shuffled: the shape of the ``batch-wide``
    benchmark, where the reassignment pass swaps every knapsack."""
    rng = random.Random(seed)
    pairs = [(it.cost, it.weight) for it in gen_adversarial(n, W).items]
    pairs += [(rng.randint(1, 3), rng.randint(5, 50)) for _ in range(fillers)]
    rng.shuffle(pairs)
    return Instance.from_pairs(pairs, [W] * n)


def assert_same_run_without_trace(name, inst):
    """A run that keeps no trace returns everything a traced run does:
    assignments, pre-final assignments, profits, changed knapsacks,
    ``RunMetrics`` (messages and phases) and rounds."""
    traced = run_algorithm(name, inst)
    bare = run_algorithm(name, inst, keep_trace=False)
    assert traced.trace is not None and bare.trace is None
    assert bare == replace(traced, trace=None)
    return bare


class TestRunsWithoutTrace:
    @settings(max_examples=60, deadline=None)
    @given(small_instances(max_m=8, max_n=5))
    def test_small_instances(self, inst):
        for name in ALGORITHMS:
            assert_same_run_without_trace(name, inst)

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_adversarial_with_fillers(self, name):
        inst = adversarial_with_fillers(8, 100, 300, seed=5)
        run = assert_same_run_without_trace(name, inst)
        if name != "simple":
            # the pass swaps every knapsack for a heavy item
            assert run.changed_knapsacks == tuple(range(8)) and run.profit == 8 * 100


def _scaled(inst, cost=1, weight=1):
    """``inst`` with every cost times ``cost`` and every weight and capacity
    times ``weight``."""
    return Instance.from_pairs(
        [(it.cost * cost, it.weight * weight) for it in inst.items],
        [c * weight for c in inst.capacities],
    )


def _shape(run):
    """What a run decided and what it cost, apart from its profit."""
    return (
        run.assignment.placement,
        run.pre_final_assignment.placement,
        run.messages,
        run.phases,
        run.rounds,
        run.changed_knapsacks,
    )


class TestMetamorphicRelations:
    """Exact relations between runs of related instances, none of which
    needs an oracle: they hold at any size.  Every protocol runs at every
    size here, ``dist`` too (n <= 40)."""

    SIZES = [(0, 1), (1, 1), (3, 2), (8, 3), (20, 5), (40, 8), (80, 13), (120, 20), (200, 33)]
    FACTORS = (7, 10**20 + 3)

    @pytest.mark.parametrize("m,n", SIZES, ids=[f"m{m}-n{n}" for m, n in SIZES])
    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_scaling_and_an_item_that_fits_nowhere(self, name, m, n):
        inst = gen_random(GenParams(m, n, 50, 50, 1, 100, seed=m + n))
        base = run_algorithm(name, inst, keep_trace=False)
        for k in self.FACTORS:
            # every cost times k: the same run, k times the profit
            run = run_algorithm(name, _scaled(inst, cost=k), keep_trace=False)
            assert _shape(run) == _shape(base), k
            assert (run.profit, run.pre_final_profit) == (
                k * base.profit, k * base.pre_final_profit
            ), k
            # every weight and capacity times k: the same run
            run = run_algorithm(name, _scaled(inst, weight=k), keep_trace=False)
            assert _shape(run) + (run.profit,) == _shape(base) + (base.profit,), k
        if not PROTOCOLS[name].one_item_per_round:
            return
        # an item heavier than every knapsack, and the densest: one more
        # round, in which every processor reports no room and nobody wins
        heavy = Instance.from_pairs(
            [(it.cost, it.weight) for it in inst.items]
            + [(51 * (max(inst.capacities) + 1), max(inst.capacities) + 1)],
            inst.capacities,
        )
        run = run_algorithm(name, heavy, keep_trace=False)
        assert run.assignment.placement == {**base.assignment.placement, m: None}
        assert run.pre_final_assignment.placement == {
            **base.pre_final_assignment.placement, m: None
        }
        assert run.rounds == base.rounds + 1
        assert run.messages == base.messages + (n * n if name == "dist" else 2 * n)
        assert (run.profit, run.changed_knapsacks) == (base.profit, base.changed_knapsacks)
