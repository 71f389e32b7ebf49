import math
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate, combinations

import pytest
from hypothesis import given, settings, strategies as st

from mkpsim import GenParams, Instance, check_feasible, gen_adversarial, gen_random, objective
from mkpsim import oracle
from mkpsim.oracle import (
    OptimalSolution,
    _build_assignment,
    _subset_sums,
    _suffix_table,
    approx_ratio,
    batch_round_greedy,
    bound_holds,
    brute_force_optimum,
    exact_optimum,
    strict_sequential_greedy,
)

from conftest import small_instances


def family_optimum(n: int, W: int) -> int:
    """Independent closed form for the adversarial family: devote L knapsacks
    to unit-weight items (profit 2 each, at most W per knapsack) and fill the
    rest with one heavy item each; maximize over L."""
    return max(2 * min(n, L * W) + (n - L) * W for L in range(n + 1))


class TestExactOptimum:
    def test_family_n2_w10(self):
        opt = exact_optimum(gen_adversarial(2, 10))
        assert opt.opt == 20
        assert check_feasible(opt.assignment, gen_adversarial(2, 10)) is None

    def test_empty_instance(self):
        opt = exact_optimum(Instance.from_pairs([], [7]))
        assert opt.opt == 0

    def test_instance_a(self, instance_a):
        opt = exact_optimum(instance_a)
        assert opt.opt == 21
        assert objective(opt.assignment, instance_a) == 21
        assert check_feasible(opt.assignment, instance_a) is None

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    @pytest.mark.parametrize("W", [3, 10, 100])
    def test_family_grid_matches_closed_form(self, n, W):
        opt = exact_optimum(gen_adversarial(n, W))
        assert opt.opt == family_optimum(n, W)

    def test_budget_exhaustion_is_explicit(self):
        assert exact_optimum(gen_adversarial(8, 100), node_budget=3) is None

    def test_a_budget_of_exactly_the_nodes_explored_suffices(self, instance_a):
        full = exact_optimum(instance_a)
        k = full.explored
        exact = exact_optimum(instance_a, node_budget=k)
        assert exact is not None and (exact.opt, exact.explored) == (21, k)
        assert exact_optimum(instance_a, node_budget=k - 1) is None

    def test_search_1500_items_deep_is_certified(self):
        # gen-random --m 1500 --n 2 --seed 1: the search is one level deeper
        # per item; 2640 is confirmed by an independent two-knapsack DP
        inst = gen_random(GenParams(1500, 2, 50, 50, 1, 100, seed=1))
        opt = exact_optimum(inst)
        assert opt is not None and (opt.opt, opt.explored) == (2640, 4556)
        assert check_feasible(opt.assignment, inst) is None
        assert objective(opt.assignment, inst) == 2640

    def test_memo_keeps_only_states_that_pass_the_bound(self):
        # 5,842 nodes; under the pooled table bound alone the search took
        # 76,286, under the Dantzig bound alone 164,663, and recording every
        # visited state there, bound-pruned ones included, peaked at 21.2 MiB
        inst = gen_random(GenParams(16, 5, 50, 50, 1, 100, seed=1))
        tracemalloc.start()
        try:
            solution = exact_optimum(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (solution.opt, solution.explored) == (351, 5842)
        assert peak < 15 * 2**20

    @pytest.mark.parametrize("cap", [0, 100])
    def test_the_memo_records_no_state_past_its_cap(self, monkeypatch, cap):
        memos = []  # every per-depth memo of the searches below

        class CountedDict(dict):
            def __init__(self):
                memos.append(self)

        monkeypatch.setattr(oracle, "dict", CountedDict, raising=False)
        inst = gen_random(GenParams(16, 5, 50, 50, 1, 100, seed=1))
        full = exact_optimum(inst)
        assert sum(map(len, memos)) == 1488
        memos.clear()
        monkeypatch.setattr(oracle, "MEMO_STATE_CAP", cap)
        capped = exact_optimum(inst)
        assert sum(map(len, memos)) == cap
        assert capped.opt == full.opt
        assert capped.assignment.placement == full.assignment.placement
        assert capped.explored > full.explored

    def test_solution_is_repeatable(self, instance_a):
        first = exact_optimum(instance_a)
        second = exact_optimum(instance_a)
        assert first.assignment.placement == second.assignment.placement


def _pinned_instance(key):
    if key[0] == "adversarial":
        return gen_adversarial(*key[1:])
    m, n, seed = key[1:]
    return gen_random(GenParams(m, n, 50, 50, 1, 100, seed=seed))


class TestSearchOrder:
    """Golden (OPT, explored) pairs: ``explored`` counts every node the
    branch and bound visits, so these pin its visit order, its bounds, the
    node at which it builds its table and both dominance rules, not just the
    optimum it finds.  The tiny instances pin that ``exact_optimum`` takes
    the branch and bound at every size: on each of them with m > 0,
    ``brute_force_optimum`` visits more nodes."""

    @pytest.mark.parametrize(
        "key, opt, explored",
        [
            (("random", 0, 3, 1), 0, 1),
            (("random", 4, 1, 1), 81, 11),
            (("random", 6, 1, 3), 143, 11),
            (("random", 5, 2, 1), 136, 14),
            (("random", 6, 2, 6020059), 99, 15),
            (("adversarial", 2, 10), 20, 17),
            (("adversarial", 8, 100), 800, 984),
            (("random", 10, 3, 1), 254, 141),
            (("random", 12, 3, 1), 317, 204),
            (("random", 15, 4, 2), 257, 386),
            (("random", 15, 5, 1), 313, 417),
            (("random", 16, 5, 1), 351, 5842),
            (("random", 20, 4, 2), 189, 469),
            # the pooled table bound alone gives up on it after 5M nodes
            (("random", 30, 8, 30080147), 883, 64431),
        ],
        ids=lambda v: "-".join(map(str, v)) if isinstance(v, tuple) else None,
    )
    def test_opt_and_nodes_explored_are_pinned(self, key, opt, explored):
        inst = _pinned_instance(key)
        solution = exact_optimum(inst)
        assert (solution.opt, solution.explored) == (opt, explored)
        assert objective(solution.assignment, inst) == opt
        assert check_feasible(solution.assignment, inst) is None

    @pytest.mark.parametrize(
        "capacities, placement",
        [
            ([4, 4, 4], {0: 0, 1: 1, 2: 2, 3: 2}),
            ([5, 3, 5, 3], {0: 0, 1: 2, 2: 1, 3: 3, 4: 2}),
        ],
    )
    def test_equal_capacities_branch_to_the_smallest_index(self, capacities, placement):
        # knapsacks of equal remaining capacity are interchangeable, so a
        # search that tried the largest index first would find the same OPT
        # in as many nodes: only the placement shows the tie order
        items = [(9, 3), (7, 3), (4, 2), (2, 2), (3, 1)][: len(placement)]
        solution = exact_optimum(Instance.from_pairs(items, capacities))
        assert solution.assignment.placement == placement


WIDE = Instance.from_pairs(  # CI's wide instance: ~400-digit costs, a 2**60 capacity
    [(1, 1), (2**60 + 1, 2**60), (10**400 - 1, 3), (7 * 10**399, 2)], [2**60 + 5, 4]
)


@pytest.fixture
def tables_built(monkeypatch):
    """The arguments of every suffix table the search builds."""
    built = []

    def spy(*args):
        built.append(args)
        return _suffix_table(*args)

    monkeypatch.setattr(oracle, "_suffix_table", spy)
    return built


@st.composite
def knapsack_items(draw, max_m=7):
    """(weights, costs, capacity) of a single knapsack, items in density
    order (ties by the order drawn)."""
    pairs = draw(st.lists(st.tuples(st.integers(0, 20), st.integers(1, 12)), max_size=max_m))
    inst = Instance.from_pairs(pairs, [0])
    order = inst.density_order
    weights = [inst.items[i].weight for i in order]
    costs = [inst.items[i].cost for i in order]
    return weights, costs, draw(st.integers(0, 40))


@st.composite
def searches(draw):
    """Instances of up to 14 items and 6 knapsacks, their sizes drawn first,
    so that about a third of the certified searches build a table."""
    m, n = draw(st.integers(0, 14)), draw(st.integers(1, 6))
    pair = st.tuples(st.integers(0, 50), st.integers(1, 30))
    pairs = draw(st.lists(pair, min_size=m, max_size=m))
    return Instance.from_pairs(pairs, draw(st.lists(st.integers(0, 60), min_size=n, max_size=n)))


@st.composite
def table_searches(draw):
    """Instances of 14 to 20 items and 3 to 8 knapsacks, whose searches
    mostly run long enough to build their table."""
    m, n = draw(st.integers(14, 20)), draw(st.integers(3, 8))
    pair = st.tuples(st.integers(1, 50), st.integers(1, 30))
    pairs = draw(st.lists(pair, min_size=m, max_size=m))
    return Instance.from_pairs(pairs, draw(st.lists(st.integers(1, 60), min_size=n, max_size=n)))


class TestSuffixTable:
    @settings(max_examples=80, deadline=None)
    @given(knapsack_items())
    def test_each_cell_is_the_single_knapsack_optimum(self, items):
        weights, costs, capacity = items
        table = _suffix_table(weights, costs, capacity)
        m = len(weights)
        assert len(table) == m + 1
        for k in range(m + 1):
            subsets = [
                (sum(weights[i] for i in chosen), sum(costs[i] for i in chosen))
                for r in range(m - k + 1)
                for chosen in combinations(range(k, m), r)
            ]
            want = [max(p for w, p in subsets if w <= c) for c in range(capacity + 1)]
            assert table[k] == want

    @settings(max_examples=80, deadline=None)
    @given(knapsack_items(max_m=12))
    def test_no_cell_exceeds_the_floor_of_the_dantzig_bound(self, items):
        weights, costs, capacity = items
        table = _suffix_table(weights, costs, capacity)
        for k in range(len(weights) + 1):
            for c in range(capacity + 1):
                bound, left = Fraction(0), c  # the fractional fill, densest first
                for w, p in zip(weights[k:], costs[k:]):
                    take = min(w, left)
                    bound += Fraction(p * take, w)
                    left -= take
                assert table[k][c] <= math.floor(bound)

    @settings(max_examples=80, deadline=None)
    @given(knapsack_items(max_m=10))
    def test_subset_sums_are_those_of_each_suffix(self, items):
        weights, _, capacity = items
        reach = _subset_sums(weights, capacity)
        m = len(weights)
        assert len(reach) == m + 1
        for k in range(m + 1):
            sums = {
                sum(weights[i] for i in chosen)
                for r in range(m - k + 1)
                for chosen in combinations(range(k, m), r)
            }
            assert reach[k] == sum(1 << c for c in sums if c <= capacity)
            for c in range(capacity + 1):  # the fill of a knapsack of capacity c
                fill = (reach[k] & ((2 << c) - 1)).bit_length() - 1
                assert fill == max(w for w in sums if w <= c)

    def test_past_the_cap_no_table_is_built(self, tables_built):
        solution = exact_optimum(WIDE)
        assert tables_built == []
        assert solution.opt == brute_force_optimum(WIDE).opt
        assert check_feasible(solution.assignment, WIDE) is None

    @pytest.mark.parametrize("margin, explored", [(-1, 3131), (0, 204)])
    def test_the_cap_counts_every_cell(self, monkeypatch, margin, explored):
        # one cell short of the cap, the search is the Dantzig search, node
        # for node; at the cap it builds the table and its subset sums and
        # takes fewer nodes
        inst = gen_random(GenParams(12, 3, 50, 50, 1, 100, seed=1))
        cells = (inst.m + 1) * (sum(inst.capacities) + 1)
        monkeypatch.setattr(oracle, "TABLE_CELL_CAP", cells + margin)
        solution = exact_optimum(inst)
        assert (solution.opt, solution.explored) == (317, explored)

    def test_the_table_is_built_once_the_search_has_spent_its_cost(self, tables_built):
        inst = gen_random(GenParams(12, 3, 50, 50, 1, 100, seed=1))
        cells = (inst.m + 1) * (sum(inst.capacities) + 1)
        build_at = cells // oracle.CELLS_PER_NODE + 1
        assert exact_optimum(inst, node_budget=build_at - 1) is None
        assert tables_built == []
        exact_optimum(inst, node_budget=build_at)
        assert len(tables_built) == 1

    def test_a_short_search_builds_no_table(self, tables_built):
        # most searches are this short: the verify-sweep grid's median is 17 nodes
        solution = exact_optimum(gen_random(GenParams(5, 2, 50, 50, 1, 100, seed=1)))
        assert (solution.opt, solution.explored) == (136, 14)
        assert tables_built == []


class TestAgainstTheDantzigSearch:
    """The search against :func:`reference_search` without its table, the
    same search with the Dantzig test at every node, and, past brute-force
    sizes, against :func:`two_knapsack_optimum`."""

    @settings(max_examples=400, deadline=None)
    @given(searches(), st.integers(1, 20_000))
    def test_same_optimum_and_placement_in_no_more_nodes(self, inst, node_budget):
        reference = reference_search(inst, node_budget, table=False)
        if reference is None:
            return  # the reference gave up: nothing certified to compare with
        solution = exact_optimum(inst, node_budget=node_budget)
        assert solution is not None
        assert solution.opt == reference.opt
        assert solution.assignment.placement == reference.assignment.placement
        assert solution.explored <= reference.explored

    @pytest.mark.parametrize("m", [30, 40, 50, 60])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_two_knapsacks_agree_with_an_independent_dp(self, tables_built, m, seed):
        inst = gen_random(GenParams(m, 2, 50, 50, 1, 100, seed=seed))
        solution = exact_optimum(inst)
        assert len(tables_built) == 1  # the table bound pruned the search's tail
        assert solution.opt == two_knapsack_optimum(inst)
        assert objective(solution.assignment, inst) == solution.opt
        assert check_feasible(solution.assignment, inst) is None


class TestAgainstTheTableSearch:
    """The search against :func:`reference_search` with its table, the
    search as it was before the subset-sum fill bound and the memo cap."""

    @settings(max_examples=60, deadline=None)
    @given(table_searches())
    def test_same_optimum_and_placement_in_no_more_nodes(self, inst):
        reference = reference_search(inst, 30_000, table=True)
        if reference is None:
            return  # the reference gave up: nothing certified to compare with
        solution = exact_optimum(inst)
        assert solution is not None
        assert solution.opt == reference.opt
        assert solution.assignment.placement == reference.assignment.placement
        assert solution.explored <= reference.explored


def reference_search(inst: Instance, node_budget: int, *, table: bool) -> OptimalSolution | None:
    """The branch and bound as it was before the subset-sum fill bound and
    the memo cap: the same visit order, memo and budget, with the Dantzig
    test at every node until, when ``table`` is set, the search has spent
    its suffix table's cost, and the pooled table test from then on.
    Without ``table`` it is the search as it was before the suffix table."""
    order = inst.density_order
    m = inst.m
    weights = [inst.items[i].weight for i in order]  # per density position
    costs = [inst.items[i].cost for i in order]
    wsum = [0, *accumulate(weights)]  # wsum[k]: weight of the first k items
    csum = [0, *accumulate(costs)]
    remaining = list(inst.capacities)
    capacity = sum(remaining)
    cells = (m + 1) * (capacity + 1)
    build_at = -1
    if table and cells <= oracle.TABLE_CELL_CAP:
        build_at = cells // oracle.CELLS_PER_NODE + 1
    best = None  # the suffix table, once built
    placement: list[int | None] = [None] * m  # per density position
    best_profit = -1
    best_placement: list[int | None] = list(placement)
    seen: list[dict[tuple[int, ...], int]] = [{} for _ in range(m)]  # per depth
    explored = 0

    def children(idx: int, profit: int, pool: int, state: tuple[int, ...]):
        weight, cost = weights[idx], costs[idx]
        last_cap = None
        for cap in reversed(state):
            if cap < weight:
                break  # capacities only fall from here on
            if cap == last_cap:
                continue
            last_cap = cap
            j = remaining.index(cap)
            remaining[j] -= weight
            placement[idx] = j
            yield idx + 1, profit + cost, pool - weight
            placement[idx] = None
            remaining[j] += weight
        yield idx + 1, profit, pool

    stack = [iter([(0, 0, capacity)])]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        explored += 1
        if explored > node_budget:
            return None
        if explored == build_at:
            best = _suffix_table(weights, costs, capacity)
        idx, profit, pool = node
        if idx == m:
            if profit > best_profit:
                best_profit = profit
                best_placement = list(placement)
            continue
        if best is not None:
            if profit + best[idx][pool] <= best_profit:
                continue
        else:
            # items idx..k-1 fit whole in the pool; item k, if any, is critical
            k = bisect_right(wsum, wsum[idx] + pool, idx + 1) - 1
            bound = profit + csum[k] - csum[idx]
            if k == m:
                if bound <= best_profit:
                    continue
            else:
                weight = weights[k]
                left = pool - (wsum[k] - wsum[idx])
                if bound * weight + left * costs[k] <= best_profit * weight:
                    continue
        state = tuple(sorted(remaining))
        memo = seen[idx]
        if profit <= memo.get(state, -1):
            continue
        memo[state] = profit
        stack.append(children(idx, profit, pool, state))

    by_item: list[int | None] = [None] * m
    for pos, j in enumerate(best_placement):
        by_item[order[pos]] = j
    return OptimalSolution(_build_assignment(inst, by_item), best_profit, explored)


def two_knapsack_optimum(inst: Instance) -> int:
    """The exact optimum of a two-knapsack instance by a DP over the items in
    id order, whose states are the sorted pairs of remaining capacities, each
    with the best profit that reaches it.  No bound, no order, no memo of
    the search's."""
    assert inst.n == 2
    states = {tuple(sorted(inst.capacities)): 0}
    for item in inst.items:
        after = dict(states)
        for (lo, hi), profit in states.items():
            for a, b in ((lo - item.weight, hi), (hi - item.weight, lo)):
                if a >= 0:
                    key = (a, b) if a <= b else (b, a)
                    if after.get(key, -1) < profit + item.cost:
                        after[key] = profit + item.cost
        states = after
    return max(states.values())


class TestBruteForce:
    def test_guard_rejects_huge_instances(self):
        inst = Instance.from_pairs([(1, 1)] * 30, [9, 9, 9])
        with pytest.raises(ValueError):
            brute_force_optimum(inst)

    def test_instance_a(self, instance_a):
        opt = brute_force_optimum(instance_a)
        assert opt.opt == 21
        assert opt.explored > 0

    @settings(max_examples=150, deadline=None)
    @given(small_instances())
    def test_branch_and_bound_agrees_with_enumeration(self, inst):
        brute = brute_force_optimum(inst)
        exact = exact_optimum(inst, node_budget=10**6)
        assert exact is not None
        assert exact.opt == brute.opt
        assert objective(exact.assignment, inst) == exact.opt
        assert check_feasible(exact.assignment, inst) is None


class TestGreedyRecomputations:
    def test_strict_sequential_on_instance_a(self, instance_a):
        assert strict_sequential_greedy(instance_a).profit == 17

    def test_strict_sequential_single_knapsack_everything_fits(self):
        inst = Instance.from_pairs([(4, 1), (9, 2), (1, 3)], [10])
        solution = strict_sequential_greedy(inst)
        assert solution.profit == 14
        assert solution.assignment.assigned_items() == [0, 1, 2]

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_strict_sequential_family_picks_light_items(self, n):
        assert strict_sequential_greedy(gen_adversarial(n, 10)).profit == 2 * n

    def test_batch_on_instance_a(self, instance_a):
        assert batch_round_greedy(instance_a).profit == 14

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_batch_family_picks_light_items(self, n):
        assert batch_round_greedy(gen_adversarial(n, 10)).profit == 2 * n

    @settings(max_examples=60, deadline=None)
    @given(small_instances(max_m=1))
    def test_batch_equals_sequential_below_two_items(self, inst):
        batch = batch_round_greedy(inst)
        sequential = strict_sequential_greedy(inst)
        assert batch.assignment.placement == sequential.assignment.placement


class TestBoundAndRatio:
    def test_instance_a_bound_holds_after_final(self, instance_a):
        opt = exact_optimum(instance_a)
        assert bound_holds(18, opt, 2)  # 54 >= 21

    def test_zero_profit_zero_opt(self):
        opt = OptimalSolution(None, 0, 0)
        assert bound_holds(0, opt, 3)

    def test_pre_final_family_value_fails_the_bound(self):
        opt = exact_optimum(gen_adversarial(2, 10))
        assert opt.opt == 20
        assert not bound_holds(4, opt, 2)  # 12 < 20: the reassignment pass is load-bearing

    def test_ratio_family(self):
        opt = exact_optimum(gen_adversarial(2, 10))
        assert approx_ratio(4, opt) == Fraction(1, 5)
        assert approx_ratio(20, opt) == Fraction(1)

    def test_ratio_instance_a(self, instance_a):
        assert approx_ratio(18, exact_optimum(instance_a)) == Fraction(6, 7)

    def test_ratio_defined_as_one_for_zero_opt(self):
        assert approx_ratio(0, OptimalSolution(None, 0, 0)) == Fraction(1)
