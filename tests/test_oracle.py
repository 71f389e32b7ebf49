import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings

from mkpsim import GenParams, Instance, check_feasible, gen_adversarial, gen_random, objective
from mkpsim.oracle import (
    OptimalSolution,
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
        # 164,663 nodes; recording every visited state, bound-pruned ones
        # included, peaked at 21.2 MiB here
        inst = gen_random(GenParams(16, 5, 50, 50, 1, 100, seed=1))
        tracemalloc.start()
        try:
            solution = exact_optimum(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (solution.opt, solution.explored) == (351, 164663)
        assert peak < 15 * 2**20

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
    branch and bound visits, so these pin its visit order, bound and both
    dominance rules, not just the optimum it finds.  The tiny instances pin
    that ``exact_optimum`` takes the branch and bound at every size: on each
    of them with m > 0, ``brute_force_optimum`` visits more nodes."""

    @pytest.mark.parametrize(
        "key, opt, explored",
        [
            (("random", 0, 3, 1), 0, 1),
            (("random", 4, 1, 1), 81, 11),
            (("random", 6, 1, 3), 143, 11),
            (("random", 5, 2, 1), 136, 14),
            (("random", 6, 2, 6020059), 99, 15),
            (("adversarial", 2, 10), 20, 20),
            (("adversarial", 8, 100), 800, 2339),
            (("random", 10, 3, 1), 254, 1190),
            (("random", 12, 3, 1), 317, 3131),
            (("random", 15, 4, 2), 257, 24628),
            (("random", 15, 5, 1), 313, 8053),
            (("random", 16, 5, 1), 351, 164663),
            (("random", 20, 4, 2), 189, 2181),
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
