import hashlib
import pickle
import sys
from fractions import Fraction
from functools import cmp_to_key

import pytest
from hypothesis import given, settings, strategies as st

from mkpsim import (
    Assignment,
    DomainError,
    Instance,
    InstanceFormatError,
    Item,
    check_feasible,
    compare_density,
    instance_digest,
    instance_from_json,
    instance_to_json,
    load_instance,
    objective,
    save_instance,
    sort_by_density,
)
from mkpsim.harness import gen_adversarial
from mkpsim.oracle import strict_sequential_greedy

from conftest import items_by_knapsack, small_instances

A_DIGEST = "0401abf4d0613f8b3fcb83288533e716c2dd9aff75d3d53c3654766539025441"


class TestItemAndInstance:
    def test_zero_weight_rejected(self):
        with pytest.raises(DomainError):
            Item(0, 5, 0)

    def test_negative_cost_rejected(self):
        with pytest.raises(DomainError):
            Item(0, -1, 1)

    def test_bool_fields_rejected(self):
        with pytest.raises(DomainError):
            Item(0, True, 1)

    def test_item_ids_must_match_position(self):
        with pytest.raises(DomainError):
            Instance((Item(1, 2, 3),), (5,))

    def test_at_least_one_knapsack(self):
        with pytest.raises(DomainError):
            Instance((), ())

    def test_empty_item_list_is_fine(self):
        inst = Instance.from_pairs([], [4])
        assert inst.m == 0 and inst.n == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(DomainError):
            Instance.from_pairs([], [-1])

    @pytest.mark.parametrize("bad", ["x", (1, 1, 1), None])
    def test_an_item_that_is_not_an_item_is_rejected(self, bad):
        with pytest.raises(DomainError, match=r"^item at position 1 is not an Item: "):
            Instance((Item(0, 1, 1), bad), (3,))


class TestDerivedValues:
    """``Instance.density_order`` and ``Instance.digest``: computed on first
    use, kept with the instance, and invisible to everything that compares,
    prints or serializes it."""

    @settings(max_examples=50, deadline=None)
    @given(small_instances(max_m=10, max_n=4))
    def test_they_equal_the_functions_they_cache(self, inst):
        assert inst.density_order == tuple(sort_by_density(inst.items))
        assert inst.digest == instance_digest(inst)

    def test_they_are_computed_once(self, instance_a):
        order, digest = instance_a.density_order, instance_a.digest
        assert instance_a.density_order is order and instance_a.digest is digest
        assert isinstance(order, tuple)  # no caller can reorder the shared copy

    def test_a_filled_cache_changes_nothing_observable(self, instance_a):
        filled = instance_from_json(instance_to_json(instance_a))
        filled.density_order, filled.digest  # fill the cache
        fresh = Instance.from_pairs([(8, 4), (6, 4), (7, 7), (3, 6)], [10, 7])
        assert filled == fresh and hash(filled) == hash(fresh)
        assert repr(filled) == repr(fresh)
        assert instance_to_json(filled) == instance_to_json(fresh)
        assert instance_to_json(filled, indent=None) == instance_to_json(fresh, indent=None)
        thawed = pickle.loads(pickle.dumps(filled))
        thawed_fresh = pickle.loads(pickle.dumps(fresh))
        assert thawed == thawed_fresh == fresh
        assert thawed.density_order == thawed_fresh.density_order == (0, 1, 2, 3)
        assert thawed.digest == thawed_fresh.digest == A_DIGEST


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="interpreter has no digit limit"
)
class TestDigitLimit:
    """Integers that ``str()`` cannot print are refused up front, since every
    report, digest and ``repr`` of the instance would fail later."""

    @pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
    @pytest.mark.parametrize(
        "build, what",
        [
            (lambda v: Item(0, v, 1), "item cost"),
            (lambda v: Item(0, 1, v), "item weight"),
            (lambda v: Instance.from_pairs([], [v]), "capacity 0"),
        ],
        ids=["cost", "weight", "capacity"],
    )
    def test_past_the_limit_is_a_domain_error(self, digit_limit, build, what, sign):
        digit_limit(4300)
        # the negative values fail here too, before any sign check
        with pytest.raises(DomainError, match=f"^{what} has more than 4300 decimal digits$"):
            build(sign * 10**5000)

    def test_the_current_limit_is_followed(self, digit_limit):
        digit_limit(640)
        assert Instance.from_pairs([(10**640 - 1, 1)], [10**640 - 1]).m == 1
        with pytest.raises(DomainError, match="more than 640 decimal digits"):
            Instance.from_pairs([], [10**640])
        digit_limit(0)  # no limit at all
        assert Instance.from_pairs([(10**5000, 1)], [1]).items[0].cost == 10**5000

    def test_a_total_cost_past_the_limit_is_a_domain_error(self, digit_limit):
        # each cost prints, but a report's profit may be their sum
        digit_limit(640)
        with pytest.raises(DomainError, match="^total cost has more than 640 decimal digits$"):
            Instance.from_pairs([(10**640 - 1, 1)] * 2, [2])


class TestDensity:
    def test_light_item_beats_proportional_heavy(self):
        assert compare_density(Item(0, 2, 1), Item(1, 10, 10)) == 1

    def test_proportional_items_tie(self):
        assert compare_density(Item(0, 3, 6), Item(1, 1, 2)) == 0

    def test_same_weight_higher_cost_wins(self):
        assert compare_density(Item(0, 8, 4), Item(1, 6, 4)) == 1
        assert compare_density(Item(1, 6, 4), Item(0, 8, 4)) == -1

    @given(
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=1, max_value=10**9),
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=1, max_value=10**9),
    )
    def test_matches_exact_rational_comparison(self, c1, w1, c2, w2):
        got = compare_density(Item(0, c1, w1), Item(1, c2, w2))
        f1, f2 = Fraction(c1, w1), Fraction(c2, w2)
        assert got == (f1 > f2) - (f1 < f2)

    def test_sort_family_ordering(self):
        inst = Instance.from_pairs([(2, 1), (10, 10)], [10])
        assert sort_by_density(inst.items) == [0, 1]

    def test_sort_empty(self):
        assert sort_by_density([]) == []

    def test_sort_mixed(self):
        inst = Instance.from_pairs([(6, 4), (8, 4), (7, 7), (3, 6)], [10])
        assert sort_by_density(inst.items) == [1, 0, 2, 3]

    def test_sort_ties_break_by_ascending_id(self):
        inst = Instance.from_pairs([(4, 2), (2, 1), (6, 3)], [10])
        assert sort_by_density(inst.items) == [0, 1, 2]

    @given(
        st.lists(
            st.tuples(st.integers(0, 100), st.integers(1, 50)), min_size=0, max_size=12
        )
    )
    def test_sort_is_a_deterministic_permutation(self, pairs):
        items = tuple(Item(i, c, w) for i, (c, w) in enumerate(pairs))
        order = sort_by_density(items)
        assert sorted(order) == list(range(len(items)))
        assert order == sort_by_density(items)
        for earlier, later in zip(order, order[1:]):
            d = compare_density(items[earlier], items[later])
            assert d == 1 or (d == 0 and earlier < later)


def sort_by_comparator(items) -> list[int]:
    """The reference order: one exact comparator call per comparison."""

    def cmp(a, b):
        return -compare_density(a, b) or a.id - b.id

    return [it.id for it in sorted(items, key=cmp_to_key(cmp))]


# (cost, weight) pairs that check the density order is exact: repeated
# densities and zero costs, integers up to 10**400 (densities past the float
# range), and near-ties scaled past 2**53, whose densities differ by less than
# the float spacing.
density_pairs = st.one_of(
    st.tuples(st.integers(0, 20), st.integers(1, 12)),
    st.tuples(st.integers(0, 10**400), st.integers(1, 10**400)),
    st.builds(
        lambda c, w, k, d: (max(0, c * k + d), w * k),
        st.integers(0, 20),
        st.integers(1, 12),
        st.integers(2**53, 2**70),
        st.integers(-1, 1),
    ),
)


class TestSortDifferential:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(density_pairs, max_size=12), st.randoms(use_true_random=False))
    def test_matches_the_comparator_sort(self, pairs, rng):
        items = [Item(i, c, w) for i, (c, w) in enumerate(pairs)]
        assert sort_by_density(items) == sort_by_comparator(items)
        rng.shuffle(items)  # the same items in any input order
        assert sort_by_density(items) == sort_by_comparator(items)

    @pytest.mark.parametrize(
        "pairs, expected",
        [
            # both densities round to the float 1.0; only the exact check
            # sees that item 1 is denser
            ([(1, 1), (2**60 + 1, 2**60)], [1, 0]),
            ([(2**60 + 1, 2**60), (1, 1)], [0, 1]),
            ([(2**60 - 1, 2**60), (1, 1)], [1, 0]),
            # densities past the float range
            ([(1, 1), (10**400, 1), (10**400, 3)], [1, 2, 0]),
            # m = 1 (m = 0 is test_sort_empty), and zero costs tied by id
            ([(5, 2)], [0]),
            ([(0, 3), (0, 1), (1, 9)], [2, 0, 1]),
        ],
    )
    def test_named_orders(self, pairs, expected):
        items = Instance.from_pairs(pairs, [1]).items
        assert sort_by_density(items) == expected == sort_by_comparator(items)

    def test_exact_ties_out_of_id_order_in_the_input(self):
        items = [Item(2, 6, 3), Item(0, 4, 2), Item(1, 2, 1)]
        assert sort_by_density(items) == [0, 1, 2]


class TestObjectiveAndFeasibility:
    def test_empty_assignment_scores_zero(self, instance_a):
        assert objective(Assignment.empty(instance_a), instance_a) == 0

    def test_family_light_items_score_four(self):
        inst = Instance.from_pairs([(2, 1), (2, 1), (10, 10), (10, 10)], [10, 10])
        assignment = Assignment.empty(inst)
        assignment.assign(inst, 0, 0)
        assignment.assign(inst, 1, 1)
        assert objective(assignment, inst) == 4

    def test_instance_a_strict_greedy_scores_seventeen(self, instance_a):
        solution = strict_sequential_greedy(instance_a)
        assert objective(solution.assignment, instance_a) == 17

    def test_unknown_item_id_raises(self, instance_a):
        assignment = Assignment.empty(instance_a)
        assignment.placement[9] = 0
        with pytest.raises(DomainError):
            objective(assignment, instance_a)

    def test_unknown_knapsack_raises(self, instance_a):
        assignment = Assignment.empty(instance_a)
        assignment.placement[0] = 5
        with pytest.raises(DomainError):
            objective(assignment, instance_a)

    def test_objective_is_additive(self, instance_a):
        assignment = Assignment.empty(instance_a)
        before = objective(assignment, instance_a)
        assignment.assign(instance_a, 0, 0)
        assert objective(assignment, instance_a) == before + instance_a.item(0).cost

    def test_empty_assignment_is_feasible(self, instance_a):
        assert check_feasible(Assignment.empty(instance_a), instance_a) is None

    def test_overfull_knapsack_reported(self):
        inst = Instance.from_pairs([(1, 10)], [9])
        assignment = Assignment.empty(inst)
        assignment.placement[0] = 0  # bypass assign() to force the violation
        assignment.remaining[0] = -1
        violation = check_feasible(assignment, inst)
        assert violation is not None
        assert "knapsack 0" in violation and "10" in violation and "9" in violation

    def test_stale_remaining_cache_reported(self, instance_a):
        assignment = Assignment.empty(instance_a)
        assignment.assign(instance_a, 0, 0)
        assignment.remaining[0] += 1
        violation = check_feasible(assignment, instance_a)
        assert violation is not None and "remaining" in violation

    def test_unknown_ids_reported(self, instance_a):
        assignment = Assignment.empty(instance_a)
        assignment.placement[77] = 0
        assert "unknown item id 77" in check_feasible(assignment, instance_a)


def first_violation_by_rescanning(assignment, inst):
    """check_feasible restated per knapsack: ids first, then each knapsack's
    load recounted from the whole placement, in index order."""
    if len(assignment.remaining) != inst.n:
        return f"remaining vector has length {len(assignment.remaining)}, expected {inst.n}"
    for item_id in sorted(assignment.placement):
        if not 0 <= item_id < inst.m:
            return f"unknown item id {item_id}"
        knapsack = assignment.placement[item_id]
        if knapsack is not None and not 0 <= knapsack < inst.n:
            return f"item {item_id} assigned to unknown knapsack {knapsack}"
    for j, cap in enumerate(inst.capacities):
        load = sum(inst.items[i].weight for i, k in assignment.placement.items() if k == j)
        if load > cap:
            return f"knapsack {j}: load {load} exceeds capacity {cap}"
        if assignment.remaining[j] != cap - load:
            return f"knapsack {j}: cached remaining {assignment.remaining[j]} != recomputed {cap - load}"
    return None


@st.composite
def corrupted_assignments(draw):
    """A feasible assignment with some entries of ``placement`` and
    ``remaining`` overwritten directly: overfull knapsacks, stale cached
    capacities, unknown items and unknown knapsacks."""
    n = draw(st.integers(1, 4))
    caps = draw(st.lists(st.integers(0, 10), min_size=n, max_size=n))
    weights = draw(st.lists(st.integers(1, 6), max_size=8))
    inst = Instance.from_pairs([(1, w) for w in weights], caps)
    assignment = Assignment.empty(inst)
    for item in inst.items:
        j = draw(st.none() | st.integers(0, n - 1))
        if j is not None and item.weight <= assignment.remaining[j]:
            assignment.assign(inst, item.id, j)
    knapsack = st.none() | st.integers(-1, n)
    for item_id, j in draw(st.lists(st.tuples(st.integers(0, inst.m + 2), knapsack), max_size=4)):
        assignment.placement[item_id] = j
    for j, delta in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(-3, 3)), max_size=3)):
        assignment.remaining[j] += delta
    return inst, assignment


class TestFeasibilityDifferential:
    @settings(max_examples=200, deadline=None)
    @given(corrupted_assignments())
    def test_matches_per_knapsack_restatement(self, case):
        inst, assignment = case
        assert check_feasible(assignment, inst) == first_violation_by_rescanning(assignment, inst)

    def check(self, assignment, inst):
        violation = check_feasible(assignment, inst)
        assert violation == first_violation_by_rescanning(assignment, inst)
        return violation

    def test_two_overfull_knapsacks_report_the_lower_index(self):
        inst = Instance.from_pairs([(1, 4), (1, 4), (1, 4), (1, 4)], [5, 5, 5])
        assignment = Assignment.empty(inst)
        assignment.placement.update({0: 2, 1: 2, 2: 1, 3: 1})
        assert self.check(assignment, inst) == "knapsack 1: load 8 exceeds capacity 5"

    def test_stale_remaining_before_an_overfull_knapsack(self):
        inst = Instance.from_pairs([(1, 2), (1, 4), (1, 4)], [5, 5])
        assignment = Assignment.empty(inst)
        assignment.assign(inst, 0, 0)
        assignment.placement.update({1: 1, 2: 1})
        assignment.remaining[0] = 5
        assert self.check(assignment, inst) == "knapsack 0: cached remaining 5 != recomputed 3"

    def test_unknown_item_and_unknown_knapsack_report_the_smaller_id(self):
        inst = Instance.from_pairs([(1, 1), (1, 1)], [5])
        assignment = Assignment.empty(inst)
        assignment.placement[1] = 3
        assignment.placement[9] = 0
        assert self.check(assignment, inst) == "item 1 assigned to unknown knapsack 3"
        assignment.placement[1] = None
        assert self.check(assignment, inst) == "unknown item id 9"


class TestAssignmentMutators:
    def test_assign_respects_capacity(self, instance_a):
        assignment = Assignment.empty(instance_a)
        assignment.assign(instance_a, 2, 1)  # weight 7 into capacity 7
        assert assignment.remaining[1] == 0
        with pytest.raises(DomainError):
            assignment.assign(instance_a, 3, 1)

    def test_double_assignment_rejected(self, instance_a):
        assignment = Assignment.empty(instance_a)
        assignment.assign(instance_a, 0, 0)
        with pytest.raises(DomainError):
            assignment.assign(instance_a, 0, 1)

    def test_items_by_knapsack_view(self, instance_a):
        assignment = Assignment.empty(instance_a)
        assignment.assign(instance_a, 3, 0)
        assignment.assign(instance_a, 0, 0)
        assert items_by_knapsack(assignment, instance_a) == [[0, 3], []]

    def test_items_by_knapsack_rejects_an_unknown_knapsack(self, instance_a):
        assignment = Assignment.empty(instance_a)
        assignment.placement[1] = 2  # bypass assign(); instance A has knapsacks 0 and 1
        with pytest.raises(DomainError, match="unknown knapsack 2"):
            items_by_knapsack(assignment, instance_a)


class TestSafetyChecks:
    """The exact text of each guard that no run of a well-formed instance
    reaches."""

    @pytest.mark.parametrize("item_id", [-1, -7])
    def test_a_negative_item_id(self, item_id):
        with pytest.raises(DomainError, match=f"^item id must be >= 0, got {item_id}$"):
            Item(item_id, 1, 1)

    @pytest.mark.parametrize("item_id", [-1, 4, 9])
    def test_instance_item_of_an_unknown_id(self, instance_a, item_id):
        with pytest.raises(DomainError, match=f"^unknown item id {item_id}$"):
            instance_a.item(item_id)

    @pytest.mark.parametrize(
        "item_id,knapsack,message",
        [
            (4, 0, "unknown item id 4"),
            (-1, 0, "unknown item id -1"),
            (0, 2, "unknown knapsack 2"),
            (0, -1, "unknown knapsack -1"),
            (9, 9, "unknown item id 9"),  # the item is checked first
        ],
    )
    def test_assign_of_an_unknown_id(self, instance_a, item_id, knapsack, message):
        assignment = Assignment.empty(instance_a)
        with pytest.raises(DomainError, match=f"^{message}$"):
            assignment.assign(instance_a, item_id, knapsack)
        assert assignment == Assignment.empty(instance_a)

    @pytest.mark.parametrize("remaining", [[10], [10, 7, 0], []])
    def test_check_feasible_of_a_remaining_vector_of_the_wrong_length(self, instance_a, remaining):
        assignment = Assignment({i: None for i in range(instance_a.m)}, remaining)
        assert check_feasible(assignment, instance_a) == (
            f"remaining vector has length {len(remaining)}, expected 2"
        )


class TestInstanceDocument:
    def test_round_trip(self, instance_a):
        assert instance_from_json(instance_to_json(instance_a)) == instance_a

    def test_file_round_trip(self, instance_a, tmp_path):
        path = tmp_path / "a.json"
        save_instance(instance_a, path)
        assert load_instance(path) == instance_a

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[1, 2]",
            '{"items": []}',
            '{"items": [], "capacities": [5], "extra": 1}',
            '{"items": [{"id": 0, "cost": 1, "weight": 1, "color": "red"}], "capacities": [5]}',
            '{"items": [{"id": 0, "cost": 1}], "capacities": [5]}',
            '{"items": [{"id": 1, "cost": 1, "weight": 1}], "capacities": [5]}',
            '{"items": [{"id": 0, "cost": true, "weight": 1}], "capacities": [5]}',
            '{"items": [{"id": 0, "cost": 1, "weight": 0}], "capacities": [5]}',
            '{"items": [{"id": 0, "cost": 1, "weight": 1}], "capacities": []}',
            '{"items": [{"id": 0, "cost": 1, "weight": 1}], "capacities": [-2]}',
            '{"items": {}, "capacities": [5]}',
        ],
    )
    def test_strict_parser_rejects(self, text):
        with pytest.raises(InstanceFormatError):
            instance_from_json(text)

    def test_digest_is_stable_and_whitespace_independent(self, instance_a):
        assert instance_digest(instance_a) == A_DIGEST
        reparsed = instance_from_json(instance_to_json(instance_a, indent=None))
        assert instance_digest(reparsed) == A_DIGEST

    @pytest.mark.parametrize(
        "inst, expected",
        [
            (gen_adversarial(16, 20), "5e307b825d687a1a56fccfbaa18892ee2d9e84f6e24807a8d44a274c3fa7a764"),
            (
                Instance.from_pairs(
                    [(10**400 - 1, 3), (7 * 10**399, 2**60 + 1), (0, 10**399 + 7)],
                    [10**400, 0],
                ),
                "442d980a3f95c27b6309deb4d7c7fd32c08627b336854013639f043b2f4bc7dd",
            ),
        ],
        ids=["adversarial-16-20", "400-digit-costs"],
    )
    def test_digest_pins(self, inst, expected):
        assert instance_digest(inst) == expected

    @given(small_instances(max_m=8, max_n=4, max_cost=10**400, max_weight=10**30, max_cap=10**50))
    def test_digest_hashes_the_compact_document(self, inst):
        canonical = instance_to_json(inst, indent=None).encode("utf-8")
        assert instance_digest(inst) == hashlib.sha256(canonical).hexdigest()

    @pytest.mark.parametrize(
        "text",
        [
            '{"items": [], "capacities": [1], "capacities": [2]}',
            '{"items": [{"id": 0, "cost": 1, "cost": 2, "weight": 1}], "capacities": [5]}',
        ],
        ids=["top-level", "item"],
    )
    def test_duplicate_field_is_a_format_error(self, text):
        with pytest.raises(InstanceFormatError, match="^duplicate field '(capacities|cost)'$"):
            instance_from_json(text)

    def test_number_past_the_digit_limit_is_a_format_error(self):
        text = '{"items": [{"id": 0, "cost": %s, "weight": 1}], "capacities": [5]}' % ("9" * 5000)
        with pytest.raises(InstanceFormatError, match="too many digits"):
            instance_from_json(text)
