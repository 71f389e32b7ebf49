import json
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mkpsim import (
    ALGORITHMS,
    PROTOCOLS,
    GenParams,
    Instance,
    SweepParams,
    exact_optimum,
    gen_adversarial,
    gen_random,
    instance_digest,
    instance_from_json,
    instance_to_json,
    render_trace,
    run_algorithm,
    run_experiment,
    verify_instance,
    verify_sweep,
)
from mkpsim.harness import CSV_COLUMNS, make_report, report_to_json, reports_to_csv
from mkpsim.core import Assignment
from mkpsim.simnet import SOURCE, Delivery, SimulationFault, Winner

from conftest import audit_trace, small_instances

GOLDEN_DIGEST_M10_N3_SEED42 = (
    "a47136d6d9edfef75e24ae81354257895c9eabf7c1c70aa941eb65396751a967"
)


class TestGenRandom:
    def test_same_params_same_instance(self):
        params = GenParams(6, 2, 50, 50, 1, 100, seed=7)
        assert gen_random(params) == gen_random(params)

    def test_empty_item_list(self):
        inst = gen_random(GenParams(0, 1, 50, 50, 1, 100, seed=1))
        assert inst.m == 0 and inst.n == 1

    def test_golden_digest_is_pinned(self):
        inst = gen_random(GenParams(10, 3, 50, 50, 1, 100, seed=42))
        assert instance_digest(inst) == GOLDEN_DIGEST_M10_N3_SEED42

    def test_values_respect_the_ranges(self):
        inst = gen_random(GenParams(40, 5, 9, 4, 2, 6, seed=3))
        assert all(1 <= it.cost <= 9 and 1 <= it.weight <= 4 for it in inst.items)
        assert all(2 <= W <= 6 for W in inst.capacities)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(m=-1, n=1),
            dict(m=1, n=0),
            dict(m=1, n=1, cost_max=0),
            dict(m=1, n=1, weight_max=0),
            dict(m=1, n=1, cap_min=0),
            dict(m=1, n=1, cap_min=5, cap_max=4),
        ],
    )
    def test_bad_params_rejected(self, kwargs):
        defaults = dict(m=1, n=1, cost_max=50, weight_max=50, cap_min=1, cap_max=100, seed=0)
        defaults.update(kwargs)
        with pytest.raises(ValueError):
            GenParams(**defaults)


class TestGenAdversarial:
    def test_n2_w10_layout(self):
        inst = gen_adversarial(2, 10)
        assert inst.capacities == (10, 10)
        assert [(it.cost, it.weight) for it in inst.items] == [
            (2, 1),
            (2, 1),
            (10, 10),
            (10, 10),
        ]

    def test_smallest_legal_family(self):
        inst = gen_adversarial(1, 3)
        assert inst.capacities == (3,)
        assert [(it.cost, it.weight) for it in inst.items] == [(2, 1), (3, 3)]

    def test_w_below_three_rejected_with_explanation(self):
        with pytest.raises(ValueError, match="W must be >= 3"):
            gen_adversarial(2, 2)

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            gen_adversarial(0, 10)


class TestRunExperiment:
    def test_family_ratios(self):
        fam = gen_adversarial(2, 10)
        reports = run_experiment(fam, algorithms=("simple", "modified"), with_oracle=True)
        assert [r.algorithm for r in reports] == ["simple", "modified"]
        assert reports[0].ratio == Fraction(1, 5)
        assert reports[1].ratio == Fraction(1)
        assert reports[0].bound_ok is False and reports[1].bound_ok is True

    def test_empty_instance_all_algorithms(self):
        reports = run_experiment(Instance.from_pairs([], [5]), with_oracle=True)
        assert [r.profit for r in reports] == [0, 0, 0, 0]
        assert all(r.opt == 0 for r in reports)

    def test_instance_a_dist_and_tree(self, instance_a):
        reports = run_experiment(instance_a, algorithms=("dist", "tree"))
        assert [r.algorithm for r in reports] == ["dist", "tree"]
        assert reports[0].profit == reports[1].profit == 18
        assert reports[0].messages == reports[1].messages == 20
        assert reports[0].phases == 13 and reports[1].phases == 16

    def test_report_order_is_fixed_regardless_of_request_order(self, instance_a):
        reports = run_experiment(instance_a, algorithms=("tree", "simple"))
        assert [r.algorithm for r in reports] == ["simple", "tree"]

    @pytest.mark.parametrize("with_oracle", [False, True])
    def test_reports_equal_those_of_traced_runs(self, with_oracle):
        # run_experiment's runs keep no trace and read the instance's cached
        # density order and digest; each report is still the one
        # make_report gives
        inst = gen_random(GenParams(12, 3, 50, 50, 1, 100, seed=7))
        opt = exact_optimum(inst) if with_oracle else None
        oracle = "ok" if with_oracle else "none"
        want = [make_report(inst, run_algorithm(name, inst), opt, oracle) for name in ALGORITHMS]
        assert run_experiment(inst, with_oracle=with_oracle) == want

    def test_unknown_algorithm_rejected(self, instance_a):
        with pytest.raises(ValueError):
            run_experiment(instance_a, algorithms=("simple", "bogus"))

    def test_all_four_runs_digest_the_instance_once(self, monkeypatch):
        calls = count_calls(monkeypatch, "instance_digest")
        reports = run_experiment(gen_random(GenParams(12, 3, 50, 50, 1, 100, seed=7)))
        assert len(reports) == len(ALGORITHMS) and calls == [1]

    @settings(max_examples=40, deadline=None)
    @given(small_instances(max_m=8, max_n=4))
    def test_a_filled_cache_gives_the_same_reports(self, inst):
        copy = instance_from_json(instance_to_json(inst))
        copy.density_order, copy.digest  # fill the cache first
        assert run_experiment(copy, with_oracle=True) == run_experiment(inst, with_oracle=True)


def count_calls(monkeypatch, name: str) -> list[int]:
    """Wrap ``mkpsim.core.<name>`` in a counter; returns the one-element list
    that holds the number of calls made so far."""
    import mkpsim.core as core

    calls = [0]
    original = getattr(core, name)

    def counted(*args):
        calls[0] += 1
        return original(*args)

    monkeypatch.setattr(core, name, counted)
    return calls


class TestReports:
    def test_json_field_order_and_content(self, instance_a):
        report = run_experiment(instance_a, algorithms=("dist",), with_oracle=True)[0]
        text = report_to_json(report)
        doc = json.loads(text)
        assert list(doc) == [
            "algorithm",
            "instance",
            "m",
            "n",
            "profit",
            "placement",
            "messages",
            "phases",
            "rounds",
            "opt",
            "ratio",
            "bound_ok",
        ]
        assert doc["placement"] == {"0": 0, "1": None, "2": 1, "3": 0}
        assert doc["opt"] == 21 and doc["ratio"] == "6/7" and doc["bound_ok"] is True
        assert text == report_to_json(report)  # byte-stable

    def test_json_without_oracle_omits_comparison_fields(self, instance_a):
        report = run_experiment(instance_a, algorithms=("simple",))[0]
        doc = json.loads(report_to_json(report))
        assert "opt" not in doc and "ratio" not in doc and "bound_ok" not in doc

    def test_unavailable_oracle_is_spelled_out(self, instance_a):
        result = run_algorithm("simple", instance_a)
        report = make_report(instance_a, result, None, "unavailable")
        doc = json.loads(report_to_json(report))
        assert doc["opt"] == "unavailable"
        assert "ratio" not in doc and "bound_ok" not in doc

    def test_csv_export(self, instance_a):
        reports = run_experiment(instance_a, with_oracle=True)
        text = reports_to_csv(reports)
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1] == "simple,4,2,14,21,2,3,8,4,2"
        assert lines[3] == "dist,4,2,18,21,6,7,20,13,4"

    def test_csv_blanks_without_oracle(self, instance_a):
        text = reports_to_csv(run_experiment(instance_a, algorithms=("simple",)))
        assert text.splitlines()[1] == "simple,4,2,14,,,,8,4,2"


class TestTraceAudit:
    def test_clean_runs_pass(self, instance_a):
        for name in ("dist", "tree"):
            run = run_algorithm(name, instance_a)
            assert audit_trace(instance_a, run.trace, name) == []

    def test_tampered_winner_is_caught(self, instance_a):
        run = run_algorithm("dist", instance_a)
        tampered = tuple(
            Delivery(d.phase, 2, d.recipient, Winner(2))
            if d.recipient == SOURCE and isinstance(d.payload, Winner) and d.phase == 3
            else d
            for d in run.trace
        )
        problems = audit_trace(instance_a, tampered, "dist")
        assert problems and "round 0" in problems[0]

    def test_fabricated_extra_winner_is_caught(self, instance_a):
        run = run_algorithm("dist", instance_a)
        extra = run.trace + (Delivery(3, 2, SOURCE, Winner(2)),)
        problems = audit_trace(instance_a, extra, "dist")
        assert problems == ["round 0: more than one winner report"]

    @pytest.mark.parametrize("name", ["dist", "tree"])
    def test_winner_in_a_round_without_an_item_is_caught(self, instance_a, name):
        run = run_algorithm(name, instance_a)
        stray = run.trace + (Delivery(run.phases + 5, 1, SOURCE, Winner(1)),)
        problems = audit_trace(instance_a, stray, name)
        # 4 items; the stray report falls in round 5 (dist: 3 phases a
        # round, 13 in all; tree: 4 a round, 16 in all)
        assert problems == ["round 5: winner p1 reported in a round that dispatches no item"]

    @pytest.mark.parametrize("name", ["dist", "tree"])
    def test_winner_in_the_round_after_the_last_item_is_caught(self, instance_a, name):
        # round m = 4 is the source's tail: dist halts in its first phase
        # (13), tree has no phase of it; either way it dispatches no item
        run = run_algorithm(name, instance_a)
        period = PROTOCOLS[name].period(instance_a)
        stray = run.trace + (Delivery(instance_a.m * period + 1, 1, SOURCE, Winner(1)),)
        problems = audit_trace(instance_a, stray, name)
        assert problems == ["round 4: winner p1 reported in a round that dispatches no item"]

    @pytest.mark.parametrize("name", ["dist", "tree"])
    @pytest.mark.parametrize(
        "changes, first_round",
        [({0: None}, 0), ({0: 2}, 0), ({0: 3}, 0), ({2: 3}, 2)],
        ids=["first dropped", "first to its tie partner", "first to the smaller", "last moved"],
    )
    def test_retargeted_winner_is_caught_in_its_round(self, name, changes, first_round):
        # density order is item 0, 1, 2, 3; one item at a time, the greedy
        # gives them p1 (5 vs 5, tie to p1), p2, p1 (3, 3, 3 all tied) and
        # discards item 3 (weight 4 > 3)
        inst = Instance.from_pairs([(9, 2), (8, 2), (7, 2), (1, 4)], [5, 5, 3])
        run = run_algorithm(name, inst)
        assert [d.payload.processor for d in _winner_reports(run.trace)] == [1, 2, 1]
        assert audit_trace(inst, run.trace, name) == []
        problems = audit_trace(inst, _retarget(run.trace, changes), name)
        assert problems and problems[0].startswith(f"round {first_round}: "), problems


def _first_replayed_violation(inst, winners):
    """Replay capacities round by round: the first round whose winner (a
    processor id, or absent) is not the greedy choice given the earlier
    winners, i.e. the largest remaining knapsack that fits the round's item
    with ties to the smallest index, or none when nothing fits; ``None`` when
    every round's winner is."""
    items = inst.items
    order = sorted(range(inst.m), key=lambda i: (Fraction(-items[i].cost, items[i].weight), i))
    remaining = list(inst.capacities)
    for r, i in enumerate(order):
        fitting = [j for j in range(inst.n) if remaining[j] >= items[i].weight]
        choice = max(fitting, key=lambda j: (remaining[j], -j), default=None)
        got = winners.get(r)
        if (None if got is None else got - 1) != choice:
            return r
        if choice is not None:
            remaining[choice] -= items[i].weight
    return None


@settings(max_examples=200, deadline=None)
@given(inst=small_instances(max_n=4), name=st.sampled_from(["dist", "tree"]), data=st.data())
def test_audit_agrees_with_a_round_by_round_replay(inst, name, data):
    run = run_algorithm(name, inst)
    period = 3 if name == "dist" else inst.n.bit_length() + 2
    honest = {(d.phase - 1) // period: d.payload.processor for d in _winner_reports(run.trace)}
    winners = {}
    for r in range(inst.m):
        change = data.draw(st.sampled_from(["keep", "drop", "move"]))
        if change == "move":
            winners[r] = data.draw(st.integers(1, inst.n + 1))
        elif change == "keep" and r in honest:
            winners[r] = honest[r]
    reports = set(map(id, _winner_reports(run.trace)))
    trace = tuple(d for d in run.trace if id(d) not in reports) + tuple(
        Delivery(r * period + 1, 1, SOURCE, Winner(p)) for r, p in winners.items()
    )
    problems = audit_trace(inst, trace, name)
    first = _first_replayed_violation(inst, winners)
    if first is None:
        assert problems == []
    else:
        assert len(problems) == 1 and problems[0].startswith(f"round {first}: "), problems


def _winner_reports(trace):
    return [d for d in trace if d.recipient == SOURCE and isinstance(d.payload, Winner)]


def _retarget(trace, changes):
    """The trace with its k-th winner report sent for processor
    ``changes[k]`` instead, or dropped where that is ``None``."""
    index = {id(d): k for k, d in enumerate(_winner_reports(trace))}
    out = []
    for d in trace:
        k = index.get(id(d))
        if k in changes:
            if changes[k] is None:
                continue
            d = Delivery(d.phase, d.sender, d.recipient, Winner(changes[k]))
        out.append(d)
    return tuple(out)


class TestVerification:
    def test_instance_a_passes_everything(self, instance_a):
        verdict = verify_instance(instance_a)
        assert verdict.ok, verdict.violations
        assert verdict.opt.opt == 21

    def test_family_passes_everything(self):
        verdict = verify_instance(gen_adversarial(4, 10))
        assert verdict.ok, verdict.violations

    # the k = 5 member of the family with capacities [1, C], C the total
    # weight, and k rounds of the items (1, i+1) and (100, 100(i+1)+1):
    # `modified` earns 100 against an optimum of 101k
    FAMILY_K5 = [pair for i in range(5) for pair in ((1, i + 1), (100, 100 * (i + 1) + 1))]

    @pytest.mark.parametrize(
        "pairs,capacities,violation,opt,profits",
        [
            ([(2, 1), (15, 4), (13, 7), (5, 1), (20, 1), (27, 2)], [1, 15],
             "modified: bound violated: 27 * (2+1) < 82", 82,
             {"simple": 27, "modified": 27, "dist": 69, "tree": 69}),
            (FAMILY_K5, [1, sum(w for _, w in FAMILY_K5)],
             "modified: bound violated: 100 * (2+1) < 505", 505,
             {"simple": 5, "modified": 100, "dist": 505, "tree": 505}),
        ],
        ids=["six items", "family k=5"],
    )
    def test_modified_misses_the_bound_on_a_known_instance(
        self, pairs, capacities, violation, opt, profits
    ):
        # every batch round ranks knapsack 1 (the large one) first, so the
        # 2nd, 4th, ... items in density order go to knapsack 0, do not fit
        # it and are dropped; the pass finds no single item worth more than
        # knapsack 1's contents
        verdict = verify_instance(Instance.from_pairs(pairs, capacities))
        assert verdict.violations == [violation]
        assert verdict.opt.opt == opt
        assert {name: run.profit for name, run in verdict.results.items()} == profits

    def test_a_fresh_instance_is_sorted_once(self, monkeypatch):
        # the oracle, four runs, two recomputations and two trace audits all
        # read the one cached density order
        calls = count_calls(monkeypatch, "sort_by_density")
        verdict = verify_instance(gen_random(GenParams(8, 3, 50, 50, 1, 100, seed=4)))
        assert verdict.ok, verdict.violations
        assert calls == [1]

    def test_only_the_audited_runs_keep_a_trace(self, monkeypatch):
        inst = gen_random(GenParams(8, 3, 50, 50, 1, 100, seed=4))
        verdict = verify_instance(inst)
        assert verdict.ok, verdict.violations
        kept = {name: run.trace for name, run in verdict.results.items() if run.trace is not None}
        assert set(kept) == {"dist", "tree"}
        for name, trace in kept.items():
            assert render_trace(trace) == render_trace(run_algorithm(name, inst).trace)
            # and the audit still reads it: a second winner report in round 0
            stray = Delivery(PROTOCOLS[name].period(inst), 2, SOURCE, Winner(2))
            violations = _verify_with_one_run_changed(
                monkeypatch, inst, name, lambda run: replace(run, trace=run.trace + (stray,))
            )
            assert violations == [f"{name}: trace audit: round 0: more than one winner report"]
            monkeypatch.undo()

    def test_small_sweep_is_clean(self):
        summary = verify_sweep(SweepParams(0, 4, 1, 3, seeds=3))
        assert summary.instances == 45
        assert summary.ok

    def test_sweep_param_validation(self):
        with pytest.raises(ValueError):
            SweepParams(3, 2, 1, 1, seeds=1)
        with pytest.raises(ValueError):
            SweepParams(1, 2, 0, 1, seeds=1)
        with pytest.raises(ValueError):
            SweepParams(1, 2, 1, 1, seeds=0)

    def test_one_point_sweep(self):
        # one m, one n and one seed: the smallest grid the ranges allow
        params = SweepParams(3, 3, 2, 2, seeds=1)
        assert list(params.grid()) == [
            GenParams(3, 2, 50, 50, 1, 100, seed=3 * 1_000_003 + 2 * 10_007)
        ]

    def test_sweep_seeds_collide_past_the_documented_ranges(self):
        points: dict[int, list] = {}
        for gp in SweepParams(0, 1, 1, 101, 698).grid():
            s = gp.seed - gp.m * 1_000_003 - gp.n * 10_007
            points.setdefault(gp.seed, []).append((gp.m, gp.n, s))
        shared = {seed: where for seed, where in points.items() if len(where) > 1}
        assert shared == {1_010_707: [(0, 101, 0), (1, 1, 697)]}

    def test_sweep_grid_is_deterministic(self):
        params = SweepParams(1, 2, 1, 2, seeds=2)
        assert list(params.grid()) == list(params.grid())

    def test_violations_surface_instead_of_silent_success(self, instance_a, monkeypatch):
        import mkpsim.harness as harness
        from mkpsim.oracle import OptimalSolution

        fake = OptimalSolution(None, 10**9, 0)  # impossible optimum
        monkeypatch.setattr(harness, "exact_optimum", lambda inst, **kw: fake)
        verdict = verify_instance(instance_a)
        assert not verdict.ok
        assert any("bound violated" in v for v in verdict.violations)

    def test_unavailable_oracle_blocks_success(self, instance_a, monkeypatch):
        import mkpsim.harness as harness

        monkeypatch.setattr(harness, "exact_optimum", lambda inst, **kw: None)
        verdict = verify_instance(instance_a)
        assert not verdict.ok
        assert any("oracle unavailable" in v for v in verdict.violations)


def _verify_with_one_run_changed(monkeypatch, inst, name, change, *, with_oracle=True):
    """``verify_instance`` with the ``name`` run replaced by ``change(run)``."""
    import mkpsim.harness as harness

    honest = harness.run_algorithm

    def run_algorithm(alg, instance, **kwargs):
        run = honest(alg, instance, **kwargs)
        return change(run) if alg == name else run

    monkeypatch.setattr(harness, "run_algorithm", run_algorithm)
    return verify_instance(inst, with_oracle=with_oracle).violations


def _verify_with_one_miscounted_run(monkeypatch, inst, name, field):
    """``verify_instance`` with the ``name`` run's messages, phases or rounds
    off by one."""

    def miscount(run):
        if field == "rounds":
            return replace(run, rounds=run.rounds + 1)
        metrics = replace(run.metrics, **{field: getattr(run.metrics, field) + 1})
        return replace(run, metrics=metrics)

    return _verify_with_one_run_changed(monkeypatch, inst, name, miscount, with_oracle=False)


def test_modified_run_that_skipped_its_pass_is_reported(monkeypatch):
    # the pre-pass profit 8 still meets 8 * (4+1) >= OPT = 40, so only the
    # final placement itself can give the skipped pass away
    inst = gen_adversarial(4, 10)
    violations = _verify_with_one_run_changed(
        monkeypatch,
        inst,
        "modified",
        lambda run: replace(run, assignment=run.pre_final_assignment, profit=run.pre_final_profit),
    )
    assert violations
    assert all(v.startswith("modified: ") for v in violations), violations


def test_simple_run_reporting_a_reassigned_placement_is_reported(monkeypatch):
    inst = gen_adversarial(4, 10)
    reassigned = run_algorithm("modified", inst)
    violations = _verify_with_one_run_changed(
        monkeypatch,
        inst,
        "simple",
        lambda run: replace(run, assignment=reassigned.assignment, profit=reassigned.profit),
    )
    assert violations
    assert all(v.startswith("simple: ") for v in violations), violations


@pytest.mark.parametrize("name", ["simple", "modified", "dist", "tree"])
def test_miscounted_messages_are_reported(monkeypatch, instance_a, name):
    violations = _verify_with_one_miscounted_run(monkeypatch, instance_a, name, "messages")
    assert violations
    assert all(v.startswith(f"{name}: ") for v in violations), violations


@pytest.mark.parametrize("field", ["phases", "rounds"])
@pytest.mark.parametrize("name", ["simple", "modified", "dist", "tree"])
def test_miscounted_phases_and_rounds_are_reported(monkeypatch, instance_a, name, field):
    violations = _verify_with_one_miscounted_run(monkeypatch, instance_a, name, field)
    assert violations
    assert all(v.startswith(f"{name}: ") for v in violations), violations


def test_an_infeasible_final_assignment_stops_verify_instance(monkeypatch):
    # verify_instance leaves the final assignment's feasibility to
    # run_algorithm, which raises rather than report a violation
    import mkpsim.algorithms as algorithms

    def overfull(assignment, inst):
        loads = [sum(item.weight for item in inst.items), *[0] * (inst.n - 1)]
        remaining = [c - load for c, load in zip(inst.capacities, loads)]
        return Assignment({i: 0 for i in range(inst.m)}, remaining), ()

    monkeypatch.setattr(algorithms, "final_reassign", overfull)
    message = "protocol produced an infeasible assignment: knapsack 0: load 44 exceeds capacity 10"
    with pytest.raises(SimulationFault, match=f"^{message}$"):
        verify_instance(gen_adversarial(4, 10))


def test_a_source_that_skips_a_round_is_reported(monkeypatch):
    # the programs read a record with one batch round fewer than the one
    # verify_instance checks against, so the last round's items are never
    # dispatched; the run reports the rounds its source dispatched, not the
    # record's count
    from mkpsim.algorithms import PROTOCOLS, BatchProcessor, BatchSource

    modified = PROTOCOLS["modified"]
    fewer = replace(modified, rounds=lambda inst: modified.rounds(inst) - 1)
    short = replace(
        modified,
        source=lambda inst, protocol: BatchSource(inst, fewer),
        processor=lambda inst, j, protocol: BatchProcessor(inst, j, fewer),
    )
    monkeypatch.setitem(PROTOCOLS, "modified", short)
    inst = gen_random(GenParams(9, 3, 50, 50, 1, 100, seed=1))
    assert run_algorithm("modified", inst).rounds == 2
    violations = verify_instance(inst, with_oracle=False).violations
    assert all(v.startswith("modified: ") for v in violations), violations
    counts = [v for v in violations if v.startswith("modified: (messages, phases, rounds) ")]
    assert len(counts) == 1
    assert re.fullmatch(r".* \(\d+, \d+, 2\) != \(\d+, \d+, 3\)", counts[0]), counts


def test_an_infeasible_pre_final_assignment_is_reported(monkeypatch, instance_a):
    # every item in knapsack 0 (capacity 10) before the pass
    overfull = Assignment({i: 0 for i in range(4)}, [10 - 21, 7])
    violations = _verify_with_one_run_changed(
        monkeypatch, instance_a, "tree", lambda run: replace(run, pre_final_assignment=overfull)
    )
    assert "tree: pre-final assignment infeasible: knapsack 0: load 21 exceeds capacity 10" in (
        violations
    )
    assert all(v.startswith("tree: ") for v in violations), violations


def test_verify_instance_checks_each_assignment_once(monkeypatch, instance_a):
    # run_algorithm checks every final assignment and verify_instance every
    # pre-final one but ``simple``'s, which is its final one
    import mkpsim.algorithms as algorithms
    import mkpsim.harness as harness

    checked = []

    def recording(check):
        def check_feasible(assignment, inst):
            checked.append(assignment)
            return check(assignment, inst)
        return check_feasible

    for module in (algorithms, harness):
        monkeypatch.setattr(module, "check_feasible", recording(module.check_feasible))
    verification = verify_instance(instance_a, with_oracle=False)
    assert verification.ok
    runs = verification.results.values()
    assignments = {id(a): a for run in runs for a in (run.assignment, run.pre_final_assignment)}
    assert len(assignments) == 2 * len(ALGORITHMS) - 1  # simple's two are one object
    assert sorted(map(id, checked)) == sorted(assignments)


def test_a_pass_that_lowers_the_profit_is_reported(monkeypatch, instance_a):
    violations = _verify_with_one_run_changed(
        monkeypatch, instance_a, "dist", lambda run: replace(run, profit=run.pre_final_profit - 1)
    )
    pre = run_algorithm("dist", instance_a).pre_final_profit
    assert f"dist: reassignment decreased profit {pre} -> {pre - 1}" in violations
    assert all(v.startswith("dist: ") for v in violations), violations


@pytest.mark.parametrize("name", ["simple", "modified", "dist", "tree"])
def test_messages_past_the_bound_are_reported(monkeypatch, instance_a, name):
    bound = PROTOCOLS[name].message_bound(instance_a)

    def past_the_bound(run):
        return replace(run, metrics=replace(run.metrics, messages=bound + 1))

    violations = _verify_with_one_run_changed(
        monkeypatch, instance_a, name, past_the_bound, with_oracle=False
    )
    assert f"{name}: messages {bound + 1} > bound {bound}" in violations
    assert all(v.startswith(f"{name}: ") for v in violations), violations
