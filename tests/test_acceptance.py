"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run pytest with -s to see the lines for passing criteria too).

Criterion 1 reproduces the worst-case family: plain batch greedy earns 2n
and the reassignment pass recovers nW.  The family optimum is stated here
in closed form, max over L of 2*min(n, L*W) + (n - L)*W (L knapsacks of
light items, one heavy item in each of the rest).  The test builds that
closed form's placement, checks it feasible and worth the closed form, and
requires the exact solver to return the same value.  On the pairs with
2n <= W the optimum is exactly nW, plain greedy's ratio is exactly 2/W and
the reassigned ratio is exactly 1; when n > W/2 the optimum exceeds nW.

There is no separate load/scale criterion: every claim checked here is exact
and desk-scale by construction, so the property checks above are the whole
gate.
"""

import time
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mkpsim import (
    ALGORITHMS,
    PROTOCOLS,
    Assignment,
    check_feasible,
    gen_adversarial,
    gen_random,
    objective,
    render_trace,
    run_algorithm,
    save_instance,
)
from mkpsim.cli import main as cli_main
from mkpsim.harness import SweepParams, audit_max_capacity_dispatch
from mkpsim.oracle import (
    approx_ratio,
    batch_round_greedy,
    bound_holds,
    exact_optimum,
    strict_sequential_greedy,
)

SWEEP = SweepParams(m_lo=1, m_hi=10, n_lo=1, n_hi=4, seeds=25)  # 1000 instances


def _report(number: int, name: str, failures: list, extra: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"ACCEPTANCE criterion {number} ({name}): {status}{extra}"
    print(line)
    if failures:
        details = "\n".join(f"  - {f}" for f in failures)
        pytest.fail(f"{line}\n{details}", pytrace=False)


@pytest.fixture(scope="module")
def sweep():
    """Run every algorithm plus the exact oracle over the 1000-instance grid
    once; criteria 2-5 read their slices from this shared pass."""
    bound, counts, equivalence, audits = [], [], [], []
    instances = 0
    start = time.perf_counter()
    for gp in SWEEP.grid():
        inst = gen_random(gp)
        instances += 1
        tag = f"m={gp.m} n={gp.n} seed={gp.seed}"
        m, n = inst.m, inst.n
        results = {name: run_algorithm(name, inst) for name in ALGORITHMS}
        simple, modified = results["simple"], results["modified"]
        dist, tree = results["dist"], results["tree"]

        # criterion 2: the 1/(n+1) bound, exact integer arithmetic
        opt = exact_optimum(inst)
        if opt is None:
            bound.append(f"{tag}: oracle unavailable")
        else:
            for name in ("modified", "dist", "tree"):
                profit = results[name].profit
                if not bound_holds(profit, opt, n):
                    bound.append(
                        f"{tag}: {name} profit {profit} * (n+1) < OPT {opt.opt}"
                    )

        # criterion 3: message/round/phase accounting
        rounds = -(-m // n)
        if simple.messages > 2 * m + 2 * n:
            counts.append(f"{tag}: simple messages {simple.messages} > 2m+2n")
        if simple.rounds != rounds:
            counts.append(f"{tag}: simple rounds {simple.rounds} != ceil(m/n)")
        if dist.messages > m * (n + n * n) + n:
            counts.append(f"{tag}: dist messages {dist.messages} > m(n+n^2)+n")
        if tree.messages > 2 * m * n + m + n:
            counts.append(f"{tag}: tree messages {tree.messages} > 2mn+m+n")
        if n >= 2:
            expected_phases = m * (n.bit_length() - 1 + 3)
            if tree.phases != expected_phases:
                counts.append(
                    f"{tag}: tree phases {tree.phases} != {expected_phases}"
                )

        # criterion 4: placement/profit equivalences
        if dist.assignment.placement != tree.assignment.placement:
            equivalence.append(f"{tag}: dist and tree placements differ")
        sequential = strict_sequential_greedy(inst)
        for name in ("dist", "tree"):
            if results[name].pre_final_profit != sequential.profit:
                equivalence.append(
                    f"{tag}: {name} pre-final profit != sequential recomputation"
                )
        if simple.assignment.placement != batch_round_greedy(inst).assignment.placement:
            equivalence.append(f"{tag}: simple placement != batch recomputation")

        # criterion 5: per-round greedy trace audit
        for name in ("dist", "tree"):
            period = PROTOCOLS[name].period(inst)
            trace = results[name].trace
            placement = sequential.assignment.placement
            for problem in audit_max_capacity_dispatch(inst, trace, period, placement):
                audits.append(f"{tag}: {name}: {problem}")
    elapsed = time.perf_counter() - start
    return SimpleNamespace(
        instances=instances,
        elapsed=elapsed,
        bound=bound,
        counts=counts,
        equivalence=equivalence,
        audits=audits,
    )


def _family_witness(fam, n: int, W: int):
    """The family optimum in closed form with a placement that attains it.

    Devoting L knapsacks to the unit-weight items (at most W each) and giving
    each of the other n - L knapsacks one heavy item earns
    2*min(n, L*W) + (n - L)*W; the best L is taken.
    """
    value, L = max((2 * min(n, L * W) + (n - L) * W, L) for L in range(n + 1))
    light = [item.id for item in fam.items if item.weight == 1]
    heavy = [item.id for item in fam.items if item.weight == W]
    witness = Assignment.empty(fam)
    for k, item_id in enumerate(light[: L * W]):
        witness.assign(fam, item_id, k // W)
    for k, item_id in enumerate(heavy[: n - L]):
        witness.assign(fam, item_id, L + k)
    return value, witness


def test_criterion_1_worst_case_family():
    failures = []
    start = time.perf_counter()
    for n in (1, 2, 4, 8):
        for W in (3, 10, 100):
            tag = f"n={n} W={W}"
            fam = gen_adversarial(n, W)
            simple = run_algorithm("simple", fam)
            modified = run_algorithm("modified", fam)
            opt = exact_optimum(fam)
            family_opt, witness = _family_witness(fam, n, W)
            if simple.profit != 2 * n:
                failures.append(f"{tag}: plain greedy profit {simple.profit} != 2n")
            if modified.profit != n * W:
                failures.append(f"{tag}: reassigned profit {modified.profit} != nW")
            problem = check_feasible(witness, fam)
            if problem is not None:
                failures.append(f"{tag}: closed-form witness infeasible: {problem}")
            if objective(witness, fam) != family_opt:
                failures.append(
                    f"{tag}: witness profit {objective(witness, fam)} != "
                    f"closed form {family_opt}"
                )
            if opt.opt != family_opt:
                failures.append(f"{tag}: OPT {opt.opt} != closed form {family_opt}")
            if approx_ratio(simple.profit, opt) != Fraction(2 * n, family_opt):
                failures.append(
                    f"{tag}: greedy ratio {approx_ratio(simple.profit, opt)} "
                    f"!= 2n/OPT {Fraction(2 * n, family_opt)}"
                )
            if approx_ratio(modified.profit, opt) != Fraction(n * W, family_opt):
                failures.append(
                    f"{tag}: reassigned ratio {approx_ratio(modified.profit, opt)} "
                    f"!= nW/OPT {Fraction(n * W, family_opt)}"
                )
            if not bound_holds(modified.profit, opt, n):
                failures.append(
                    f"{tag}: reassigned profit {modified.profit} * (n+1) < OPT {opt.opt}"
                )
            if 2 * n <= W:
                # few light items: a heavy item beats any knapsack of them
                if opt.opt != n * W:
                    failures.append(f"{tag}: OPT {opt.opt} != nW {n * W}")
                if approx_ratio(simple.profit, opt) != Fraction(2, W):
                    failures.append(
                        f"{tag}: greedy ratio {approx_ratio(simple.profit, opt)} != 2/W"
                    )
                if approx_ratio(modified.profit, opt) != Fraction(1):
                    failures.append(
                        f"{tag}: reassigned ratio "
                        f"{approx_ratio(modified.profit, opt)} != 1"
                    )
            elif opt.opt <= n * W:
                failures.append(f"{tag}: OPT {opt.opt} not above nW {n * W}")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s exceeds the 1s budget")
    _report(1, "worst-case family reproduction", failures)


def test_criterion_2_approximation_bound(sweep):
    failures = list(sweep.bound)
    if sweep.instances < 1000:
        failures.append(f"only {sweep.instances} instances swept, need >= 1000")
    if sweep.elapsed >= 120.0:
        failures.append(f"sweep took {sweep.elapsed:.1f}s, over the 2 min budget")
    _report(
        2,
        "1/(n+1) approximation bound",
        failures,
        extra=f" [{sweep.instances} instances in {sweep.elapsed:.1f}s]",
    )


def test_criterion_3_message_counts(sweep):
    _report(3, "message-count claims", sweep.counts)


def test_criterion_4_equivalences(sweep):
    _report(4, "placement equivalences", sweep.equivalence)


def test_criterion_5_greedy_trace_audit(sweep):
    _report(5, "per-round greedy invariant", sweep.audits)


def test_criterion_6_determinism(tmp_path, capsys, instance_a):
    failures = []

    # engine level: repeated runs give byte-identical traces and placements
    for name in ALGORITHMS:
        first = run_algorithm(name, instance_a)
        second = run_algorithm(name, instance_a)
        if render_trace(first.trace) != render_trace(second.trace):
            failures.append(f"{name}: traces differ between runs")
        if first.assignment.placement != second.assignment.placement:
            failures.append(f"{name}: placements differ between runs")

    # command level: identical invocations produce byte-identical output
    inst_path = tmp_path / "a.json"
    save_instance(instance_a, inst_path)
    commands = [
        ["gen-random", "--m", "8", "--n", "3", "--seed", "123"],
        ["gen-adversarial", "--n", "4", "--W", "10"],
        ["run", "--alg", "dist", "--instance", str(inst_path), "--oracle"],
        ["compare", "--instance", str(inst_path), "--oracle"],
        ["verify", "--instance", str(inst_path)],
    ]
    for argv in commands:
        code1 = cli_main(argv)
        out1 = capsys.readouterr().out
        code2 = cli_main(argv)
        out2 = capsys.readouterr().out
        if (code1, out1) != (code2, out2):
            failures.append(f"{argv[0]}: repeated invocation output differs")

    # trace files are byte-identical too
    t1, t2 = tmp_path / "t1", tmp_path / "t2"
    for target in (t1, t2):
        cli_main(
            ["run", "--alg", "tree", "--instance", str(inst_path), "--trace", str(target)]
        )
        capsys.readouterr()
    if t1.read_bytes() != t2.read_bytes():
        failures.append("trace files differ between runs")

    _report(6, "determinism", failures)
