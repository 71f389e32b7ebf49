"""Instance generation, experiment orchestration, and report serialization.

The random generator is pinned for reproducibility: instances are drawn from
CPython's ``random.Random`` (the Mersenne Twister), seeded with the given
64-bit seed, in a fixed draw order -- for each item its cost then its weight
via ``randint``, then each capacity left to right.  Identical parameters
therefore produce byte-identical instances on every platform, and golden
digests stay valid.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .algorithms import ALGORITHMS, PROTOCOLS, RunResult, final_reassign, run_algorithm
from .core import Instance, check_feasible
from .oracle import (
    OptimalSolution,
    approx_ratio,
    batch_round_greedy,
    bound_holds,
    exact_optimum,
    strict_sequential_greedy,
)
from .simnet import SOURCE, Trace, Winner


@dataclass(frozen=True)
class GenParams:
    """Parameters for the uniform random instance generator.

    Costs are drawn from [1, cost_max], weights from [1, weight_max],
    capacities from [cap_min, cap_max].
    """

    m: int
    n: int
    cost_max: int
    weight_max: int
    cap_min: int
    cap_max: int
    seed: int

    def __post_init__(self):
        if self.m < 0:
            raise ValueError(f"m must be >= 0, got {self.m}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for name in ("cost_max", "weight_max", "cap_min"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.cap_max < self.cap_min:
            raise ValueError(
                f"capacity range [{self.cap_min}, {self.cap_max}] is empty"
            )
        # random.Random(-s) seeds the same stream as random.Random(s)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def gen_random(params: GenParams) -> Instance:
    """Uniform instance from the pinned generator; deterministic in the seed."""
    rng = random.Random(params.seed)
    pairs = [
        (rng.randint(1, params.cost_max), rng.randint(1, params.weight_max))
        for _ in range(params.m)
    ]
    capacities = [rng.randint(params.cap_min, params.cap_max) for _ in range(params.n)]
    return Instance.from_pairs(pairs, capacities)


def gen_adversarial(n: int, W: int) -> Instance:
    """The worst-case family: n knapsacks of capacity W, n cost-2/weight-1
    items followed by n items of cost and weight W.

    Requires W >= 3 so that the light items strictly dominate by density
    (2/1 > W/W) while swapping a light item for a heavy one still strictly
    improves a knapsack (W > 2).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if W < 3:
        raise ValueError(
            f"W must be >= 3 (got {W}): with W < 3 a heavy item no longer "
            "strictly beats a light one, so the family loses its point"
        )
    pairs = [(2, 1)] * n + [(W, W)] * n
    return Instance.from_pairs(pairs, [W] * n)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "algorithm",
    "m",
    "n",
    "profit",
    "opt",
    "ratio_num",
    "ratio_den",
    "messages",
    "phases",
    "rounds",
)


@dataclass(frozen=True)
class RunReport:
    """Serializable record of one algorithm run on one instance.

    ``oracle`` is "none" when no comparison was requested, "ok" when OPT was
    computed, and "unavailable" when the exact solver gave up; the optional
    fields are populated only in the "ok" case.
    """

    algorithm: str
    instance: str
    m: int
    n: int
    profit: int
    placement: dict[int, int | None]
    messages: int
    phases: int
    rounds: int
    oracle: str = "none"
    opt: int | None = None
    ratio: Fraction | None = None
    bound_ok: bool | None = None


def report_to_json(report: RunReport) -> str:
    """Stable, human-diffable serialization with a fixed field order."""
    doc: dict = {
        "algorithm": report.algorithm,
        "instance": report.instance,
        "m": report.m,
        "n": report.n,
        "profit": report.profit,
        "placement": {str(i): k for i, k in sorted(report.placement.items())},
        "messages": report.messages,
        "phases": report.phases,
        "rounds": report.rounds,
    }
    if report.oracle == "ok":
        doc["opt"] = report.opt
        doc["ratio"] = f"{report.ratio.numerator}/{report.ratio.denominator}"
        doc["bound_ok"] = report.bound_ok
    elif report.oracle == "unavailable":
        doc["opt"] = "unavailable"
    return json.dumps(doc, indent=2) + "\n"


def reports_to_csv(reports) -> str:
    """Flat tabular export for sweeps; oracle-less columns stay empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        if r.oracle == "ok":
            opt, num, den = r.opt, r.ratio.numerator, r.ratio.denominator
        else:
            opt = num = den = ""
        writer.writerow(
            [r.algorithm, r.m, r.n, r.profit, opt, num, den, r.messages, r.phases, r.rounds]
        )
    return buf.getvalue()


def make_report(
    inst: Instance, result: RunResult, opt: OptimalSolution | None, oracle: str
) -> RunReport:
    """The report of one run; it names the instance by its cached digest."""
    ratio = bound = None
    opt_value = None
    if oracle == "ok":
        opt_value = opt.opt
        ratio = approx_ratio(result.profit, opt)
        bound = bound_holds(result.profit, opt, inst.n)
    return RunReport(
        algorithm=result.algorithm,
        instance=inst.digest,
        m=inst.m,
        n=inst.n,
        profit=result.profit,
        placement=dict(result.assignment.placement),
        messages=result.messages,
        phases=result.phases,
        rounds=result.rounds,
        oracle=oracle,
        opt=opt_value,
        ratio=ratio,
        bound_ok=bound,
    )


def run_experiment(inst: Instance, algorithms=ALGORITHMS, with_oracle: bool = False):
    """Run the requested algorithms and return reports in the fixed
    :data:`PROTOCOLS` order; oracle data is attached when requested
    and available, and marked unavailable otherwise.

    The runs keep no trace, since no report reads one.  They and the
    reports read the instance's cached density order and digest, so an
    instance is sorted and digested once however many calls use it.
    """
    requested = set(algorithms)
    unknown = requested - set(ALGORITHMS)
    if unknown:
        raise ValueError(f"unknown algorithm(s): {sorted(unknown)}")
    opt = None
    oracle = "none"
    if with_oracle:
        opt = exact_optimum(inst)
        oracle = "ok" if opt is not None else "unavailable"
    reports = []
    for name in ALGORITHMS:
        if name in requested:
            result = run_algorithm(name, inst, keep_trace=False)
            reports.append(make_report(inst, result, opt, oracle))
    return reports


# ---------------------------------------------------------------------------
# Trace audit
# ---------------------------------------------------------------------------

def audit_max_capacity_dispatch(
    inst: Instance, trace: Trace, period: int, sequential: dict[int, int | None]
) -> list[str]:
    """Check a one-item-per-round protocol's trace against the greedy
    dispatch: round r must award the r-th item in density order to a
    largest remaining knapsack that fits it (ties: smallest id), or to
    nobody when none fits.

    ``period`` is the protocol's phases per round and ``sequential`` the
    :func:`strict_sequential_greedy` placement of ``inst``, which
    :func:`verify_instance` has already computed; round r's item is the
    r-th of ``inst.density_order``.  Winners are read off the
    trace's winner reports, each in the round its phase falls in.  By
    induction over the rounds, every winner is the greedy choice given the
    earlier winners iff the winner sequence is the one ``sequential``
    gives, so the trace is compared with that.  Returns the first round
    that differs (a winner reported in a round that dispatches no item
    included), or more than one winner report in a round; ``[]`` for a
    clean trace.
    """
    winners: dict[int, int] = {}
    for d in trace:
        if d.recipient == SOURCE and isinstance(d.payload, Winner):
            round_index = (d.phase - 1) // period
            if round_index in winners:
                return [f"round {round_index}: more than one winner report"]
            winners[round_index] = d.payload.processor

    order = inst.density_order
    greedy = {r: sequential[i] + 1 for r, i in enumerate(order) if sequential[i] is not None}
    if winners == greedy:
        return []
    r = min(k for k in winners.keys() | greedy.keys() if winners.get(k) != greedy.get(k))
    if not 0 <= r < inst.m:
        return [f"round {r}: winner p{winners[r]} reported in a round that dispatches no item"]

    def award(processor: int | None) -> str:
        return "no knapsack" if processor is None else f"knapsack {processor - 1}"

    return [
        f"round {r}: item {order[r]} went to {award(winners.get(r))}, "
        f"the sequential greedy gives it {award(greedy.get(r))}"
    ]


# ---------------------------------------------------------------------------
# Verification sweeps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepParams:
    """A (m, n, seed) grid for verification sweeps.

    Seeds are mixed with m and n: seed = m * 1_000_003 + n * 10_007 + s for
    s in 0..seeds-1.  Distinct grid points get distinct seeds, and so never
    share a random stream, when n spans at most 99 values and seeds <= 10_007.
    Past that, two points can share one: ``SweepParams(0, 1, 1, 101, 698)``
    gives (m=0, n=101, s=0) and (m=1, n=1, s=697) the seed 1_010_707.
    """

    m_lo: int
    m_hi: int
    n_lo: int
    n_hi: int
    seeds: int
    cost_max: int = 50
    weight_max: int = 50
    cap_min: int = 1
    cap_max: int = 100

    def __post_init__(self):
        if not (0 <= self.m_lo <= self.m_hi):
            raise ValueError(f"bad m range {self.m_lo}..{self.m_hi}")
        if not (1 <= self.n_lo <= self.n_hi):
            raise ValueError(f"bad n range {self.n_lo}..{self.n_hi}")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")

    def grid(self):
        for m in range(self.m_lo, self.m_hi + 1):
            for n in range(self.n_lo, self.n_hi + 1):
                for s in range(self.seeds):
                    yield GenParams(
                        m,
                        n,
                        self.cost_max,
                        self.weight_max,
                        self.cap_min,
                        self.cap_max,
                        seed=m * 1_000_003 + n * 10_007 + s,
                    )


@dataclass
class InstanceVerification:
    """Every protocol's run on one instance plus every check outcome."""

    instance: Instance
    results: dict[str, RunResult]
    opt: OptimalSolution | None
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_instance(inst: Instance, *, with_oracle: bool = True) -> InstanceVerification:
    """Run every protocol in :data:`PROTOCOLS` on the instance and check each
    run against its record.

    A run whose final assignment is infeasible raises
    :class:`~mkpsim.simnet.SimulationFault` from :func:`run_algorithm`.
    Every run must have a feasible pre-final assignment (checked here
    unless it is the final one, as in ``simple``), a profit the
    reassignment pass did not lower, the record's exact (messages, phases,
    rounds) and at most its message bound.  Its pre-final placement
    must equal the message-free recomputation of its dispatch
    (:func:`strict_sequential_greedy` when ``one_item_per_round``, else
    :func:`batch_round_greedy`), and its final placement that recomputation
    after :func:`final_reassign` when it ``reassigns``, else the
    recomputation itself.  A one-item-per-round run's trace must pass
    :func:`audit_max_capacity_dispatch`; those are the only runs that keep
    a trace, and a batch run's ``trace`` is ``None``.  With the oracle a
    run that reassigns must earn at least OPT/(n+1).  Every violation but an
    unavailable oracle starts with the protocol's name.  All of them read
    the instance's one cached :attr:`~mkpsim.core.Instance.density_order`."""
    n = inst.n
    opt = exact_optimum(inst) if with_oracle else None
    results: dict[str, RunResult] = {}
    recomputed = {}  # greedy -> (its placement, final_reassign of it)
    bad: list[str] = []

    # messages formatted only on failure: a sweep runs this per instance
    for name, protocol in PROTOCOLS.items():
        # run_algorithm raises on an infeasible final assignment
        res = results[name] = run_algorithm(name, inst, keep_trace=protocol.one_item_per_round)
        # with no pass after the dispatch (``simple``) the pre-final
        # assignment is the final one, which run_algorithm has checked
        if res.pre_final_assignment is not res.assignment:
            violation = check_feasible(res.pre_final_assignment, inst)
            if violation is not None:
                bad.append(f"{name}: pre-final assignment infeasible: {violation}")
        if res.profit < res.pre_final_profit:
            bad.append(
                f"{name}: reassignment decreased profit "
                f"{res.pre_final_profit} -> {res.profit}"
            )
        assigned = len(res.pre_final_assignment.assigned_items())
        want = (
            protocol.messages(inst, assigned, len(res.changed_knapsacks)),
            protocol.phases(inst),
            protocol.rounds(inst),
        )
        got = (res.messages, res.phases, res.rounds)
        if got != want:
            bad.append(f"{name}: (messages, phases, rounds) {got} != {want}")
        bound = protocol.message_bound(inst)
        if res.messages > bound:
            bad.append(f"{name}: messages {res.messages} > bound {bound}")

        greedy = strict_sequential_greedy if protocol.one_item_per_round else batch_round_greedy
        if greedy not in recomputed:
            dispatched = greedy(inst).assignment
            recomputed[greedy] = (dispatched.placement, final_reassign(dispatched, inst)[0].placement)
        dispatched, reassigned = recomputed[greedy]
        if res.pre_final_assignment.placement != dispatched:
            bad.append(f"{name}: pre-final placement differs from {greedy.__name__}")
        if res.assignment.placement != (reassigned if protocol.reassigns else dispatched):
            after = "after final_reassign" if protocol.reassigns else "with no reassignment pass"
            bad.append(f"{name}: final placement differs from {greedy.__name__} {after}")

        if protocol.one_item_per_round:  # so ``dispatched`` is the sequential greedy's
            period = protocol.period(inst)
            for problem in audit_max_capacity_dispatch(inst, res.trace, period, dispatched):
                bad.append(f"{name}: trace audit: {problem}")
        if protocol.reassigns and opt is not None and not bound_holds(res.profit, opt, n):
            bad.append(f"{name}: bound violated: {res.profit} * ({n}+1) < {opt.opt}")

    if with_oracle and opt is None:
        bad.append("oracle unavailable: bound left unchecked")
    return InstanceVerification(inst, results, opt, bad)


@dataclass
class SweepSummary:
    instances: int
    failures: list[tuple[GenParams, list[str]]]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_sweep(params: SweepParams) -> SweepSummary:
    """Verify every instance of the grid, with the oracle; collects per-instance failures."""
    failures = []
    count = 0
    for gp in params.grid():
        count += 1
        verdict = verify_instance(gen_random(gp))
        if not verdict.ok:
            failures.append((gp, verdict.violations))
    return SweepSummary(count, failures)
