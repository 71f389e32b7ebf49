"""mkpsim: deterministic simulator for distributed greedy multiple-knapsack
dispatch protocols, with exact oracles and message/phase accounting."""

from .algorithms import (
    ALGORITHMS,
    PROTOCOLS,
    RunResult,
    final_reassign,
    run_algorithm,
)
from .core import (
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
from .harness import (
    GenParams,
    RunReport,
    SweepParams,
    audit_max_capacity_dispatch,
    gen_adversarial,
    gen_random,
    report_to_json,
    reports_to_csv,
    run_experiment,
    verify_instance,
    verify_sweep,
)
from .oracle import (
    GreedySolution,
    OptimalSolution,
    approx_ratio,
    batch_round_greedy,
    bound_holds,
    brute_force_optimum,
    exact_optimum,
    strict_sequential_greedy,
)
from .simnet import (
    SOURCE,
    RunMetrics,
    SimulationFault,
    render_trace,
    run_protocol,
    tree_links,
)

__version__ = "0.1.0"
