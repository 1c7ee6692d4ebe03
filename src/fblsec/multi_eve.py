"""Leakage-failure probability of a scenario under its eavesdropper model,
and the solver for it.

Two collusion models: passive (independent decoders; the packet leaks unless
every eavesdropper fails) and super (perfect signal sharing: maximum-ratio
combining, modeled as one eavesdropper whose SNR is the sum of theirs).
core.linkset_for realizes either model as a LinkSet, so one evaluator,
core.lfp_at (scenario_lfp is its value), and one solver, solve_multi, serve
one eavesdropper, passive sets and colluders alike; the surrogate is
bounds.approx_lfp.  telescope_leakage writes the joint-failure complement
1 - prod(eps_e) as a sum of nonnegative products, the expansion the
surrogate bounds term by term.
"""

from __future__ import annotations

from typing import Sequence

from .core import Resources, Scenario, lfp_at, linkset_for
from .solver import AllocationResult, SolverConfig, run_iteration


def telescope_leakage(eps_e: Sequence[float]) -> float:
    """1 - prod(eps) expanded as sum_n (1 - eps_n) * prod_{i > n} eps_i
    (sentinel factor 1 past the end); every summand is nonnegative."""
    eps = [float(e) for e in eps_e]
    if any(not 0.0 <= e <= 1.0 for e in eps):
        raise ValueError("error probabilities must lie in [0, 1]")
    total = 0.0
    tail = 1.0
    for e in reversed(eps):
        total += (1.0 - e) * tail
        tail *= e
    return total


def scenario_lfp(scenario: Scenario, res: Resources) -> float:
    """Actual LFP of any scenario under its own eavesdropper model: the
    value of core.lfp_at."""
    return lfp_at(scenario, res)[0]


def solve_multi(scenario: Scenario, cfg: SolverConfig | None = None) -> AllocationResult:
    """Minimize the LFP of a scenario with one or more eavesdroppers over
    blocklength and power with the iterative surrogate method.  Colluding
    eavesdroppers are solved on the aggregated link; passive ones run the
    iteration on the telescoped surrogate."""
    cfg = cfg or SolverConfig()
    return run_iteration(linkset_for(scenario), cfg)
