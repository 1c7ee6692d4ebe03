"""Leakage-failure probability with several eavesdroppers.

Two collusion models: passive (independent decoders; the packet leaks unless
every eavesdropper fails) and super (perfect signal sharing, modeled as one
eavesdropper whose gain is the sum).  The passive surrogate telescopes the
joint-failure complement into nonnegative products before bounding each one.
"""

from __future__ import annotations

from typing import Sequence

from .bounds import LocalPoint, SurrogateModel
from .core import LinkSet, Resources, Scenario, linkset_for
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


def _passive_links(scenario: Scenario) -> LinkSet:
    """One link per eavesdropper, whatever the scenario's model."""
    return LinkSet(scenario.d, scenario.bob, scenario.eves,
                   scenario.m_cap, scenario.p_cap)


def lfp_passive(scenario: Scenario, res: Resources) -> float:
    """LFP with independent eavesdroppers: Bob fails, or at least one
    eavesdropper decodes."""
    return float(_passive_links(scenario).lfp(res.m, res.p))


def approx_lfp_passive(m: float, p: float, scenario: Scenario,
                       anchor: LocalPoint) -> float:
    """Anchored surrogate of the passive-eavesdropper LFP: each telescoped
    product term is replaced by its ratio-weighted power mean with every factor
    bounded by an anchored exponential.  Upper-bounds lfp_passive everywhere
    and matches it at the anchor allocation (anchor.m_hat, anchor.p_hat), from
    which the link exponents are derived."""
    return SurrogateModel(_passive_links(scenario), anchor.m_hat, anchor.p_hat).value(m, p)


def scenario_lfp(scenario: Scenario, res: Resources) -> float:
    """Actual LFP of any scenario under its own eavesdropper model."""
    return float(linkset_for(scenario).lfp(res.m, res.p))


def solve_multi(scenario: Scenario, cfg: SolverConfig | None = None) -> AllocationResult:
    """Minimize the LFP of a multi-eavesdropper scenario.  Colluding
    eavesdroppers are solved on the aggregated link; passive ones run the
    iteration on the telescoped surrogate."""
    cfg = cfg or SolverConfig()
    return run_iteration(linkset_for(scenario), cfg)
