"""Finite-blocklength primitives: SNR, capacity, dispersion, the Gaussian tail
function and its inverse, the decoding exponent, per-link error probabilities,
and the leakage-failure probability that combines them.  LinkSet evaluates
them over all links of a scenario at once; every LFP evaluator goes through it.

Functions accept numpy arrays wherever that is natural; scalar floats come
back for scalar inputs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np
from scipy.special import erfc, ndtri

from .errors import DegenerateChannelError, InfeasibleError

LN2 = math.log(2.0)
_SQRT2 = math.sqrt(2.0)
_TAIL_CLAMP = 38.0


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelSpec:
    """One link's gain statistics and noise floor.

    gain is the squared channel magnitude (dimensionless), noise_power is in
    watts.  mean_gain is only consulted when the gain is treated as a random
    fade (statistical CSI); it is the mean of the gain distribution.
    """

    gain: float
    noise_power: float
    mean_gain: Optional[float] = None

    def __post_init__(self):
        if not (self.gain >= 0.0 and math.isfinite(self.gain)):
            raise ValueError(f"gain must be finite and >= 0, got {self.gain}")
        if not (self.noise_power > 0.0 and math.isfinite(self.noise_power)):
            raise ValueError(f"noise_power must be finite and > 0, got {self.noise_power}")
        if self.mean_gain is not None and not (self.mean_gain > 0.0
                                               and math.isfinite(self.mean_gain)):
            raise ValueError(f"mean_gain must be finite and > 0, got {self.mean_gain}")


@dataclass(frozen=True)
class Resources:
    """A candidate allocation: blocklength m (channel uses) and power p (watts).

    m is a positive real while relaxed inside solvers and a positive integer
    in final allocations.
    """

    m: float
    p: float

    def __post_init__(self):
        if not self.m > 0.0:
            raise ValueError(f"blocklength must be > 0, got {self.m}")
        if not self.p >= 0.0:
            raise ValueError(f"power must be >= 0, got {self.p}")


class EveModel(enum.Enum):
    """How multiple eavesdroppers combine: independent decoders or MRC collusion."""

    PASSIVE = "passive"
    SUPER = "super"


@dataclass(frozen=True)
class Scenario:
    """A transmission setup: packet size, Bob's link, the eavesdropper links,
    how the eavesdroppers combine, and the resource caps."""

    d: int
    bob: ChannelSpec
    eves: Tuple[ChannelSpec, ...]
    eve_model: EveModel = EveModel.PASSIVE
    m_cap: int = 3000
    p_cap: float = 10.0

    def __post_init__(self):
        if not (isinstance(self.d, (int, np.integer)) and self.d >= 1):
            raise ValueError(f"packet size d must be a positive integer, got {self.d}")
        object.__setattr__(self, "eves", tuple(self.eves))
        if len(self.eves) < 1:
            raise ValueError("at least one eavesdropper channel is required")
        if not (isinstance(self.m_cap, (int, np.integer)) and self.m_cap >= 1):
            raise ValueError(f"m_cap must be a positive integer, got {self.m_cap}")
        if not (self.p_cap > 0.0 and math.isfinite(self.p_cap)):
            raise ValueError(f"p_cap must be finite and > 0, got {self.p_cap}")

    @property
    def single_eve(self) -> ChannelSpec:
        if len(self.eves) != 1:
            raise ValueError(
                "scenario has multiple eavesdroppers; only the statistical-CSI "
                "searches need exactly one"
            )
        return self.eves[0]


@dataclass(frozen=True)
class ReliabilityPair:
    """Bob's decoding error probability and Eve's decoding error probability."""

    eps_b: float
    eps_e: float

    def __post_init__(self):
        for name, v in (("eps_b", self.eps_b), ("eps_e", self.eps_e)):
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")

    @property
    def delta(self) -> float:
        """Leakage probability: the chance the eavesdropper decodes the packet."""
        return 1.0 - self.eps_e


# ---------------------------------------------------------------------------
# elementary quantities
# ---------------------------------------------------------------------------

def snr(ch: ChannelSpec, p: float):
    """Received SNR for transmit power p over the given link."""
    p = np.asarray(p, dtype=float) if np.ndim(p) else float(p)
    if np.any(np.asarray(p) < 0.0):
        raise ValueError("power must be >= 0")
    return p * ch.gain / ch.noise_power


def _is_scalar(x) -> bool:
    """True for a float (np.float64 included) without asking numpy, whose
    np.ndim builds a 0-d array first; otherwise whether x has no axes."""
    return isinstance(x, float) or not np.ndim(x)


def capacity(gamma):
    """Shannon capacity log2(1 + gamma) in bits per channel use."""
    if _is_scalar(gamma):
        return math.log2(1.0 + gamma)
    return np.log2(1.0 + np.asarray(gamma, dtype=float))


def dispersion(gamma):
    """Channel dispersion 1 - (1 + gamma)^-2; lies in [0, 1)."""
    if _is_scalar(gamma):
        return 1.0 - (1.0 + float(gamma)) ** -2
    return 1.0 - (1.0 + np.asarray(gamma, dtype=float)) ** -2


def q(x):
    """Gaussian tail probability Q(x) = erfc(x / sqrt 2) / 2, in [0, 1].
    Only the upper tail is clamped, to exactly 0 beyond x = 38: the lower
    one is already exactly 1 for every x <= -8.3."""
    xv = np.asarray(x, dtype=float)
    out = np.divide(xv, _SQRT2, out=np.empty_like(xv))
    with np.errstate(under="ignore"):
        erfc(out, out=out)
    out *= 0.5
    np.putmask(out, xv > _TAIL_CLAMP, 0.0)
    return out if np.ndim(x) else float(out)


def q_inv(y: float) -> float:
    """Inverse of q on (0, 1): -ndtri(y), through q(x) = Phi(-x).

    For y within ~1e-9 of 1 the double representation of y itself limits the
    recoverable argument to ~1e-8.
    """
    if not 0.0 < y < 1.0:
        raise ValueError(f"q_inv requires y in (0, 1), got {y}")
    if y == 0.5:
        return 0.0
    return -float(ndtri(y))


def omega(gamma, d, m):
    """Decoding exponent sqrt(m / V) * (C - d/m) * ln 2.

    Its sign matches the sign of the capacity margin C(gamma) - d/m.
    Raises DegenerateChannelError at gamma = 0 where the dispersion vanishes.
    """
    g = np.asarray(gamma, dtype=float)
    if np.any(g <= 0.0):
        raise DegenerateChannelError("omega requires gamma > 0 (dispersion vanishes at 0)")
    mv = np.asarray(m, dtype=float)
    if np.any(mv <= 0.0):
        raise ValueError("blocklength must be > 0")
    out = _omega(g, d, mv)
    return out if (np.ndim(gamma) or np.ndim(m)) else float(out)


def _omega(g, d, m):
    """The exponent sqrt(m / V) * (C - d/m) * ln 2 on float arrays, unchecked."""
    v = 1.0 - (1.0 + g) ** -2
    return np.sqrt(m / v) * (np.log2(1.0 + g) - d / m) * LN2


def fbl_error(gamma, d, m):
    """Decoding error probability of a length-m code carrying d bits at SNR gamma."""
    return q(omega(gamma, d, m))


def lfp(pair: ReliabilityPair) -> float:
    """Leakage-failure probability: Bob fails to decode or Eve succeeds."""
    return lfp_from_errors(pair.eps_b, pair.eps_e)


def lfp_from_errors(eps_b, eps_e):
    """Vector-friendly form of the leakage-failure combination
    1 - (1 - eps_b) * eps_e."""
    return 1.0 - (1.0 - eps_b) * eps_e


# ---------------------------------------------------------------------------
# link sets: the link kernel behind every LFP evaluation
# ---------------------------------------------------------------------------

class LinkSet:
    """Bob plus N eavesdropper links of one scenario, with vectorized exponent
    and LFP evaluation.

    The links lie on one leading axis, Bob at index 0: omegas and errors
    return an (N + 1, *broadcast(m, p).shape) array from one kernel call."""

    def __init__(self, d: int, bob: ChannelSpec, eves: Sequence[ChannelSpec],
                 m_cap: int, p_cap: float):
        self.d = d
        self.m_cap = int(m_cap)
        self.p_cap = float(p_cap)
        self.channels: Tuple[ChannelSpec, ...] = (bob,) + tuple(eves)
        self.k = np.array([c.gain / c.noise_power for c in self.channels])
        if np.any(self.k <= 0.0):
            raise InfeasibleError("every link needs a positive gain to noise ratio")

    def omegas(self, m, p) -> np.ndarray:
        return self._omegas(self.k, m, p)

    def _omegas(self, k, m, p) -> np.ndarray:
        """The exponents of the links whose SNR per watt is k (self.k or a
        slice of it), on the leading axis."""
        mv = np.asarray(m, dtype=float)
        pv = np.asarray(p, dtype=float)
        k = k.reshape((-1,) + (1,) * max(mv.ndim, pv.ndim))
        return _omega(k * pv, self.d, mv)

    def errors(self, m, p) -> np.ndarray:
        return q(self.omegas(m, p))

    def eps_pair(self, m, p):
        """(eps_b, eps_e): Bob's error and the joint failure of the
        eavesdroppers, the product of their errors in index order (1 when
        there are none)."""
        errs = self.errors(m, p)
        return errs[0], np.multiply.reduce(errs[1:], axis=0)

    def box_floor(self, m_lo, m_hi, p_lo, p_hi):
        """(eps_b, eps_e) at the LFP's floor on the boxes [m_lo, m_hi] x
        [p_lo, p_hi], elementwise over the corner coordinates: Bob's error
        at (m_hi, p_hi) and the eavesdroppers' joint error at (m_lo, p_lo).

        Every link's exponent sqrt(m / V) * (C - d/m) * ln 2 rises strictly
        in m and in the SNR, so every error probability falls in m and p.
        On each box, eps_b is therefore the smallest of Bob's errors and
        eps_e the largest joint error, so the leakage 1 - eps_e is the
        smallest leakage, and the LFP, which rises in eps_b and falls in
        eps_e, is at least lfp_from_errors(eps_b, eps_e) on every cell.
        Bob's row is evaluated at one corner and the eavesdroppers' rows at
        the other, N + 1 link rows in all."""
        eps_b = q(self._omegas(self.k[:1], m_hi, p_hi))[0]
        eps_e = q(self._omegas(self.k[1:], m_lo, p_lo))
        return eps_b, np.multiply.reduce(eps_e, axis=0)

    def lfp(self, m, p):
        """Actual LFP: passive combination across all eavesdropper links
        (a single link reduces to the two-node formula)."""
        return lfp_from_errors(*self.eps_pair(m, p))

    def pair(self, m: float, p: float) -> ReliabilityPair:
        eps_b, eps_e = self.eps_pair(m, p)
        return ReliabilityPair(eps_b=float(eps_b), eps_e=float(eps_e))


def linkset_for(scenario: Scenario) -> LinkSet:
    """Link set realizing the scenario's eavesdropper model: the super model
    collapses the colluders to one link whose SNR is the sum of theirs
    (maximum-ratio combining), written as the gains rescaled to the first
    eavesdropper's noise power; the passive model keeps all links."""
    eves = scenario.eves
    if scenario.eve_model is EveModel.SUPER and len(eves) > 1:
        n_0 = eves[0].noise_power
        gain = sum(e.gain * (n_0 / e.noise_power) for e in eves)
        eves = (ChannelSpec(gain=float(gain), noise_power=n_0),)
    return LinkSet(scenario.d, scenario.bob, eves, scenario.m_cap, scenario.p_cap)


def lfp_at(scenario: Scenario, res: Resources) -> Tuple[float, ReliabilityPair]:
    """The LFP of a scenario under its own eavesdropper model at an
    allocation, and the (eps_b, eps_e) pair it combines; eps_e is the joint
    failure of the eavesdroppers (multi_eve.scenario_lfp is its first
    element)."""
    pair = linkset_for(scenario).pair(res.m, res.p)
    return lfp(pair), pair


def max_rate(gamma: float, m: float, eps_bar: float) -> float:
    """Largest rate supportable at blocklength m with target error eps_bar.

    The dispersion penalty is scaled so that fbl_error(gamma, m * max_rate, m)
    returns eps_bar again.
    """
    if not 0.0 < eps_bar < 1.0:
        raise ValueError(f"target error must lie in (0, 1), got {eps_bar}")
    if gamma <= 0.0:
        raise DegenerateChannelError("max_rate requires gamma > 0")
    return capacity(gamma) - math.sqrt(dispersion(gamma) / m) * q_inv(eps_bar) / LN2


def secrecy_rate(gamma_b: float, gamma_e: float, m: float,
                 eps_b: float, delta: float) -> float:
    """Secrecy rate achievable with Bob error eps_b and leakage delta.

    Bob's term is the rate his link supports at error eps_b; Eve's term is the
    randomization rate that caps her decoding probability at delta.  Both
    dispersion penalties use the same bits scaling as fbl_error, so feeding the
    error pair induced by an actual allocation back in recovers a zero margin.
    """
    for name, v in (("eps_b", eps_b), ("delta", delta)):
        if not 0.0 < v < 1.0:
            raise ValueError(f"{name} must lie in (0, 1), got {v}")
    cs = capacity(gamma_b) - capacity(gamma_e)
    pen_b = math.sqrt(dispersion(gamma_b) / m) * q_inv(eps_b) / LN2
    pen_e = math.sqrt(dispersion(gamma_e) / m) * q_inv(delta) / LN2
    return cs - pen_b - pen_e


def fbl_error_over_gains(gains, noise_power: float, p: float, d: int, m):
    """fbl_error evaluated across an array of channel gains, zero included.

    Used by the fading expectation, where gain draws can be arbitrarily small.
    Wherever 1 + gamma rounds to 1 the dispersion is 0, the exponent is -inf
    and the error is its zero-SNR limit, exactly 1.
    """
    g = np.asarray(gains, dtype=float) * p / noise_power
    with np.errstate(divide="ignore"):
        return q(_omega(g, d, np.asarray(m, dtype=float)))
