"""Closed-form feasibility of linear repeater chains.

A chain with n intermediate repeaters, link visibility lam and Bell
measurement success probability q shares an isotropic state of visibility
q^n lam^(n+1). Everything here reduces feasibility questions about that
number to explicit formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Tuple, Union

from . import P_STAR, UNIT, Range, Sentinel, check_fields, ranged, yields

CHSH_THRESHOLD = 1.0 / math.sqrt(2.0)
TELEPORT_THRESHOLD = 1.0 / 3.0
ENT_PPT_THRESHOLD = 1.0 / 3.0
ENT_APPENDIX_THRESHOLD = 2.0 / math.sqrt(3.0) - 1.0


class TaskKind(str, Enum):
    ENTANGLEMENT = "entanglement"
    TELEPORTATION = "teleportation"
    CHSH = "chsh"
    DIQKD = "diqkd"
    CUSTOM = "custom"


class EntanglementMode(str, Enum):
    PPT_THRESHOLD = "ppt-threshold"
    PAPER_APPENDIX_H = "paper-appendix-h"


_OPEN_UNIT = Range("(0, 1)")
_THETA = Range("(0, pi/2)", "DIQKD requires theta in (0, pi/2)")
# the parameter a task kind requires, and its range
TASK_PARAMETERS = {
    TaskKind.DIQKD: ("theta", _THETA),
    TaskKind.CUSTOM: ("p_star", Range("(0, 1)", "Custom requires p_star in (0, 1)")),
}


@dataclass(frozen=True)
class TaskSpec:
    """A task together with its critical visibility threshold.

    theta is required for DIQKD, p_star for Custom. Feasibility always
    means strict ">" against the threshold.
    """

    kind: TaskKind
    theta: Optional[float] = None
    p_star: Optional[float] = None
    entanglement_mode: EntanglementMode = EntanglementMode.PPT_THRESHOLD

    def __post_init__(self):
        if self.kind in TASK_PARAMETERS:
            name, rng = TASK_PARAMETERS[self.kind]
            rng.check(name, getattr(self, name))

    def threshold(self) -> float:
        if self.kind is TaskKind.CHSH:
            return CHSH_THRESHOLD
        if self.kind is TaskKind.TELEPORTATION:
            return TELEPORT_THRESHOLD
        if self.kind is TaskKind.ENTANGLEMENT:
            if self.entanglement_mode is EntanglementMode.PPT_THRESHOLD:
                return ENT_PPT_THRESHOLD
            return ENT_APPENDIX_THRESHOLD
        if self.kind is TaskKind.DIQKD:
            return critical_visibility_diqkd(self.theta)
        return self.p_star


@dataclass(frozen=True)
class ChainConfig:
    lam: float = ranged("[0, 1]")
    q: float = ranged("[0, 1]")
    n: int = ranged(">= 0")

    __post_init__ = check_fields


@dataclass(frozen=True)
class LinkBudget:
    """Loss parameters for the fiber length / storage time trade-off.

    alpha   fiber loss rate, 1/km
    beta    memory loss rate, 1/s
    eta_s   source efficiency
    r       repeater count
    q       Bell measurement success probability
    p_star  critical end-to-end success probability
    """

    alpha: float = ranged(">= 0", 0.051)
    beta: float = ranged(">= 0", 0.001)
    eta_s: float = ranged("[0, 1]", 1.0)
    r: int = ranged(">= 1", 1)
    q: float = ranged("[0, 1]", 1.0)
    p_star: float = ranged("(0, 1)", 0.5)

    __post_init__ = check_fields


def chain_visibility(cfg: ChainConfig) -> float:
    return cfg.q**cfg.n * cfg.lam ** (cfg.n + 1)


def critical_visibility_diqkd(theta: float) -> float:
    """Visibility below which the one-parameter-family key rate vanishes."""
    _THETA.check("theta", theta)
    gamma_l = 1.0 / (math.cos(theta) + math.sin(theta))
    return (gamma_l + 1.0) / (3.0 - gamma_l)


class Unbounded(Sentinel):
    """Sentinel: every repeater count keeps the chain above threshold."""


class NoneFeasible(Sentinel):
    """Sentinel: even a direct link (n = 0) is below threshold."""


MaxRepeaters = Union[int, Unbounded, NoneFeasible]


def _precheck(lam: float, q: float, task: TaskSpec) -> Tuple[float, Optional[MaxRepeaters]]:
    """The task threshold, and the answer where no formula is needed.

    Past it lam > gamma, so n = 0 is feasible, and the decay q lam < 1.
    """
    gamma = task.threshold()
    UNIT.check("lam", lam)
    UNIT.check("q", q)
    if lam <= gamma:
        return gamma, NoneFeasible()
    return gamma, Unbounded() if q == 1.0 and lam == 1.0 else None


def max_repeaters(lam: float, q: float, task: TaskSpec) -> MaxRepeaters:
    """Largest n with q^n lam^(n+1) strictly above the task threshold.

    Solved by inverting the logarithm; from two below that estimate, n then
    steps up while the visibility at n + 1 still clears the threshold.
    """
    gamma, known = _precheck(lam, q, task)
    if known is not None:
        return known
    decay = q * lam
    if decay <= 0.0:
        return 0
    guess = int(math.floor(math.log(gamma / lam) / math.log(decay)))
    n = max(0, guess - 2)
    while chain_visibility(ChainConfig(lam, q, n + 1)) > gamma:
        n += 1
    return n


def max_repeaters_floor_form(lam: float, q: float, task: TaskSpec) -> MaxRepeaters:
    """Published closed-form variant floor(log(lam/gamma)/log(1/(q lam))) - 1.

    Conservative: can undercount max_repeaters by one. At q lam = 0 it
    gives NoneFeasible, its limit as q lam -> 0.
    """
    gamma, known = _precheck(lam, q, task)
    if known is not None:
        return known
    if q * lam == 0.0:
        return NoneFeasible()
    n = int(math.floor(math.log(lam / gamma) / math.log(1.0 / (q * lam)))) - 1
    if n < 0:
        return NoneFeasible()
    return n


class Empty(Sentinel):
    """Sentinel for an empty visibility interval."""


def zero_key_window(q: float, n: int, theta: float) -> Union[Tuple[float, float], Empty]:
    """Visibility interval with nonzero single-link DI key but zero chain key.

    Returns (gamma_crit, min(1, (gamma_crit / q^n)^(1/(n+1)))), or Empty
    when the lower bound reaches the upper bound (e.g. n = 0).
    """
    gamma = critical_visibility_diqkd(theta)
    Range("(0, 1]").check("q", q)
    Range(">= 0").check("n", n)
    if n == 0:
        return Empty()
    qn = q**n
    # q**n <= gamma puts the root at 1 or above; q**n may underflow to 0
    upper = 1.0 if qn <= gamma else (gamma / qn) ** (1.0 / (n + 1))
    if gamma >= upper:
        return Empty()
    return (gamma, upper)


@dataclass(frozen=True)
class TradeOffBound:
    """Upper bound on alpha*l + beta*t; negative means infeasible outright."""

    bound: float
    feasible_at_zero: bool


def critical_length_time_bound(budget: LinkBudget) -> TradeOffBound:
    """Right side of alpha*l + beta*t < (1/2r) ln(q^r eta_s^(r+1) / p*).

    -inf when the logarithm's argument is 0, as at q = 0 or eta_s = 0.
    """
    arg = budget.q**budget.r * budget.eta_s ** (budget.r + 1) / budget.p_star
    val = (1.0 / (2.0 * budget.r)) * math.log(arg) if arg > 0.0 else -math.inf
    return TradeOffBound(val, val > 0.0)


def f_fold_bound(f: float, p_star: float) -> float:
    """Largest alpha*l_c + beta*t_c compatible with an f-fold advantage."""
    Range(">= 1").check("f", f)
    P_STAR.check("p_star", p_star)
    return -f * math.log(p_star)


@dataclass(frozen=True)
class StarFactor:
    factor: float
    advantage: bool


def star_repeater_factor(n: int) -> StarFactor:
    """Improvement factor 2 sin(pi/n) of a central node in a regular n-gon."""
    Range(">= 3").check("n", n)
    return StarFactor(2.0 * math.sin(math.pi / n), n < 6)


def required_f_lattice(r: int, length_km: float, alpha: float, eps: float) -> float:
    """Improvement factor needed to span r links of given length: r L alpha / ln(1/eps)."""
    _OPEN_UNIT.check("eps", eps)
    Range(">= 1").check("r", r)
    Range("> 0").check("length_km", length_km)
    Range("> 0").check("alpha", alpha)
    return r * length_km * alpha / math.log(1.0 / eps)


def max_length_lattice(f: float, alpha: float, eps: float) -> float:
    """Companion bound L <= (f/alpha) ln(1/eps) for a single link."""
    Range("> 0").check("f", f)
    Range("> 0").check("alpha", alpha)
    _OPEN_UNIT.check("eps", eps)
    return (f / alpha) * math.log(1.0 / eps)


def required_f_diqkd(
    alpha: float,
    length_km: float,
    t_links: int,
    p_mem: float,
    s_steps: int,
    gamma: float,
    exponent_factor: float = 1.0,
) -> float:
    """Smallest f with eta_mem^2 exp(-exponent_factor alpha l t / f) >= gamma.

    eta_mem is the closed-form depolarizing memory yield after s_steps.
    Returns +inf when the memory factor alone does not exceed gamma.
    """
    Range(">= 0").check("alpha", alpha)
    Range(">= 0").check("length_km", length_km)
    Range(">= 0").check("t_links", t_links)
    UNIT.check("p_mem", p_mem)
    Range("(0, 1]").check("gamma", gamma)
    Range("> 0").check("exponent_factor", exponent_factor)
    eta_mem = yields.depol_yield(p_mem, s_steps)
    if eta_mem**2 <= gamma:
        return math.inf
    return exponent_factor * alpha * length_km * t_links / math.log(eta_mem**2 / gamma)


# nqi_alpha_bound's ranges, and nqi's --length, --n and --q
NQI_LENGTH = Range("> 0")
NQI_N = Range(">= 1")
NQI_Q = Range("(0, 1]")


def nqi_alpha_bound(length_km: float, n: int, q: float) -> Optional[float]:
    """Largest fiber loss rate keeping an n-node line entangled end to end.

    alpha < ln(3 q^n) / (L (1 + 1/n)), natural log. None when 3 q^n <= 1,
    in which case no positive loss rate works.
    """
    NQI_LENGTH.check("length_km", length_km)
    NQI_N.check("n", n)
    NQI_Q.check("q", q)
    arg = 3.0 * q**n
    if arg <= 1.0:
        return None
    return math.log(arg) / (length_km * (1.0 + 1.0 / n))


def critical_probability(task: TaskKind, d: int = 2) -> float:
    """Critical end-to-end success probability 1/d for a d-level system.

    Both entanglement and teleportation need strictly more than 1/d: at
    singlet fraction 1/d the isotropic state is separable, and its
    teleportation fidelity equals the classical 2/(d + 1).
    """
    Range(">= 2").check("d", d)
    if task in (TaskKind.TELEPORTATION, TaskKind.ENTANGLEMENT):
        return 1.0 / d
    raise ValueError("critical_probability is defined for entanglement and teleportation")
