"""Closed-form fidelities with Psi+ after two-sided noise, in plain floats.

These scalar yields are what the repeater, scenario and buffer layers
need from the channel models. They are plain floats, so that those
layers, and the commands built on them, run without numpy; the tests
check them against the density-matrix channels of their oracle,
``tests/qstate.py``.
"""

from __future__ import annotations

from enum import Enum

from . import UNIT, Range

_STEPS = Range(">= 0")


class DepolYieldMode(str, Enum):
    PAPER_FORMULA = "paper-formula"
    ITERATED_CHANNEL = "iterated-channel"


def depol_yield(p: float, n: int, mode: DepolYieldMode = DepolYieldMode.PAPER_FORMULA) -> float:
    """Fidelity with Psi+ after n two-sided depolarizing steps.

    The two modes agree for n <= 2 and split for n >= 3; the closed-form
    mode matches the published yield expression while the iterated mode
    matches literal repeated channel application.
    """
    _STEPS.check("n", n)
    mode = DepolYieldMode(mode)
    if mode is DepolYieldMode.PAPER_FORMULA:
        if n == 0:
            return 1.0
        return (1 - p) ** (2 * n) - 0.25 * (p - 2) * p * (
            (n - 1) * (1 - p) ** (2 * (n - 1)) + 1
        )
    return (1.0 + 3.0 * (1.0 - p) ** (2 * n)) / 4.0


def thermal_yield(eta_g: float, kappa_g: float) -> float:
    """Fidelity with Psi+ after a two-sided thermal channel."""
    UNIT.check("eta_g", eta_g)
    UNIT.check("kappa_g", kappa_g)
    return 0.5 * (1.0 + eta_g**2) + kappa_g * (kappa_g - 1.0) * (1.0 - eta_g) ** 2
