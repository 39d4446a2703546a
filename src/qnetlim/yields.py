"""Closed-form fidelities with Psi+ after two-sided noise, in plain floats.

These scalar yields are what the repeater, scenario and buffer layers
need from the channel models. They are plain floats, so that those
layers, and the commands built on them, run without numpy; the tests
check them against the density-matrix channels of their oracle,
``tests/qstate.py``.
"""

from __future__ import annotations

from . import UNIT, Range

_STEPS = Range(">= 0")


def depol_yield(p: float, n: int) -> float:
    """Fidelity with Psi+ after n two-sided depolarizing steps, by the published yield expression.

    It agrees with literal repeated channel application, which
    buffersim.decayed_fidelity gives, for n <= 2 and splits from it for
    n >= 3.
    """
    _STEPS.check("n", n)
    if n == 0:
        return 1.0
    return (1 - p) ** (2 * n) - 0.25 * (p - 2) * p * ((n - 1) * (1 - p) ** (2 * (n - 1)) + 1)


def thermal_yield(eta_g: float, kappa_g: float) -> float:
    """Fidelity with Psi+ after a two-sided thermal channel."""
    UNIT.check("eta_g", eta_g)
    UNIT.check("kappa_g", kappa_g)
    return 0.5 * (1.0 + eta_g**2) + kappa_g * (kappa_g - 1.0) * (1.0 - eta_g) ** 2
