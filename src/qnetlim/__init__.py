"""Feasibility analysis and simulation toolkit for noisy quantum networks.

Subpackages:

- ``qstate``   : two-qubit states, noise channels, swap and nonlocality measures
- ``yields``   : numpy-free closed-form depolarizing and thermal yields
- ``repeater`` : closed-form feasibility of linear repeater chains
- ``netgraph`` : weighted-graph robustness metrics and topology generators
- ``scenario`` : satellite / atmospheric / airport-network calculators
- ``buffersim``: deterministic entanglement-buffer simulation
- ``cli``      : command-line front end (``python -m qnetlim``)

Only ``qstate`` and ``netgraph`` import numpy. A submodule is imported on
first access as an attribute of the package, so ``qnetlim.netgraph`` works
after ``import qnetlim`` alone.
"""

import sys

__version__ = "0.1.0"

_SUBMODULES = ("qstate", "yields", "repeater", "netgraph", "scenario", "buffersim", "cli")


def __getattr__(name):
    if name in _SUBMODULES:
        # __import__, unlike importlib.import_module, shows in -X importtime
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Sentinel:
    """Base of the marker results (Undefined, Unbounded, ...).

    Instances compare equal, and hash and print, by class name.
    """

    def __repr__(self):
        return type(self).__name__

    def __eq__(self, other):
        return isinstance(other, type(self))

    def __hash__(self):
        return hash(type(self).__name__)
