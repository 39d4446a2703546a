"""Feasibility analysis and simulation toolkit for noisy quantum networks.

Subpackages:

- ``qstate``   : two-qubit states, noise channels, swap and nonlocality measures
- ``repeater`` : closed-form feasibility of linear repeater chains
- ``netgraph`` : weighted-graph robustness metrics and topology generators
- ``scenario`` : satellite / atmospheric / airport-network calculators
- ``buffersim``: deterministic entanglement-buffer simulation
- ``cli``      : command-line front end (``python -m qnetlim``)
"""

__version__ = "0.1.0"


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
