"""Feasibility analysis and simulation toolkit for noisy quantum networks.

Subpackages:

- ``yields``   : numpy-free closed-form depolarizing and thermal yields
- ``repeater`` : closed-form feasibility of linear repeater chains
- ``topology`` : numpy-free reference topology generators and edge lists
- ``netgraph`` : weighted-graph robustness metrics on ``topology``'s specs
- ``scenario`` : satellite / atmospheric / airport-network calculators
- ``buffersim``: deterministic entanglement-buffer simulation
- ``cli``      : command-line front end (``python -m qnetlim``)

``Range`` declares the values a scalar parameter may take, once, and
checks them; the ranges of the graph commands' options are declared here,
so that building those options needs no numpy. Only ``netgraph``
imports numpy. A submodule is imported on first access as an attribute
of the package, so ``qnetlim.netgraph`` works after ``import qnetlim``
alone.
"""

import math
import numbers
import sys
from dataclasses import MISSING, field, fields
from functools import cache
from typing import Optional

__version__ = "0.1.0"

_SUBMODULES = ("yields", "repeater", "topology", "netgraph", "scenario", "buffersim", "cli")


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


def _bound(text: str) -> float:
    """A range bound: a number or pi, optionally over a number ("pi/2", "4/3")."""
    num, _, den = text.partition("/")
    return (math.pi if num == "pi" else float(num)) / float(den or 1)


class Range:
    """The values a scalar parameter may take, declared as a message shows them.

    spec is "[lo, hi]", with "(" or ")" at an open end, or ">= lo" or
    "> lo" for a range with no upper bound, which excludes +inf. min and max
    are the smallest and largest floats in the range, an open end being the
    nearest float inside it, so `v in range` is one test min <= v <= max,
    which NaN fails. check raises ValueError, also for None, with message, by
    default "{name} must be {text}".
    """

    def __init__(self, spec: str, message: Optional[str] = None):
        self.text = spec if spec[0] == ">" else "in " + spec
        self.message = message
        if spec[0] == ">":  # "> lo" is "(lo, inf)", ">= lo" is "[lo, inf)"
            op, _, lo = spec.partition(" ")
            spec = ("(" if op == ">" else "[") + lo + ", inf)"
        lo, hi = map(_bound, spec[1:-1].split(", "))
        self.min = math.nextafter(lo, math.inf) if spec[0] == "(" else lo
        self.max = math.nextafter(hi, -math.inf) if spec[-1] == ")" else hi

    def __contains__(self, v) -> bool:
        return v is not None and self.min <= v <= self.max

    def check(self, name: str, v) -> None:
        if v not in self:
            raise ValueError(self.message or f"{name} must be {self.text}")


UNIT = Range("[0, 1]")  # every probability, efficiency and fidelity
# the critical success probability p* of every graph metric, and of the
# graph commands' --p-star
P_STAR = Range("(0, 1)")
# netgraph.evolve's per-step weight w and decay rate k, and evolve's --w and --k
EVOLVE_W = Range("(0, 1]")
EVOLVE_K = Range(">= 0")
# every edge probability, and topology's --p
EDGE_P = Range("(0, 1]")
# topology.topology_edges's star and mesh node count n, circulant degree d
# (also d < n) and grid width and height, and topology's options of each
TOPOLOGY_N = Range(">= 2")
TOPOLOGY_D = Range(">= 1")
GRID_SIDE = Range(">= 1")


def ranged(spec: str, default=MISSING, message: Optional[str] = None):
    """A dataclass field whose values lie in Range(spec, message); see check_fields."""
    return field(default=default, metadata={"range": Range(spec, message)})


@cache
def _checked_fields(cls) -> tuple:
    """(name, range or None, required type, its text) of each field of cls that declares a Range or is a str."""
    kinds = {"int": (int, "an integer"), "float": (numbers.Real, "a number"), "str": (str, "a string")}
    return tuple((f.name, f.metadata.get("range"), *kinds[getattr(f.type, "__name__", f.type)])
                 for f in fields(cls) if "range" in f.metadata or f.type in ("str", str))


def check_fields(obj) -> None:
    """Checks the type of each ranged or str field of the dataclass obj, no bool passing, then its Range."""
    for name, rng, kind, text in _checked_fields(type(obj)):
        v = getattr(obj, name)
        if isinstance(v, bool) or not isinstance(v, kind):
            raise ValueError(f"{name} must be {text}")
        if rng is not None:
            rng.check(name, v)
