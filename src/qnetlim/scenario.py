"""Real-world link calculators: atmosphere, satellite chains, airport routes.

The satellite yield is the product of independent loss factors (fiber,
erasure, source, memory, thermal, Bell measurement), each exposed on its
own; the airport yield reuses three of them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Dict, Iterator, List, Tuple

from . import Range, check_fields, ranged, yields

if TYPE_CHECKING:
    from .netgraph import Network, NodeReport

EARTH_RADIUS_KM = 6371.0
_LATITUDE = Range("[-90, 90]")
_LONGITUDE = Range("[-180, 180]")
_BEAM = "beam waist and Rayleigh range must be positive"


@dataclass(frozen=True)
class AtmosphereParams:
    """Free-space optical link parameters.

    omega0         beam waist, m
    z_rayleigh     Rayleigh range, m
    z              link distance, m
    r              receiving aperture radius, m
    sigma_r        turbulence strength; sigma_r^2 is the Rytov variance
    fresnel_ratio  Fresnel ratio of the turbulent beam
    xi_t, xi_r     transmitter and receiver loss prefactors
    xi_as          atmospheric loss prefactor
    eta            pointing-error ratio sigma_p / omega_at
    """

    omega0: float = ranged("> 0", 0.0021, _BEAM)
    z_rayleigh: float = ranged("> 0", 17.8, _BEAM)
    z: float = ranged(">= 0", 0.0)
    r: float = ranged(">= 0", 0.1)
    sigma_r: float = ranged(">= 0", 0.1)
    fresnel_ratio: float = ranged(">= 0", 0.1)
    xi_t: float = ranged("[0, 1]", 1.0)
    xi_r: float = ranged("[0, 1]", 1.0)
    xi_as: float = ranged("[0, 1]", 1.0)
    eta: float = ranged("> 0", 1.0)

    __post_init__ = check_fields


def atmospheric_transmittance(p: AtmosphereParams) -> float:
    """Total downlink transmittance including diffraction, turbulence and pointing."""
    w = p.omega0
    pointing = p.eta**2 / (p.eta**2 + 0.25)
    diff = 1.0 - math.exp(
        -2.0 * p.r**2 * p.z_rayleigh**2 / (w**2 * (p.z**2 + p.z_rayleigh**2))
    )
    broadening = 1.0 + 1.33 * p.fresnel_ratio ** (5.0 / 6.0) * p.sigma_r**2
    turb = 1.0 - math.exp(
        -2.0 * p.r**2 / (w**2 * broadening * (p.z**2 / p.z_rayleigh**2 + 1.0))
    )
    return pointing * p.xi_as * p.xi_r * p.xi_t * diff * turb


class YieldConvention(str, Enum):
    DERIVATION = "derivation"
    # alternate statement with (eta_e^2)^n and no Bell factor
    SUMMARY = "summary"


@dataclass(frozen=True)
class SatelliteYieldParams:
    """Loss parameters of an n-link satellite chain with fiber last miles.

    n               satellite-satellite links
    eta_e           per-link erasure efficiency
    eta_s           source efficiency
    q               Bell measurement success probability
    p_mem           depolarizing probability per memory step
    s               memory storage steps
    alpha           fiber loss rate, 1/km
    l_b, l_m        fiber to the first and to the second endpoint, km
    eta_g, kappa_g  ground-link thermal channel: transmissivity and noise
    eta_crit        memory fidelity below which stored pairs are deleted
    """

    n: int = ranged(">= 1")
    eta_e: float = ranged("[0, 1]", 0.95)
    eta_s: float = ranged("[0, 1]", 0.9)
    q: float = ranged("[0, 1]", 1.0)
    p_mem: float = ranged("[0, 1]", 0.1)
    s: int = ranged(">= 0", 1)
    alpha: float = ranged(">= 0", 1 / 22)
    l_b: float = ranged(">= 0", 10.0)
    l_m: float = ranged(">= 0", 10.0)
    eta_g: float = ranged("[0, 1]", 0.5)
    kappa_g: float = ranged("[0, 1]", 0.5)
    eta_crit: float = ranged("[0, 1]", 0.0)

    __post_init__ = check_fields


def fiber_factor(alpha: float, l_total: float) -> float:
    return math.exp(-alpha * l_total)


def erasure_factor(eta_e: float, n: int, convention: YieldConvention = YieldConvention.DERIVATION) -> float:
    power = n - 1 if convention is YieldConvention.DERIVATION else n
    return (eta_e**2) ** power


def source_factor(eta_s: float, n: int) -> float:
    return eta_s ** (n - 1)


def bell_factor(q: float, n: int, convention: YieldConvention = YieldConvention.DERIVATION) -> float:
    if convention is YieldConvention.SUMMARY:
        return 1.0
    return q ** (n - 1)


def memory_factor(p_mem: float, s: int) -> float:
    return yields.depol_yield(p_mem, s)


def thermal_factor(eta_g: float, kappa_g: float) -> float:
    return yields.thermal_yield(eta_g, kappa_g)


def satellite_yield(
    p: SatelliteYieldParams, convention: YieldConvention = YieldConvention.DERIVATION
) -> float:
    """End-to-end yield of an n-link satellite chain with fiber last miles.

    Returns exactly 0 when the memory fidelity drops below eta_crit, since
    such states are deleted rather than served.
    """
    mem = memory_factor(p.p_mem, p.s)
    if mem < p.eta_crit:
        return 0.0
    return (
        fiber_factor(p.alpha, p.l_b + p.l_m)
        * erasure_factor(p.eta_e, p.n, convention)
        * source_factor(p.eta_s, p.n)
        * mem
        * thermal_factor(p.eta_g, p.kappa_g)
        * bell_factor(p.q, p.n, convention)
    )


def airport_yield(
    length_km: float, l0_km: float, q: float, eta_e: float, eta_g: float, kappa_g: float
) -> float:
    """Yield between two ground sites L km apart served by satellites every L0 km."""
    Range("> 0").check("l0_km", l0_km)
    if not l0_km <= length_km:
        raise ValueError("length_km must be at least l0_km")
    n = int(length_km // l0_km)
    return bell_factor(q, n) * erasure_factor(eta_e, n) * thermal_factor(eta_g, kappa_g)


# ---------------------------------------------------------------------------
# Airport dataset
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Airport:
    id: str
    name: str
    lat: float
    lon: float


@dataclass(frozen=True)
class AirportDataset:
    """The airports in file order, and each usable route once, in the order
    first given, as (smaller id, larger id, great-circle km)."""

    airports: Tuple[Airport, ...]
    routes: Tuple[Tuple[str, str, float], ...]
    skipped_routes: int = 0


def great_circle_km(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Haversine distance on a 6371 km sphere, inputs in degrees."""
    _LATITUDE.check("lat1", lat1)
    _LATITUDE.check("lat2", lat2)
    _LONGITUDE.check("lon1", lon1)
    _LONGITUDE.check("lon2", lon2)
    phi1, phi2 = math.radians(lat1), math.radians(lat2)
    dphi = phi2 - phi1
    dlam = math.radians(lon2 - lon1)
    h = math.sin(dphi / 2.0) ** 2 + math.cos(phi1) * math.cos(phi2) * math.sin(dlam / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(h)))


def _csv_records(path, kind: str) -> Iterator[Tuple[int, List[str]]]:
    """The line and fields of each non-blank record after the header of the CSV file path.

    Lines end at \\r, \\n or \\r\\n, as in a file opened with newline="",
    and each is decoded as UTF-8 as the reader reaches it. A byte that is
    not UTF-8, or a record csv rejects (a field over its limit, a NUL byte
    before Python 3.11), raises ValueError naming its file and line as a
    malformed kind record.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines(keepends=True)
    reader = csv.reader(raw.decode("utf-8") for raw in lines)
    try:
        next(reader, None)
        for row in reader:
            if row:
                yield reader.line_num, row
    except (UnicodeDecodeError, csv.Error) as exc:
        # the reader has counted the line of a record csv rejects, not one it could not decode
        line = reader.line_num + isinstance(exc, UnicodeDecodeError)
        raise ValueError(f"{path}:{line}: malformed {kind} record ({exc})")


def load_airport_dataset(airports_csv, routes_csv) -> AirportDataset:
    """Read the airports/routes CSV pair.

    airports.csv columns: id,name,lat,lon. routes.csv columns: src_id,
    dst_id. A record that is not UTF-8, that csv rejects, or whose
    coordinates are not numbers in range, raises ValueError naming its file
    and line. Duplicate undirected routes are deduplicated; routes naming
    unknown airports are skipped and counted.
    """
    from .topology import edge_key  # here, so that satellite and atmosphere do not load it
    airports: Dict[str, Airport] = {}
    for lineno, row in _csv_records(airports_csv, "airport"):
        try:
            aid, name, lat, lon = row[0], row[1], float(row[2]), float(row[3])
            _LATITUDE.check("lat", lat)
            _LONGITUDE.check("lon", lon)
        except (IndexError, ValueError) as exc:
            raise ValueError(f"{airports_csv}:{lineno}: malformed airport record ({exc})")
        if aid in airports:
            raise ValueError(f"{airports_csv}:{lineno}: duplicate airport id {aid}")
        airports[aid] = Airport(aid, name, lat, lon)
    routes: Dict[Tuple[str, str], float] = {}
    skipped = 0
    for lineno, row in _csv_records(routes_csv, "route"):
        try:
            src, dst = row[0], row[1]
        except IndexError as exc:
            raise ValueError(f"{routes_csv}:{lineno}: malformed route record ({exc})")
        if src not in airports or dst not in airports or src == dst:
            skipped += 1
            continue
        key = edge_key(src, dst)
        if key not in routes:
            a, b = airports[key[0]], airports[key[1]]
            routes[key] = great_circle_km(a.lat, a.lon, b.lat, b.lon)
    pairs = tuple((a, b, km) for (a, b), km in routes.items())
    return AirportDataset(tuple(airports.values()), pairs, skipped)


ROUTE_DECAY_KM = 22.0
SHORT_ROUTE_CUTOFF_KM = 50.0
LONG_ROUTE_P = 0.8


def route_probability(length_km: float) -> float:
    """exp(-L/22) for routes under 50 km, 0.8 otherwise."""
    if length_km < SHORT_ROUTE_CUTOFF_KM:
        return math.exp(-length_km / ROUTE_DECAY_KM)
    return LONG_ROUTE_P


def load_airport_network(dataset: AirportDataset) -> Network:
    from . import netgraph

    return netgraph.Network(
        [a.id for a in dataset.airports],
        [(a, b, route_probability(km)) for a, b, km in dataset.routes],
    )


@dataclass(frozen=True)
class AirportReport:
    n_nodes: int
    n_edges: int
    longest_route_km: float
    longest_route_pair: Tuple[str, str]
    mean_route_km: float
    link_sparsity: float
    total_connection_strength: float
    top_critical_airports: List[NodeReport]


def airport_report(
    dataset: AirportDataset, p_star: float = 0.1, top_n: int = 10
) -> AirportReport:
    """Aggregate geography and robustness statistics of a route dataset.

    A dataset with no routes raises ValueError; the longest route is the
    first longest in route order. Sparsity and connection strength use the
    non-cooperative strategy (direct routes only). The critical-node
    ranking uses netgraph.centrality_all's canonical centrality, whose ties
    go to the lexicographically smallest path, not to scipy's tie order.
    """
    from . import netgraph

    if not dataset.routes:
        raise ValueError("dataset has no routes")
    a, b, longest = max(dataset.routes, key=lambda route: route[2])
    # added in route order: from Python 3.12 builtin sum() compensates floats
    total_km = 0.0
    for *_, km in dataset.routes:
        total_km += km
    net = load_airport_network(dataset)
    strat = netgraph.StrategyKind.NON_COOPERATIVE
    reports = netgraph.critical_parameters(net, p_star, strat)
    return AirportReport(
        net.n_nodes,
        net.n_edges,
        longest,
        (a, b),
        total_km / len(dataset.routes),
        netgraph.link_sparsity(net, p_star, strat),
        netgraph.total_connection_strength(net, strat, p_star),
        reports[:top_n],
    )
