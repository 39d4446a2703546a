"""Deterministic simulation of a ground-station entanglement buffer.

The memory is an explicit array max-heap keyed by current fidelity (ties
go to the older pair). Stored pairs decay through a depolarizing channel
each tick and are evicted once they fall below the usefulness threshold.
Consumer flows are served one pair each per tick in a round-robin over
the active flows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import groupby
from typing import Callable, Dict, List, Optional, Tuple

from . import UNIT, Range, check_fields, ranged, yields


class DecayMode(str, Enum):
    ITERATED = "iterated"
    # closed-form variant; exact only for pairs inserted at fidelity 1
    PAPER_FORMULA = "paper-formula"


def decayed_fidelity(f0: float, p_mem: float, s: int, mode: DecayMode = DecayMode.ITERATED) -> float:
    """Fidelity after s depolarizing steps from initial fidelity f0."""
    if mode is DecayMode.ITERATED:
        return (1.0 + (4.0 * f0 - 1.0) * (1.0 - p_mem) ** (2 * s)) / 4.0
    return f0 if s == 0 else yields.depol_yield(p_mem, s)


@dataclass(slots=True)
class StoredPair:
    id: str
    insertion_tick: int
    f0: float
    age: int = 0
    current_fidelity: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.current_fidelity is None:
            self.current_fidelity = self.f0


class MemoryHeap:
    """Fixed-capacity array max-heap of stored pairs.

    Priority is (current_fidelity, older insertion first); sift-up and
    sift-down are spelled out because heap positions feed the service
    timing model (the sift distance from position i is ceil(log2(i+1))).
    """

    def __init__(
        self,
        capacity: int,
        p_mem: float,
        eta_crit: float,
        decay_mode: DecayMode = DecayMode.ITERATED,
    ):
        Range(">= 1").check("capacity", capacity)
        UNIT.check("p_mem", p_mem)
        UNIT.check("eta_crit", eta_crit)
        self.capacity = capacity
        self.p_mem = p_mem
        self.eta_crit = eta_crit
        self.decay_mode = decay_mode
        self.items: List[StoredPair] = []
        self._by_age: Dict[int, float] = {}  # see tick_decay
        self._reprs: Dict[int, str] = {}  # paper-formula: repr of _by_age[s]

    def __len__(self):
        return len(self.items)

    def _higher(self, a: StoredPair, b: StoredPair) -> bool:
        """True when a has strictly higher priority than b."""
        if a.current_fidelity != b.current_fidelity:
            return a.current_fidelity > b.current_fidelity
        if a.insertion_tick != b.insertion_tick:
            return a.insertion_tick < b.insertion_tick
        return a.id < b.id

    def _sift_up(self, i: int) -> int:
        items, higher = self.items, self._higher
        it = items[i]
        f = it.current_fidelity
        while i > 0:
            parent = (i - 1) // 2
            up = items[parent]
            g = up.current_fidelity
            if f > g or (f == g and higher(it, up)):
                items[i], items[parent] = up, it
                i = parent
            else:
                break
        return i

    def _sift_down(self, i: int) -> int:
        n = len(self.items)
        while True:
            left, right = 2 * i + 1, 2 * i + 2
            best = i
            if left < n and self._higher(self.items[left], self.items[best]):
                best = left
            if right < n and self._higher(self.items[right], self.items[best]):
                best = right
            if best == i:
                return i
            self.items[i], self.items[best] = self.items[best], self.items[i]
            i = best

    def _min_index(self) -> int:
        # the minimum of a max-heap sits among the leaves; scan the
        # fidelities, then rank the pairs that tie on the lowest one
        items = self.items
        fids = [it.current_fidelity for it in items]
        return _first_extreme(fids, min, lambda i, lo: self._higher(items[lo], items[i]))

    def _remove_at(self, i: int) -> StoredPair:
        last = len(self.items) - 1
        self.items[i], self.items[last] = self.items[last], self.items[i]
        out = self.items.pop()
        if i < len(self.items):
            self._sift_up(i)
            self._sift_down(i)
        return out

    def insert(self, pair: StoredPair) -> Tuple[str, Optional[StoredPair]]:
        """Returns ("inserted", None), ("replaced", evicted) or ("rejected", None).

        At capacity the incoming pair replaces the minimum-fidelity entry
        only when strictly better than it.
        """
        evicted = None
        if len(self.items) >= self.capacity:
            lo = self._min_index()
            if not self._higher(pair, self.items[lo]):
                return ("rejected", None)
            evicted = self._remove_at(lo)
        self.items.append(pair)
        self._sift_up(len(self.items) - 1)
        return ("inserted", None) if evicted is None else ("replaced", evicted)

    def extract_max(self) -> Optional[StoredPair]:
        if not self.items:
            return None
        return self._remove_at(0)

    def latest_index(self) -> int:
        """Heap position of the latest inserted pair, the larger id within a tick (latest-first service)."""
        items = self.items
        ticks = [it.insertion_tick for it in items]
        return _first_extreme(ticks, max, lambda i, latest: items[i].id > items[latest].id)

    def tick_decay(self) -> Tuple[List[StoredPair], List[StoredPair]]:
        """Ages every entry one step; returns (survivors, evicted).

        Decay can reorder pairs without evicting any (paper-formula mode
        ignores f0 after one step; p_mem = 1 ties every pair at 1/4), and
        evicting compacts the array, so on every tick each survivor that
        outranks its parent is sifted up, in array order. On a valid heap
        this moves nothing.
        """
        by_age, items = self._by_age, self.items
        if self.decay_mode is DecayMode.ITERATED:
            for it in items:
                s = it.age = it.age + 1
                v = by_age.get(s)
                if v is None:  # once per age; see run
                    v = by_age[s] = (1.0 - self.p_mem) ** (2 * s)
                it.current_fidelity = (1.0 + (4.0 * it.f0 - 1.0) * v) / 4.0
        else:
            for it in items:
                s = it.age = it.age + 1
                v = by_age.get(s)
                if v is None:
                    v = by_age[s] = decayed_fidelity(1.0, self.p_mem, s, self.decay_mode)
                    self._reprs[s] = repr(v)
                it.current_fidelity = v
        eta = self.eta_crit
        evicted = [it for it in items if it.current_fidelity < eta]
        if evicted:
            items = self.items = [it for it in items if it.current_fidelity >= eta]
        self._restore_order()
        return (list(items), evicted)

    def _restore_order(self) -> None:
        """Sifts up, in array order, each entry that outranks its parent."""
        items, higher = self.items, self._higher
        for i in range(1, len(items)):
            it, up = items[i], items[(i - 1) // 2]
            f, g = it.current_fidelity, up.current_fidelity
            if f > g or (f == g and higher(it, up)):
                self._sift_up(i)


def _first_extreme(keys: List, extreme: Callable, beats: Callable[[int, int], bool]) -> int:
    """Position keyed extreme(keys); each later tied position i replaces it when beats(i, it)."""
    top = extreme(keys)
    best = i = keys.index(top)
    for _ in range(keys.count(top) - 1):
        i = keys.index(top, i + 1)
        if beats(i, best):
            best = i
    return best


def sift_ticks(position: int) -> int:
    """Ticks to bring the entry at heap position i to the root."""
    if position < 0:
        raise ValueError("position must be >= 0")
    return math.ceil(math.log2(position + 1))


def finish_time(t_f_prev: int, t_r: int, t_p: int) -> int:
    """Completion time of the next request: max(previous finish, ready) + processing."""
    if min(t_f_prev, t_r, t_p) < 0:
        raise ValueError("times must be nonnegative")
    return max(t_f_prev, t_r) + t_p


class ServiceOrder(str, Enum):
    HIGHEST_FIDELITY = "highest-fidelity"
    LATEST_FIRST = "latest-first"


@dataclass(frozen=True)
class Arrival:
    tick: int = ranged(">= 1")
    producer_id: str
    pair_id: str
    f0: float = ranged("[0, 1]", 1.0)

    __post_init__ = check_fields


@dataclass(frozen=True)
class FlowRequest:
    flow_id: str
    arrival_tick: int = ranged(">= 0")
    t_p: int = ranged(">= 0")
    n_pairs: int = ranged(">= 0", 1)

    __post_init__ = check_fields


@dataclass(frozen=True)
class SimConfig:
    capacity: int = ranged(">= 1")
    p_mem: float = ranged("[0, 1]")
    eta_crit: float = ranged("[0, 1]")
    arrivals: Tuple[Arrival, ...]
    flows: Tuple[FlowRequest, ...]
    horizon: int = ranged(">= 1")
    decay_mode: DecayMode = DecayMode.ITERATED
    service_order: ServiceOrder = ServiceOrder.HIGHEST_FIDELITY

    def __post_init__(self):
        check_fields(self)
        if len({f.flow_id for f in self.flows}) != len(self.flows):
            raise ValueError("duplicate flow ids")
        if len({a.pair_id for a in self.arrivals}) != len(self.arrivals):
            raise ValueError("duplicate pair ids")


def load_config(path) -> SimConfig:
    """A SimConfig from a UTF-8 JSON object of its fields; decay_mode and service_order are optional."""
    with open(path, encoding="utf-8-sig") as fh:  # a leading byte-order mark is dropped
        raw = json.load(fh)
    return SimConfig(
        capacity=raw["capacity"],
        p_mem=raw["p_mem"],
        eta_crit=raw["eta_crit"],
        arrivals=tuple(Arrival(**a) for a in raw["arrivals"]),
        flows=tuple(FlowRequest(**f) for f in raw["flows"]),
        horizon=raw["horizon"],
        decay_mode=DecayMode(raw.get("decay_mode", SimConfig.decay_mode)),
        service_order=ServiceOrder(raw.get("service_order", SimConfig.service_order)),
    )


@dataclass(frozen=True)
class SimResult:
    flow_finishes: Dict[str, Tuple[int, ...]]
    residual: int
    inserts: int
    dispatches: int
    evictions: int
    rejects: int


TRACE_HEADER = "tick,event,pair_id,flow_id,fidelity\n"


def run(config: SimConfig, write: Callable[[str], object]) -> SimResult:
    """Deterministic replay of the buffer over the configured horizon.

    Per tick: (1) scheduled arrivals insert in producer-id order, (2) all
    entries decay and sub-threshold ones are evicted, (3) active flows
    are served one pair each in a round-robin that persists across ticks,
    so scarce pairs are shared instead of going to the lowest flow id.
    Service timing per flow follows the finish-time recursion with the
    heap sift distance as the ready delay. A flow's finish times are its
    only record of progress: their count is the pairs it has been served,
    the last one is its previous finish, and all counts sum to `dispatches`.

    Decay is looked up per age: ITERATED keeps the factor (1 - p_mem) ** (2 s)
    and applies `decayed_fidelity`'s own expression to it, so values are
    bit-identical; PAPER_FORMULA keeps the fidelity, f0-free once s >= 1,
    and its repr.
    The trace goes to `write` (say a file's `write`) as CSV: `TRACE_HEADER`,
    then each tick's rows as one string when the tick ends, so memory does
    not grow with the trace. A row is `tick,event,pair_id,flow_id,fidelity`
    with the fidelity's repr, which keeps every bit. The decay rows, most
    of the trace, are formatted in one pass per tick; in PAPER_FORMULA mode
    they print the per-age repr.
    """
    heap = MemoryHeap(config.capacity, config.p_mem, config.eta_crit, config.decay_mode)
    reprs = heap._reprs if config.decay_mode is DecayMode.PAPER_FORMULA else None
    latest_first = config.service_order is ServiceOrder.LATEST_FIRST
    flows = sorted(config.flows, key=lambda f: f.flow_id)  # the round-robin order
    finishes: Dict[str, List[int]] = {f.flow_id: [] for f in flows}
    inserts = evictions = rejects = 0
    rr_ptr = 0
    arrivals = sorted(config.arrivals, key=lambda a: (a.tick, a.producer_id, a.pair_id))
    by_tick = {t: list(group) for t, group in groupby(arrivals, key=lambda a: a.tick)}
    write(TRACE_HEADER)
    for t in range(1, config.horizon + 1):
        rows: List[str] = []
        for a in by_tick.get(t, ()):
            pair = StoredPair(a.pair_id, t, a.f0)
            status, evicted_pair = heap.insert(pair)
            if status == "rejected":
                rejects += 1
                rows.append(f"{t},reject,{a.pair_id},,{a.f0!r}\n")
                continue
            if evicted_pair is not None:
                evictions += 1
                rows.append(f"{t},evict,{evicted_pair.id},,{evicted_pair.current_fidelity!r}\n")
            inserts += 1
            rows.append(f"{t},insert,{a.pair_id},,{a.f0!r}\n")
        survivors, evicted = heap.tick_decay()
        prefix = f"{t},decay,"
        if reprs is None:
            rows += [f"{prefix}{it.id},,{it.current_fidelity!r}\n" for it in survivors]
        else:  # every survivor is at least one step old
            rows += [f"{prefix}{it.id},,{reprs[it.age]}\n" for it in survivors]
        for it in sorted(evicted, key=lambda e: e.id):
            evictions += 1
            rows.append(f"{t},evict,{it.id},,{it.current_fidelity!r}\n")
        n_flows = len(flows)
        rr_start = rr_ptr
        for step in range(n_flows):
            if not heap.items:
                break
            flow = flows[(rr_start + step) % n_flows]
            done = finishes[flow.flow_id]
            if len(done) >= flow.n_pairs or flow.arrival_tick > t:
                continue
            idx = heap.latest_index() if latest_first else 0  # the root needs no sift
            pair = heap._remove_at(idx)
            done.append(finish_time(done[-1] if done else 0, t + sift_ticks(idx), flow.t_p))
            rows.append(f"{t},dispatch,{pair.id},{flow.flow_id},{pair.current_fidelity!r}\n")
            rr_ptr = (rr_start + step + 1) % n_flows
        write("".join(rows))
    return SimResult(
        {fid: tuple(done) for fid, done in finishes.items()},
        len(heap),
        inserts,
        sum(len(done) for done in finishes.values()),
        evictions,
        rejects,
    )
