"""Deterministic simulation of a ground-station entanglement buffer.

The memory is an explicit array max-heap keyed by current fidelity (ties
go to the older pair). Stored pairs decay through a depolarizing channel
each tick and are evicted once they fall below the usefulness threshold.
Consumer flows are served one pair each per tick in a round-robin over
the active flows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from . import qstate


class DecayMode(str, Enum):
    ITERATED = "iterated"
    # closed-form variant; exact only for pairs inserted at fidelity 1
    PAPER_FORMULA = "paper-formula"


def decayed_fidelity(f0: float, p_mem: float, s: int, mode: DecayMode = DecayMode.ITERATED) -> float:
    """Fidelity after s depolarizing steps from initial fidelity f0."""
    if mode is DecayMode.ITERATED:
        return (1.0 + (4.0 * f0 - 1.0) * (1.0 - p_mem) ** (2 * s)) / 4.0
    return f0 if s == 0 else qstate.depol_yield(p_mem, s, qstate.DepolYieldMode.PAPER_FORMULA)


@dataclass
class StoredPair:
    id: str
    insertion_tick: int
    f0: float
    age: int = 0
    current_fidelity: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.current_fidelity is None:
            self.current_fidelity = self.f0


class EventKind(str, Enum):
    INSERT = "insert"
    DECAY = "decay"
    EVICT = "evict"
    DISPATCH = "dispatch"
    REJECT = "reject"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    tick: int
    event: EventKind
    pair_id: str
    flow_id: str
    fidelity: float


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
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if not 0.0 <= p_mem <= 1.0:
            raise ValueError("p_mem must be in [0, 1]")
        if not 0.0 <= eta_crit <= 1.0:
            raise ValueError("eta_crit must be in [0, 1]")
        self.capacity = capacity
        self.p_mem = p_mem
        self.eta_crit = eta_crit
        self.decay_mode = decay_mode
        self.items: List[StoredPair] = []
        self._by_age: Dict[int, float] = {}  # see tick_decay

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
        while i > 0:
            parent = (i - 1) // 2
            if self._higher(self.items[i], self.items[parent]):
                self.items[i], self.items[parent] = self.items[parent], self.items[i]
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
        # the minimum of a max-heap sits among the leaves; a linear scan
        # is fine at buffer sizes
        lo = 0
        for i in range(1, len(self.items)):
            if self._higher(self.items[lo], self.items[i]):
                lo = i
        return lo

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
        if len(self.items) < self.capacity:
            self.items.append(pair)
            self._sift_up(len(self.items) - 1)
            return ("inserted", None)
        lo = self._min_index()
        if not self._higher(pair, self.items[lo]):
            return ("rejected", None)
        evicted = self._remove_at(lo)
        self.items.append(pair)
        self._sift_up(len(self.items) - 1)
        return ("replaced", evicted)

    def extract_max(self) -> Optional[StoredPair]:
        if not self.items:
            return None
        return self._remove_at(0)

    def latest_index(self) -> int:
        """Heap position of the most recently inserted pair (latest-first service)."""
        return max(
            range(len(self.items)),
            key=lambda i: (self.items[i].insertion_tick, self.items[i].id),
        )

    def tick_decay(self) -> Tuple[List[StoredPair], List[StoredPair]]:
        """Ages every entry one step; returns (survivors, evicted).

        Decay can reorder pairs without evicting any (paper-formula mode
        ignores f0 after one step; p_mem = 1 ties every pair at 1/4), so on
        every tick each survivor that outranks its parent is sifted up, in
        array order. On a valid heap this moves nothing.
        """
        by_age, iterated = self._by_age, self.decay_mode is DecayMode.ITERATED
        for it in self.items:
            s = it.age = it.age + 1
            v = by_age.get(s)
            if v is None:  # once per age; see run
                v = by_age[s] = ((1.0 - self.p_mem) ** (2 * s) if iterated
                                 else decayed_fidelity(1.0, self.p_mem, s, self.decay_mode))
            it.current_fidelity = (1.0 + (4.0 * it.f0 - 1.0) * v) / 4.0 if iterated else v
        evicted = [it for it in self.items if it.current_fidelity < self.eta_crit]
        if evicted:
            self.items = [it for it in self.items if it.current_fidelity >= self.eta_crit]
        items, higher = self.items, self._higher
        for i in range(1, len(items)):
            if higher(items[i], items[(i - 1) // 2]):
                self._sift_up(i)
        return (list(items), evicted)


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
    tick: int
    producer_id: str
    pair_id: str
    f0: float = 1.0


@dataclass(frozen=True)
class FlowRequest:
    flow_id: str
    arrival_tick: int
    t_p: int
    n_pairs: int = 1


@dataclass(frozen=True)
class SimConfig:
    capacity: int
    p_mem: float
    eta_crit: float
    arrivals: Tuple[Arrival, ...]
    flows: Tuple[FlowRequest, ...]
    horizon: int
    decay_mode: DecayMode = DecayMode.ITERATED
    service_order: ServiceOrder = ServiceOrder.HIGHEST_FIDELITY

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if len({f.flow_id for f in self.flows}) != len(self.flows):
            raise ValueError("duplicate flow ids")
        if len({a.pair_id for a in self.arrivals}) != len(self.arrivals):
            raise ValueError("duplicate pair ids")


@dataclass
class FlowState:
    request: FlowRequest
    remaining: int
    last_finish: int = 0
    dispatch_finishes: List[int] = field(default_factory=list)


@dataclass(frozen=True)
class SimResult:
    trace: Tuple[TraceEvent, ...]
    flow_finishes: Dict[str, Tuple[int, ...]]
    residual: int
    inserts: int
    dispatches: int
    evictions: int
    rejects: int


def run(config: SimConfig, write: Optional[Callable[[str], object]] = None) -> SimResult:
    """Deterministic replay of the buffer over the configured horizon.

    Per tick: (1) scheduled arrivals insert in producer-id order, (2) all
    entries decay and sub-threshold ones are evicted, (3) active flows
    are served one pair each in a round-robin that persists across ticks,
    so scarce pairs are shared instead of going to the lowest flow id.
    Service timing per flow follows the finish-time recursion with the
    heap sift distance as the ready delay.

    Decay is looked up per age: ITERATED keeps the factor (1 - p_mem) ** (2 s)
    and applies `decayed_fidelity`'s own expression to it, so values are
    bit-identical; PAPER_FORMULA keeps the fidelity, f0-free once s >= 1.
    With `write` (say a file's `write`), each tick's rows, as `trace_csv`
    formats them, go to `write` as one string when the tick ends, and
    `SimResult.trace` is empty: memory does not grow with the trace.
    """
    heap = MemoryHeap(config.capacity, config.p_mem, config.eta_crit, config.decay_mode)
    events: list = []  # (tick, kind, pair_id, flow_id, fidelity); this tick's if writing
    emit = events.append
    flows = {
        f.flow_id: FlowState(f, f.n_pairs)
        for f in sorted(config.flows, key=lambda f: f.flow_id)
    }
    inserts = dispatches = evictions = rejects = 0
    rr_order = sorted(flows)
    rr_ptr = 0
    by_tick: Dict[int, List[Arrival]] = {}
    for a in config.arrivals:
        by_tick.setdefault(a.tick, []).append(a)
    for t in range(1, config.horizon + 1):
        for a in sorted(by_tick.get(t, []), key=lambda a: (a.producer_id, a.pair_id)):
            pair = StoredPair(a.pair_id, t, a.f0)
            status, evicted_pair = heap.insert(pair)
            if status == "rejected":
                rejects += 1
                emit((t, EventKind.REJECT, a.pair_id, "", a.f0))
                continue
            if evicted_pair is not None:
                evictions += 1
                emit((t, EventKind.EVICT, evicted_pair.id, "", evicted_pair.current_fidelity))
            inserts += 1
            emit((t, EventKind.INSERT, a.pair_id, "", a.f0))
        survivors, evicted = heap.tick_decay()
        events += [(t, EventKind.DECAY, it.id, "", it.current_fidelity) for it in survivors]
        for it in sorted(evicted, key=lambda e: e.id):
            evictions += 1
            emit((t, EventKind.EVICT, it.id, "", it.current_fidelity))
        n_flows = len(rr_order)
        rr_start = rr_ptr
        for step in range(n_flows):
            if not heap.items:
                break
            fid = rr_order[(rr_start + step) % n_flows]
            state = flows[fid]
            if state.remaining <= 0 or state.request.arrival_tick > t:
                continue
            if config.service_order is ServiceOrder.HIGHEST_FIDELITY:
                ready_delay = 0  # root is already at the top
                pair = heap.extract_max()
            else:
                idx = heap.latest_index()
                ready_delay = sift_ticks(idx)
                pair = heap._remove_at(idx)
            dispatches += 1
            finish = finish_time(state.last_finish, t + ready_delay, state.request.t_p)
            state.last_finish = finish
            state.dispatch_finishes.append(finish)
            state.remaining -= 1
            emit((t, EventKind.DISPATCH, pair.id, fid, pair.current_fidelity))
            rr_ptr = (rr_start + step + 1) % n_flows
        if write is not None:
            write("".join([_trace_row(*ev) for ev in events]))
            events.clear()
    return SimResult(
        tuple(TraceEvent(*ev) for ev in events),
        {fid: tuple(st.dispatch_finishes) for fid, st in flows.items()},
        len(heap),
        inserts,
        dispatches,
        evictions,
        rejects,
    )


TRACE_HEADER = "tick,event,pair_id,flow_id,fidelity\n"


def _trace_row(tick: int, kind: EventKind, pair_id: str, flow_id: str, fidelity: float) -> str:
    # repr keeps every bit; `_value_` skips Enum's `value` descriptor (a call
    # per row). Private: perfbench's tracer spans every public buffersim call.
    return f"{tick},{kind._value_},{pair_id},{flow_id},{fidelity!r}\n"


def _csv_rows(trace: Sequence[TraceEvent]):
    yield TRACE_HEADER
    for ev in trace:
        yield _trace_row(ev.tick, ev.event, ev.pair_id, ev.flow_id, ev.fidelity)


def trace_csv(trace: Sequence[TraceEvent]) -> str:
    return "".join(_csv_rows(trace))


def write_trace_csv(trace: Sequence[TraceEvent], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.writelines(_csv_rows(trace))
