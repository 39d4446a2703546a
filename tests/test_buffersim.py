import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetlim.buffersim import (
    TRACE_HEADER,
    Arrival,
    DecayMode,
    FlowRequest,
    MemoryHeap,
    ServiceOrder,
    SimConfig,
    StoredPair,
    decayed_fidelity,
    finish_time,
    run,
    sift_ticks,
)
from qnetlim.cli import main


def fresh_heap(capacity=8, p_mem=0.1, eta_crit=0.5, **kw):
    return MemoryHeap(capacity, p_mem, eta_crit, **kw)


def check_heap(heap):
    """Oracle: no entry outranks its parent."""
    return not any(
        heap._higher(heap.items[i], heap.items[(i - 1) // 2]) for i in range(1, len(heap))
    )


class TestDecay:
    def test_closed_form(self):
        for s in range(6):
            want = (1 + 3 * 0.9 ** (2 * s)) / 4
            assert decayed_fidelity(1.0, 0.1, s) == pytest.approx(want, abs=1e-12)

    def test_modes_agree_from_unit_fidelity_until_two_steps(self):
        for p in (0.0, 0.1, 0.5):
            for s in (0, 1, 2):
                a = decayed_fidelity(1.0, p, s, DecayMode.ITERATED)
                b = decayed_fidelity(1.0, p, s, DecayMode.PAPER_FORMULA)
                assert a == pytest.approx(b, abs=1e-12)

    def test_eviction_step(self):
        # at p = 0.1 the fidelity of a fresh pair crosses 0.5 at s = 6
        assert decayed_fidelity(1.0, 0.1, 5) > 0.5
        assert decayed_fidelity(1.0, 0.1, 6) == pytest.approx(0.46182, abs=1e-4)
        assert decayed_fidelity(1.0, 0.1, 6) < 0.5

    def test_limit(self):
        assert decayed_fidelity(1.0, 0.3, 500) == pytest.approx(0.25, abs=1e-12)


class TestHeap:
    def test_extract_from_empty_heap(self):
        heap = fresh_heap()
        assert heap.extract_max() is None
        heap.insert(StoredPair("x", 1, 0.9))
        assert heap.extract_max().id == "x"
        assert heap.extract_max() is None

    def test_duplicate_pair_ids(self):
        arrivals = (Arrival(1, "s0", "x"), Arrival(2, "s1", "x"))
        with pytest.raises(ValueError, match="^duplicate pair ids$"):
            three_flow_config(arrivals=arrivals)

    def test_heap_property_after_random_ops(self):
        # paper-formula decay ignores f0 < 1 and p_mem = 1 ties every pair
        # at 1/4, so both reorder pairs without evicting any
        for mode in DecayMode:
            for p_mem in (0.0, 0.1, 1.0):
                rng = random.Random(1)
                heap = fresh_heap(capacity=16, p_mem=p_mem, eta_crit=0.0, decay_mode=mode)
                next_id = 0
                for step in range(400):
                    op = rng.random()
                    if op < 0.5:
                        pair = StoredPair(f"p{next_id:04d}", step, round(rng.uniform(0.3, 1.0), 3))
                        next_id += 1
                        heap.insert(pair)
                    elif op < 0.8:
                        heap.extract_max()
                    else:
                        heap.tick_decay()
                    assert check_heap(heap), (mode, p_mem, step)

    def test_extract_order(self):
        heap = fresh_heap(eta_crit=0.0)
        for i, f in enumerate([0.7, 0.9, 0.8, 0.95, 0.6]):
            heap.insert(StoredPair(f"p{i}", i, f))
        out = [heap.extract_max().f0 for _ in range(5)]
        assert out == sorted(out, reverse=True)

    def test_tie_prefers_older(self):
        heap = fresh_heap(eta_crit=0.0)
        heap.insert(StoredPair("new", 5, 0.9))
        heap.insert(StoredPair("old", 1, 0.9))
        assert heap.extract_max().id == "old"

    def test_capacity_policy(self):
        heap = fresh_heap(capacity=2, eta_crit=0.0)
        heap.insert(StoredPair("a", 0, 0.6))
        heap.insert(StoredPair("b", 0, 0.8))
        status, evicted = heap.insert(StoredPair("c", 1, 0.5))
        assert (status, evicted) == ("rejected", None)
        status, evicted = heap.insert(StoredPair("d", 1, 0.6))
        assert (status, evicted) == ("rejected", None)  # equal is not better
        status, evicted = heap.insert(StoredPair("e", 1, 0.7))
        assert status == "replaced"
        assert evicted.id == "a"
        assert {it.id for it in heap.items} == {"b", "e"}

    def test_decay_evicts_below_threshold(self):
        heap = fresh_heap(capacity=4, p_mem=0.1, eta_crit=0.5)
        heap.insert(StoredPair("x", 0, 1.0))
        for s in range(1, 6):
            survivors, evicted = heap.tick_decay()
            assert evicted == []
            assert survivors[0].current_fidelity == pytest.approx(
                decayed_fidelity(1.0, 0.1, s)
            )
        _, evicted = heap.tick_decay()
        assert [e.id for e in evicted] == ["x"]
        assert len(heap) == 0

    def test_extract_latest(self):
        heap = fresh_heap(eta_crit=0.0)
        heap.insert(StoredPair("a", 1, 0.99))
        heap.insert(StoredPair("b", 3, 0.60))
        heap.insert(StoredPair("c", 2, 0.80))
        assert heap._remove_at(heap.latest_index()).id == "b"
        assert heap._remove_at(heap.latest_index()).id == "c"
        assert check_heap(heap)

    def test_validation(self):
        with pytest.raises(ValueError):
            MemoryHeap(0, 0.1, 0.5)
        with pytest.raises(ValueError):
            MemoryHeap(4, 1.5, 0.5)


class OracleHeap(MemoryHeap):
    """The heap scans as plain _higher scans: the oracles of the fast ones."""

    def _sift_up(self, i):
        while i > 0:
            parent = (i - 1) // 2
            if self._higher(self.items[i], self.items[parent]):
                self.items[i], self.items[parent] = self.items[parent], self.items[i]
                i = parent
            else:
                break
        return i

    def _min_index(self):
        lo = 0
        for i in range(1, len(self.items)):
            if self._higher(self.items[lo], self.items[i]):
                lo = i
        return lo

    def latest_index(self):
        keys = [(item.insertion_tick, item.id) for item in self.items]
        return keys.index(max(keys))

    def _restore_order(self):
        for i in range(1, len(self.items)):
            if self._higher(self.items[i], self.items[(i - 1) // 2]):
                self._sift_up(i)


def layout(heap):
    return [(it.id, it.insertion_tick, it.age, it.current_fidelity) for it in heap.items]


class TestHeapScanOracles:
    """Every fast heap scan picks what its _higher oracle picks, ties included."""

    CASES = [
        (DecayMode.ITERATED, 1.0, 0.25),  # every pair at exactly 1/4 after one step
        (DecayMode.ITERATED, 1.0, 0.0),
        (DecayMode.ITERATED, 0.1, 0.5),
        (DecayMode.ITERATED, 0.0, 0.0),  # no decay: equal f0 values tie for good
        (DecayMode.PAPER_FORMULA, 0.05, 0.3),  # same-age pairs tie whatever their f0
        (DecayMode.PAPER_FORMULA, 1.0, 0.0),
        (DecayMode.PAPER_FORMULA, 0.1, 0.5),
    ]

    @staticmethod
    def f0_values(rng, n):
        """f0 = 1, a few repeated values and neighbours one ulp apart."""
        out = []
        for _ in range(n):
            r = rng.random()
            if out and r < 0.4:
                out.append(math.nextafter(rng.choice(out), rng.choice((0.0, 1.0))))
            elif out and r < 0.5:
                out.append(rng.choice(out))
            else:
                out.append(1.0 if r < 0.75 else rng.uniform(0.3, 1.0))
        return out

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("mode,p_mem,eta_crit", CASES)
    def test_same_picks_and_layout(self, mode, p_mem, eta_crit, seed):
        rng = random.Random(f"{mode.value}/{p_mem}/{eta_crit}/{seed}")
        capacity = rng.randint(4, 24)
        fast = MemoryHeap(capacity, p_mem, eta_crit, mode)
        slow = OracleHeap(capacity, p_mem, eta_crit, mode)
        f0s = iter(self.f0_values(rng, 3000))
        for tick in range(1, 150):
            # several pairs per tick, ids in no particular order
            for _ in range(rng.randint(0, 5)):
                pid, f0 = f"q{rng.randrange(10**6):06d}", next(f0s)
                got = fast.insert(StoredPair(pid, tick, f0))
                want = slow.insert(StoredPair(pid, tick, f0))
                assert (got[0], got[1] and got[1].id) == (want[0], want[1] and want[1].id)
                assert layout(fast) == layout(slow)
            got, want = fast.tick_decay(), slow.tick_decay()
            assert [[it.id for it in part] for part in got] == [[it.id for it in part] for part in want]
            assert layout(fast) == layout(slow), tick
            if fast.items:
                # the fast scans against the oracles on the same array
                assert fast._min_index() == OracleHeap._min_index(fast)
                assert fast.latest_index() == OracleHeap.latest_index(fast)
            for _ in range(rng.randint(0, 3)):
                if not fast.items:
                    break
                if rng.random() < 0.5:
                    assert fast.extract_max().id == slow.extract_max().id
                else:
                    assert fast.latest_index() == slow.latest_index()
                    assert fast._remove_at(fast.latest_index()).id == slow._remove_at(slow.latest_index()).id
                assert layout(fast) == layout(slow)

    @pytest.mark.parametrize("mode,p_mem,eta_crit", CASES)
    def test_restore_scan_on_shuffled_arrays(self, mode, p_mem, eta_crit):
        # the restore scan on arrays far from heap order, as compaction leaves them
        rng = random.Random(f"restore/{mode.value}/{p_mem}/{eta_crit}")
        for _ in range(40):
            n = rng.randint(1, 40)
            pairs = [StoredPair(f"q{rng.randrange(10**6):06d}", rng.randint(1, 4), f0)
                     for f0 in self.f0_values(rng, n)]
            for it in pairs:
                it.age = rng.randint(0, 3)
                it.current_fidelity = decayed_fidelity(it.f0, p_mem, it.age, mode)
            fast = MemoryHeap(64, p_mem, eta_crit, mode)
            slow = OracleHeap(64, p_mem, eta_crit, mode)
            fast.items, slow.items = list(pairs), list(pairs)
            assert fast._min_index() == OracleHeap._min_index(fast)
            assert fast.latest_index() == OracleHeap.latest_index(fast)
            fast._restore_order()
            slow._restore_order()
            assert [it.id for it in fast.items] == [it.id for it in slow.items]
            assert check_heap(fast)


class TestTiming:
    def test_sift_ticks(self):
        assert [sift_ticks(i) for i in range(8)] == [0, 1, 2, 2, 3, 3, 3, 3]
        with pytest.raises(ValueError):
            sift_ticks(-1)

    def test_finish_time(self):
        assert finish_time(0, 3, 2) == 5
        assert finish_time(7, 3, 2) == 9
        with pytest.raises(ValueError):
            finish_time(-1, 0, 0)

    def test_back_to_back_requests(self):
        t = 0
        for ready in (1, 2, 3):
            t = finish_time(t, ready, 4)
        assert t == 13  # fully serialized by processing time


def three_flow_config(**kw):
    arrivals = tuple(
        Arrival(t, "src", f"p{t:02d}") for t in range(1, 16)
    )
    flows = tuple(FlowRequest(f"f{i}", 1, 2, n_pairs=5) for i in range(3))
    base = dict(
        capacity=8,
        p_mem=0.05,
        eta_crit=0.4,
        arrivals=arrivals,
        flows=flows,
        horizon=20,
    )
    base.update(kw)
    return SimConfig(**base)


def trace_rows(cfg):
    """Runs cfg, streaming its trace; returns (result, text, rows).

    rows are the CSV lines after the header, split into (tick, event,
    pair_id, flow_id, fidelity), the tick as an int and the fidelity as
    printed.
    """
    chunks = []
    res = run(cfg, chunks.append)
    text = "".join(chunks)
    rows = []
    for line in text.splitlines()[1:]:
        tick, kind, pair, flow, fid = line.split(",")
        rows.append((int(tick), kind, pair, flow, fid))
    return res, text, rows


def replay_finishes(rows, t_p):
    """Recompute each flow's finish times from its dispatch rows."""
    finishes = {}
    for tick, kind, _pair, flow, _fid in rows:
        if kind == "dispatch":
            prev = finishes.setdefault(flow, [0])
            prev.append(finish_time(prev[-1], tick, t_p))
    return {fid: tuple(v[1:]) for fid, v in finishes.items()}


class TestRun:
    def test_round_robin_shares_scarce_pairs(self):
        res, _, _ = trace_rows(three_flow_config())
        assert res.flow_finishes["f0"] == (3, 6, 9, 12, 15)
        assert res.flow_finishes["f1"] == (4, 7, 10, 13, 16)
        assert res.flow_finishes["f2"] == (5, 8, 11, 14, 17)

    @pytest.mark.parametrize("kw,unserved", [
        ({}, set()),
        ({"flows": (FlowRequest("f0", 1, 2, n_pairs=0), FlowRequest("f1", 1, 2, n_pairs=5))},
         {"f0"}),
        ({"flows": (FlowRequest("f0", 1, 2, n_pairs=5), FlowRequest("f1", 21, 2, n_pairs=5))},
         {"f1"}),
        ({"arrivals": tuple(
            Arrival(t, src, f"{src}-{t:02d}") for t in range(15, 0, -1) for src in ("s1", "s0")
        )}, set()),
    ], ids=["three-flows", "zero-pairs", "arrives-after-horizon", "arrivals-out-of-order"])
    def test_finish_times_match_replay_oracle(self, kw, unserved):
        cfg = three_flow_config(**kw)
        res, _, rows = trace_rows(cfg)
        assert list(res.flow_finishes) == sorted(f.flow_id for f in cfg.flows)
        assert {fid for fid, v in res.flow_finishes.items() if not v} == unserved
        assert res.dispatches == sum(len(v) for v in res.flow_finishes.values())
        served = {fid: v for fid, v in res.flow_finishes.items() if v}
        assert replay_finishes(rows, 2) == served
        # arrivals take their turn by tick, then producer, whatever their listed order
        arrived = [pair for _, kind, pair, _, _ in rows if kind in ("insert", "reject")]
        order = sorted(cfg.arrivals, key=lambda a: (a.tick, a.producer_id, a.pair_id))
        assert arrived == [a.pair_id for a in order]

    def test_conservation(self):
        for cfg in (
            three_flow_config(),
            three_flow_config(capacity=2),
            three_flow_config(p_mem=0.4, eta_crit=0.6),
            three_flow_config(flows=(FlowRequest("f0", 1, 1, n_pairs=3),)),
        ):
            res, _, _ = trace_rows(cfg)
            assert res.inserts == res.dispatches + res.evictions + res.residual

    def test_no_flow_starves(self):
        # one pair per tick and three hungry flows: everyone advances
        res, _, _ = trace_rows(three_flow_config())
        served = {fid: len(v) for fid, v in res.flow_finishes.items()}
        assert served == {"f0": 5, "f1": 5, "f2": 5}

    def test_flow_not_served_before_arrival(self):
        cfg = three_flow_config(flows=(FlowRequest("f0", 5, 2, n_pairs=2),))
        _, _, rows = trace_rows(cfg)
        first_dispatch = min(tick for tick, kind, *_ in rows if kind == "dispatch")
        assert first_dispatch >= 5

    def test_latest_first_order(self):
        cfg = three_flow_config(
            service_order=ServiceOrder.LATEST_FIRST,
            flows=(FlowRequest("f0", 1, 1, n_pairs=4),),
            p_mem=0.0,
            eta_crit=0.0,
        )
        _, _, rows = trace_rows(cfg)
        dispatched = [pair for _, kind, pair, _, _ in rows if kind == "dispatch"]
        # each tick the freshest arrival is taken straight back out
        assert dispatched == ["p01", "p02", "p03", "p04"]

    def test_rejects_recorded(self):
        # with no decay the stored pair ties the newcomer, which is rejected
        cfg = three_flow_config(capacity=1, flows=(), p_mem=0.0)
        res, _, rows = trace_rows(cfg)
        assert res.rejects > 0
        assert sum(kind == "reject" for _, kind, *_ in rows) == res.rejects

    def test_eviction_events(self):
        cfg = three_flow_config(p_mem=0.4, eta_crit=0.6, flows=())
        res, _, rows = trace_rows(cfg)
        assert res.evictions > 0
        # each pair decays below eta_crit at its first step, so the heap
        # never fills and every eviction is a decay eviction
        evicts = [(flow, float(fid)) for _, kind, _, flow, fid in rows if kind == "evict"]
        assert len(evicts) == res.evictions
        assert all(flow == "" and fid < 0.6 for flow, fid in evicts)

    def test_validation(self):
        with pytest.raises(ValueError):
            three_flow_config(horizon=0)
        with pytest.raises(ValueError):
            three_flow_config(
                flows=(FlowRequest("f0", 1, 1), FlowRequest("f0", 2, 1))
            )

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_conservation_random(self, seed):
        rng = random.Random(seed)
        arrivals = tuple(
            Arrival(rng.randint(1, 10), f"s{i % 3}", f"p{i:03d}", round(rng.uniform(0.6, 1.0), 3))
            for i in range(rng.randint(1, 25))
        )
        flows = tuple(
            FlowRequest(f"f{i}", rng.randint(1, 5), rng.randint(1, 3), rng.randint(1, 6))
            for i in range(rng.randint(0, 4))
        )
        cfg = SimConfig(
            capacity=rng.randint(1, 10),
            p_mem=rng.choice([0.0, 0.05, 0.2]),
            eta_crit=rng.choice([0.0, 0.4, 0.6]),
            arrivals=arrivals,
            flows=flows,
            horizon=15,
        )
        res, _, _ = trace_rows(cfg)
        assert res.inserts == res.dispatches + res.evictions + res.residual
        assert res.inserts + res.rejects == len(arrivals)


class TestTrace:
    def test_byte_identical_across_runs(self):
        cfg = three_flow_config()
        assert trace_rows(cfg)[1] == trace_rows(cfg)[1]

    def test_header_and_shape(self):
        _, text, rows = trace_rows(three_flow_config())
        assert text.startswith(TRACE_HEADER)
        assert text.endswith("\n")
        assert len(text.splitlines()) == len(rows) + 1

    def test_fidelities_round_trip(self):
        # every printed fidelity reads back as the float it was printed
        # from, and each decay row's equals the per-pair formula
        _, _, rows = trace_rows(three_flow_config())
        inserted = {}
        for tick, kind, pair, _flow, fid in rows:
            assert repr(float(fid)) == fid
            if kind == "insert":
                inserted[pair] = (tick, float(fid))
            elif kind == "decay":
                t0, f0 = inserted[pair]
                assert float(fid) == decayed_fidelity(f0, 0.05, tick - t0 + 1)


def near_tie_config(rng, mode, order, p_mem, eta_crit):
    """Random arrivals whose f0 values include 1 and neighbours one ulp apart."""
    f0s = []
    for _ in range(36):
        r = rng.random()
        if f0s and r < 0.4:
            f0s.append(math.nextafter(rng.choice(f0s), rng.choice((0.0, 1.0))))
        else:
            f0s.append(1.0 if r < 0.5 else rng.uniform(0.3, 1.0))
    arrivals = tuple(
        Arrival(rng.randint(1, 20), f"s{i % 3}", f"p{i:03d}", f0) for i, f0 in enumerate(f0s)
    )
    flows = tuple(
        FlowRequest(f"f{i}", rng.randint(1, 12), rng.randint(1, 3), rng.randint(1, 8)) for i in range(3)
    )
    return SimConfig(
        capacity=rng.randint(2, 12), p_mem=p_mem, eta_crit=eta_crit, arrivals=arrivals,
        flows=flows, horizon=25, decay_mode=mode, service_order=order,
    )


class TestStreaming:
    """run(cfg, write) streams rows that agree with its heap, its decay table and its counters."""

    COUNTERS = {"insert": "inserts", "evict": "evictions", "reject": "rejects", "dispatch": "dispatches"}

    @pytest.mark.parametrize("eta_crit", [0.0, 0.25, 0.5])
    @pytest.mark.parametrize("p_mem", [0.0, 0.1, 1.0])
    @pytest.mark.parametrize("order", list(ServiceOrder))
    @pytest.mark.parametrize("mode", list(DecayMode))
    def test_rows_heap_and_counters(self, monkeypatch, mode, order, p_mem, eta_crit):
        rng = random.Random(f"{mode.value}/{order.value}/{p_mem}/{eta_crit}")
        tick_decay = MemoryHeap.tick_decay
        heaps = []

        def checked_tick_decay(heap):
            # per-age table values equal the per-pair formula bit for bit
            out = tick_decay(heap)
            for it in heap.items:
                assert it.current_fidelity == decayed_fidelity(it.f0, heap.p_mem, it.age, heap.decay_mode)
            assert check_heap(heap)
            heaps.append(heap)
            return out

        monkeypatch.setattr(MemoryHeap, "tick_decay", checked_tick_decay)
        for _ in range(3):
            cfg = near_tie_config(rng, mode, order, p_mem, eta_crit)
            chunks = []

            def write(text):
                if chunks:
                    assert check_heap(heaps[-1])  # the heap as the tick ends
                else:
                    assert text == TRACE_HEADER
                chunks.append(text)

            res = run(cfg, write)
            assert len(chunks) == cfg.horizon + 1  # the header, then one write per tick
            lines = "".join(chunks).splitlines()[1:]
            kinds = [line.split(",")[1] for line in lines]
            for kind, counter in self.COUNTERS.items():
                assert kinds.count(kind) == getattr(res, counter), kind
            assert res.inserts == res.dispatches + res.evictions + res.residual
            if order is ServiceOrder.HIGHEST_FIDELITY:
                served_pairs("".join(chunks))  # each dispatch takes the best stored pair


def served_pairs(text):
    """Pair ids in dispatch order, checking each against the stored pairs.

    Replays the buffer trace and asserts that every dispatch takes the
    best stored pair: highest fidelity, then older insertion, then
    smaller id.
    """
    lines = text.splitlines()
    stored = {}  # pair id -> (fidelity, insertion tick)
    served = []
    for line in lines[lines.index("tick,event,pair_id,flow_id,fidelity") + 1:]:
        tick, kind, pair, _flow, fid = line.split(",")
        if kind == "insert":
            stored[pair] = (float(fid), int(tick))
        elif kind == "decay":
            stored[pair] = (float(fid), stored[pair][1])
        elif kind == "evict":
            del stored[pair]
        elif kind == "dispatch":
            best = min(stored, key=lambda q: (-stored[q][0], stored[q][1], q))
            assert pair == best, f"tick {tick}"
            del stored[pair]
            served.append(pair)
    return served


class TestOrderAfterReordering:
    """Decay that reorders pairs without evicting any still serves the best pair."""

    def run_buffer(self, capsys, tmp_path, cfg):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(cfg))
        code = main(["buffer", "--config", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        return served_pairs(out)

    def test_paper_formula_below_unit_fidelity(self, capsys, tmp_path):
        # paper-formula decay ignores f0 after one step, so the younger x3
        # overtakes x2 at tick 2
        cfg = {
            "capacity": 8, "p_mem": 0.1, "eta_crit": 0.3, "horizon": 5,
            "decay_mode": "paper-formula", "service_order": "highest-fidelity",
            "arrivals": [
                {"tick": 1, "producer_id": "P0", "pair_id": "x1", "f0": 0.9},
                {"tick": 1, "producer_id": "P1", "pair_id": "x2", "f0": 0.95},
                {"tick": 2, "producer_id": "P0", "pair_id": "x3", "f0": 0.85},
            ],
            "flows": [{"flow_id": "F0", "arrival_tick": 4, "t_p": 1, "n_pairs": 2}],
        }
        assert self.run_buffer(capsys, tmp_path, cfg) == ["x3", "x1"]

    @pytest.mark.parametrize("eta_crit", [0.0, 0.25])
    def test_iterated_full_memory_noise(self, capsys, tmp_path, eta_crit):
        # p_mem = 1 takes every pair to exactly 1/4 in one step; the ties
        # then go to the older pair, whatever its f0
        arrivals = [
            {"tick": t, "producer_id": "P0", "pair_id": pid, "f0": f0}
            for t, pid, f0 in [(1, "a", 0.7), (1, "b", 0.9), (1, "c", 0.8), (2, "d", 0.95), (2, "e", 0.6)]
        ]
        cfg = {
            "capacity": 8, "p_mem": 1.0, "eta_crit": eta_crit, "horizon": 8,
            "arrivals": arrivals,
            "flows": [{"flow_id": "F0", "arrival_tick": 3, "t_p": 1, "n_pairs": 5}],
        }
        assert self.run_buffer(capsys, tmp_path, cfg) == ["a", "b", "c", "d", "e"]
