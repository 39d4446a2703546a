import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetlim import repeater
from qnetlim.netgraph import Undefined
from qnetlim.repeater import (
    ChainConfig,
    Empty,
    EntanglementMode,
    LinkBudget,
    NoneFeasible,
    TaskKind,
    TaskSpec,
    Unbounded,
    chain_visibility,
    critical_length_time_bound,
    critical_visibility_diqkd,
    f_fold_bound,
    max_length_lattice,
    max_repeaters,
    max_repeaters_floor_form,
    nqi_alpha_bound,
    required_f_diqkd,
    required_f_lattice,
    star_repeater_factor,
    zero_key_window,
)

DIQKD_PI4 = TaskSpec(TaskKind.DIQKD, theta=math.pi / 4)

ALL_TASKS = [
    TaskSpec(TaskKind.ENTANGLEMENT),
    TaskSpec(TaskKind.ENTANGLEMENT, entanglement_mode=EntanglementMode.PAPER_APPENDIX_H),
    TaskSpec(TaskKind.TELEPORTATION),
    TaskSpec(TaskKind.CHSH),
    DIQKD_PI4,
]


SENTINELS = (Unbounded, NoneFeasible, Empty, Undefined)


@pytest.mark.parametrize("cls", SENTINELS, ids=lambda c: c.__name__)
def test_sentinels_compare_by_class(cls):
    assert repr(cls()) == cls.__name__
    assert cls() == cls() and hash(cls()) == hash(cls.__name__)
    assert all(cls() != other() for other in SENTINELS if other is not cls)


def brute_force_max(lam, q, gamma, cap=5000):
    """Independent iteration oracle for the largest feasible repeater count."""
    if lam <= gamma:
        return NoneFeasible()
    n = 0
    while n < cap:
        if q ** (n + 1) * lam ** (n + 2) <= gamma:
            return n
        n += 1
    return Unbounded()


class TestVisibility:
    def test_examples(self):
        assert chain_visibility(ChainConfig(1.0, 1.0, 100)) == 1.0
        assert chain_visibility(ChainConfig(0.9, 0.9, 2)) == pytest.approx(0.59049)
        assert chain_visibility(ChainConfig(0.9, 1.0, 1)) == pytest.approx(0.81)

    def test_matches_iterated_swap(self):
        # composing two swaps on identical isotropic links gives q^2 lam^3
        import qstate

        lam, q = 0.9, 0.9
        one = qstate.bell_swap(
            qstate.make_isotropic(lam), qstate.make_isotropic(lam), q
        )
        two = qstate.bell_swap(
            one.corrected_state, qstate.make_isotropic(lam), q
        )
        assert two.corrected_visibility == pytest.approx(
            chain_visibility(ChainConfig(lam, q, 2)), abs=1e-10
        )


class TestDiqkdThreshold:
    def test_quarter_pi(self):
        assert critical_visibility_diqkd(math.pi / 4) == pytest.approx(0.744524, abs=5e-6)

    def test_sixth_pi(self):
        gamma_l = 1.0 / (math.cos(math.pi / 6) + math.sin(math.pi / 6))
        want = (gamma_l + 1.0) / (3.0 - gamma_l)
        assert critical_visibility_diqkd(math.pi / 6) == pytest.approx(want, abs=1e-12)

    def test_limit_at_half_pi(self):
        assert critical_visibility_diqkd(math.pi / 2 - 1e-9) == pytest.approx(1.0, abs=1e-6)

    def test_range(self):
        with pytest.raises(ValueError):
            critical_visibility_diqkd(0.0)
        with pytest.raises(ValueError):
            critical_visibility_diqkd(math.pi / 2)


class TestMaxRepeaters:
    def test_specific_points(self):
        assert max_repeaters(0.95, 1.0, DIQKD_PI4) == 4
        assert max_repeaters(0.9, 1.0, TaskSpec(TaskKind.TELEPORTATION)) == 9
        assert max_repeaters(0.95, 1.0, TaskSpec(TaskKind.CHSH)) == 5

    def test_sentinels(self):
        assert max_repeaters(1.0, 1.0, DIQKD_PI4) == Unbounded()
        assert max_repeaters(0.3, 1.0, TaskSpec(TaskKind.CHSH)) == NoneFeasible()

    def test_floor_form_conservative(self):
        # the closed floor form may lose one repeater but never gains one
        assert max_repeaters_floor_form(0.95, 1.0, DIQKD_PI4) == 3
        lams = [0.75 + 0.0025 * i for i in range(101)]
        for lam in lams:
            for q in (0.9, 0.99, 1.0):
                for task in ALL_TASKS:
                    exact = max_repeaters(lam, q, task)
                    floor = max_repeaters_floor_form(lam, q, task)
                    if isinstance(exact, (Unbounded, NoneFeasible)):
                        continue
                    if isinstance(floor, NoneFeasible):
                        continue
                    assert floor <= exact
                    # conservativeness: floor never admits an infeasible count
                    gamma = task.threshold()
                    assert chain_visibility(ChainConfig(lam, q, floor)) > gamma

    def test_floor_form_range_and_zero_decay(self):
        task = TaskSpec(TaskKind.ENTANGLEMENT)
        for lam, q in ((1.5, 0.5), (0.9, -0.1), (0.9, 1.5)):
            with pytest.raises(ValueError):
                max_repeaters_floor_form(lam, q, task)
        # q lam = 0 is the floor form's limit as q lam -> 0
        assert max_repeaters_floor_form(0.9, 0.0, task) == NoneFeasible()
        assert max_repeaters_floor_form(0.9, 1e-300, task) == NoneFeasible()
        assert max_repeaters(0.9, 0.0, task) == 0

    def test_brute_force_grid(self):
        lams = [0.75 + 0.05 * i for i in range(6)]
        for lam in lams:
            for q in (0.625, 0.9, 0.95, 0.99, 1.0):
                for task in ALL_TASKS:
                    got = max_repeaters(lam, q, task)
                    want = brute_force_max(lam, q, task.threshold())
                    assert got == want, (lam, q, task.kind)

    @given(st.floats(0.4, 1.0), st.floats(0.5, 1.0), st.floats(0.4, 0.99))
    @settings(max_examples=60, deadline=None)
    def test_boundary_identity(self, lam, q, p_star):
        task = TaskSpec(TaskKind.CUSTOM, p_star=p_star)
        n = max_repeaters(lam, q, task)
        if isinstance(n, (Unbounded, NoneFeasible)):
            return
        assert chain_visibility(ChainConfig(lam, q, n)) > p_star
        assert chain_visibility(ChainConfig(lam, q, n + 1)) <= p_star

    @pytest.mark.parametrize("task", ALL_TASKS, ids=lambda t: f"{t.kind.value}-{t.entanglement_mode.value}")
    def test_lambda_one_ulp_below_one(self, task):
        # n ~ 1e15, far past any stepping oracle: feasible at n, infeasible at n + 1
        lam = 1.0 - 2.0**-52
        n = max_repeaters(lam, 1.0, task)
        assert n > 10**15
        assert chain_visibility(ChainConfig(lam, 1.0, n)) > task.threshold()
        assert chain_visibility(ChainConfig(lam, 1.0, n + 1)) <= task.threshold()

    def test_monotone_in_lambda_and_q(self):
        task = TaskSpec(TaskKind.CHSH)
        prev = -1
        for lam in [0.72 + 0.02 * i for i in range(14)]:
            n = max_repeaters(lam, 0.99, task)
            val = -1 if isinstance(n, NoneFeasible) else n
            assert val >= prev
            prev = val


@pytest.mark.parametrize("kind", [TaskKind.CHSH, TaskKind.DIQKD, TaskKind.CUSTOM])
def test_critical_probability_of_other_tasks_raises(kind):
    with pytest.raises(ValueError, match="defined for entanglement and teleportation"):
        repeater.critical_probability(kind)


class TestZeroKeyWindow:
    def test_single_repeater(self):
        win = zero_key_window(1.0, 1, math.pi / 4)
        gamma = critical_visibility_diqkd(math.pi / 4)
        assert win[0] == pytest.approx(gamma)
        assert win[1] == pytest.approx(math.sqrt(gamma), abs=1e-12)

    def test_no_repeater_empty(self):
        assert zero_key_window(1.0, 0, math.pi / 4) == Empty()

    def test_clamped_upper(self):
        win = zero_key_window(0.5, 3, math.pi / 4)
        assert win[1] == 1.0

    @pytest.mark.parametrize("q,n,theta", [(0.5, 2000, 0.7), (1e-10, 40, 0.7), (1e-200, 2, 0.7)])
    def test_underflowing_q_power(self, q, n, theta):
        # q**n is 0.0 in floats; the root is at least 1 wherever q**n <= gamma
        assert q**n == 0.0
        assert zero_key_window(q, n, theta) == (critical_visibility_diqkd(theta), 1.0)

    def test_upper_is_clamped_root(self):
        for q, n, theta in itertools.product([1.0, 0.99, 0.9, 0.5, 0.1], [1, 2, 5, 40], [0.3, 0.7, 1.2]):
            gamma = critical_visibility_diqkd(theta)
            upper = min(1.0, (gamma / q**n) ** (1.0 / (n + 1)))
            want = (gamma, upper) if gamma < upper else Empty()
            assert zero_key_window(q, n, theta) == want

    def test_tiny_theta_rounds_gamma_to_one(self):
        # at theta = 1e-300, cos + sin rounds to 1, so gamma is 1.0 and no visibility lies above it
        assert critical_visibility_diqkd(1e-300) == 1.0
        assert zero_key_window(0.9, 1, 1e-300) == Empty()

    def test_midpoint_semantics(self):
        win = zero_key_window(1.0, 1, math.pi / 4)
        mid = 0.5 * (win[0] + win[1])
        gamma = critical_visibility_diqkd(math.pi / 4)
        # single link feasible, chain infeasible
        assert chain_visibility(ChainConfig(mid, 1.0, 0)) > gamma
        assert chain_visibility(ChainConfig(mid, 1.0, 1)) <= gamma


class TestTradeOffs:
    def test_bound_examples(self):
        b = critical_length_time_bound(LinkBudget(0.05, 0.01, 1.0, 1, 1.0, 0.5))
        assert b.bound == pytest.approx(0.5 * math.log(2))
        b = critical_length_time_bound(LinkBudget(0.05, 0.01, 0.97, 1, 1.0, 0.5))
        assert b.bound == pytest.approx(0.5 * math.log(0.97**2 / 0.5), abs=1e-12)
        assert b.bound == pytest.approx(0.31611, abs=1e-4)
        b = critical_length_time_bound(LinkBudget(0.05, 0.01, 0.5, 1, 1.0, 0.5))
        assert not b.feasible_at_zero

    @pytest.mark.parametrize("q,eta_s", [(0.0, 1.0), (1.0, 0.0)])
    def test_bound_with_a_zero_efficiency(self, q, eta_s):
        b = critical_length_time_bound(LinkBudget(q=q, eta_s=eta_s))
        assert (b.bound, b.feasible_at_zero) == (-math.inf, False)

    def test_bound_monotone_in_r(self):
        for q in (0.8, 0.9, 1.0):
            for eta_s in (0.7, 0.9, 1.0):
                if q * eta_s > 1.0 or 0.4 > q * eta_s**2:
                    continue
                prev = None
                for r in range(1, 8):
                    b = critical_length_time_bound(
                        LinkBudget(0.05, 0.01, eta_s, r, q, 0.4)
                    ).bound
                    if prev is not None:
                        assert b <= prev + 1e-12
                    prev = b

    def test_f_fold(self):
        assert f_fold_bound(1.0, 1 / math.e) == pytest.approx(1.0)
        assert f_fold_bound(2.0, 0.5) == pytest.approx(2 * math.log(2))
        assert f_fold_bound(4.0, 0.5) == pytest.approx(4 * math.log(2))

    def test_star_factor(self):
        assert star_repeater_factor(3).factor == pytest.approx(math.sqrt(3))
        assert star_repeater_factor(4).factor == pytest.approx(math.sqrt(2))
        six = star_repeater_factor(6)
        assert six.factor == pytest.approx(1.0)
        assert not six.advantage
        assert star_repeater_factor(5).advantage

    def test_lattice_requirements(self):
        assert required_f_lattice(10, 27, 0.051, 0.5) == pytest.approx(19.87, rel=0.01)
        assert max_length_lattice(2, 0.051, 0.5) == pytest.approx(27.18, rel=0.01)
        # round trip
        length = max_length_lattice(2, 0.051, 0.5)
        assert required_f_lattice(1, length, 0.051, 0.5) == pytest.approx(2.0, abs=1e-12)

    def test_required_f_diqkd(self):
        assert required_f_diqkd(1.0, 10.0, 1, 0.0, 0, math.exp(-1), 2.0) == pytest.approx(20.0)
        got = required_f_diqkd(0.04, 25.0, 10, 0.01, 1, 0.7445, 1.0)
        assert got == pytest.approx(37.7, abs=0.1)
        assert required_f_diqkd(0.04, 25.0, 10, 0.5, 5, 0.99) == math.inf


class TestAlphaBound:
    def test_examples(self):
        assert nqi_alpha_bound(952, 10, 1.0) == pytest.approx(1.0491e-3, rel=1e-3)
        assert nqi_alpha_bound(952, 10, 0.8) is None

    def test_large_n_limit(self):
        got = nqi_alpha_bound(952, 10**6, 1.0)
        assert got == pytest.approx(math.log(3) / 952, rel=1e-6)
