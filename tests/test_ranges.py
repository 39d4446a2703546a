import dataclasses
import math
import re

import numpy as np
import pytest

from qnetlim import Range, buffersim, repeater, scenario
from qnetlim import netgraph as ng
from qnetlim.netgraph import Network, evolve

SPECS = ["[0, 1]", "(0, 1)", "(0, 1]", "[0, 4/3]", "(0, pi/2)", "[-90, 90]", ">= 0", "> 0", ">= 1"]


class TestRange:
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("bad", [math.nan, None, math.inf, -math.inf])
    def test_nan_none_and_infinities_fail_every_range(self, spec, bad):
        with pytest.raises(ValueError, match="^x must be "):
            Range(spec).check("x", bad)

    @pytest.mark.parametrize("spec,inside,outside", [
        ("[0, 1]", [0, 0.0, 0.5, 1, 1.0], [-5e-324, 1.0000000000000002, 2]),
        ("(0, 1)", [5e-324, 0.5, 0.9999999999999999], [0, 0.0, 1, 1.0]),
        ("(0, 1]", [5e-324, 1.0], [0.0, 1.0000000000000002]),
        ("[0, 4/3]", [4 / 3], [math.nextafter(4 / 3, 2)]),
        ("(0, pi/2)", [math.nextafter(math.pi / 2, 0)], [math.pi / 2]),
        (">= 1", [1, 1.0, 1e308], [0.9999999999999999, 0]),
        ("> 0", [5e-324, 3], [0, 0.0, -1]),
    ])
    def test_bounds(self, spec, inside, outside):
        rng = Range(spec)
        for v in inside:
            rng.check("x", v)
        for v in outside:
            with pytest.raises(ValueError):
                rng.check("x", v)

    @pytest.mark.parametrize("spec,message", [
        ("[0, 1]", "x must be in [0, 1]"),
        ("(0, 1)", "x must be in (0, 1)"),
        (">= 1", "x must be >= 1"),
        ("> 0", "x must be > 0"),
    ])
    def test_message(self, spec, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Range(spec).check("x", -2)

    def test_own_message(self):
        with pytest.raises(ValueError, match="^beam waist and Rayleigh range must be positive$"):
            scenario.AtmosphereParams(z_rayleigh=math.nan)


PARAMETER_CLASSES = [
    repeater.LinkBudget, repeater.ChainConfig, scenario.SatelliteYieldParams, scenario.AtmosphereParams,
]


class TestDeclaredFields:
    @pytest.mark.parametrize("cls", PARAMETER_CLASSES, ids=lambda c: c.__name__)
    def test_every_field_declares_a_range(self, cls):
        for f in dataclasses.fields(cls):
            assert isinstance(f.metadata.get("range"), Range), f.name

    @pytest.mark.parametrize("cls", PARAMETER_CLASSES, ids=lambda c: c.__name__)
    def test_every_field_rejects_nan(self, cls):
        valid = {repeater.ChainConfig: dict(lam=0.9, q=0.9, n=2),
                 scenario.SatelliteYieldParams: dict(n=2)}.get(cls, {})
        for f in dataclasses.fields(cls):
            with pytest.raises(ValueError, match=f"{f.name}|beam waist"):
                cls(**{**valid, f.name: math.nan})

    def test_int_field_holds_an_int(self):
        with pytest.raises(ValueError, match="^r must be an integer$"):
            repeater.LinkBudget(r=1.5)
        with pytest.raises(ValueError, match="^r must be an integer$"):
            repeater.LinkBudget(r="2")
        with pytest.raises(ValueError, match="^horizon must be an integer$"):
            buffersim.SimConfig(1, 0.1, 0.5, (), (), 5.5)

    def test_ranged_field_never_holds_a_bool(self):
        with pytest.raises(ValueError, match="^r must be an integer$"):
            repeater.LinkBudget(r=True)
        with pytest.raises(ValueError, match="^q must be a number$"):
            repeater.LinkBudget(q=True)
        with pytest.raises(ValueError, match="^capacity must be an integer$"):
            buffersim.SimConfig(True, 0.1, 0.5, (), (), 5)

    def test_float_field_holds_a_real_number(self):
        # numpy's floats and integers are numbers.Real; a string or numpy's bool is not
        for q in (np.float32(0.5), np.float64(0.5), np.int64(1)):
            assert repeater.LinkBudget(q=q).q == q
        for q in ("0.5", np.bool_(True), None, 0.5j):
            with pytest.raises(ValueError, match="^q must be a number$"):
                repeater.LinkBudget(q=q)
        with pytest.raises(ValueError, match="^p_mem must be a number$"):
            buffersim.SimConfig(1, "0.05", 0.5, (), (), 5)

    def test_str_field_holds_a_str(self):
        with pytest.raises(ValueError, match="^pair_id must be a string$"):
            buffersim.Arrival(1, "P0", 3)
        with pytest.raises(ValueError, match="^pair_id must be a string$"):
            buffersim.Arrival(1, "P0", b"x0")
        with pytest.raises(ValueError, match="^flow_id must be a string$"):
            buffersim.FlowRequest(None, 1, 2)

    @pytest.mark.parametrize("cls", [buffersim.Arrival, buffersim.FlowRequest, buffersim.SimConfig],
                             ids=lambda c: c.__name__)
    def test_every_numeric_buffer_field_declares_a_range(self, cls):
        numeric = [f for f in dataclasses.fields(cls) if f.type in ("int", "float")]
        assert numeric
        for f in numeric:
            assert isinstance(f.metadata.get("range"), Range), f.name

    def test_arrival_f0(self):
        for f0 in (math.nan, 1.5, -0.1):
            with pytest.raises(ValueError, match=r"^f0 must be in \[0, 1\]$"):
                buffersim.Arrival(1, "P0", "x0", f0)


class TestCallSites:
    @pytest.mark.parametrize("args", [(math.nan, 0, 0, 0), (0, math.nan, 0, 0), (0, 0, math.nan, 0),
                                      (0, 0, 0, math.nan)])
    def test_great_circle_rejects_nan(self, args):
        with pytest.raises(ValueError, match=r"^(lat|lon)[12] must be in \[-(90|180), (90|180)\]$"):
            scenario.great_circle_km(*args)

    def test_evolve_zero_steps_is_empty(self):
        net = Network([1, 2], [(1, 2, 0.8)])
        assert evolve(net, 0.9, 0.3, 0.1, 0) == []
        assert len(evolve(net, 0.9, 0.3, 0.1, 1)) == 1

    @pytest.mark.parametrize("call,message", [
        (lambda: repeater.max_length_lattice(2, 0, 0.5), "alpha must be > 0"),
        (lambda: repeater.max_length_lattice(math.nan, 0.051, 0.5), "f must be > 0"),
        (lambda: repeater.zero_key_window(math.nan, 2, 0.7), "q must be in (0, 1]"),
        (lambda: repeater.zero_key_window(0.9, -1, 0.7), "n must be >= 0"),
        (lambda: repeater.required_f_diqkd(0.04, 25.0, 10, 0.01, 1, math.nan), "gamma must be in (0, 1]"),
        (lambda: repeater.required_f_diqkd(0.04, 25.0, 10, math.nan, 1, 0.7), "p_mem must be in [0, 1]"),
    ], ids=["lattice-alpha-0", "lattice-f-nan", "window-q-nan", "window-n-negative",
            "diqkd-gamma-nan", "diqkd-p-mem-nan"])
    def test_repeater_inputs(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    @pytest.mark.parametrize("theta", [None, math.nan, 0.0, math.pi / 2])
    def test_diqkd_theta(self, theta):
        with pytest.raises(ValueError, match=r"^DIQKD requires theta in \(0, pi/2\)$"):
            repeater.TaskSpec(repeater.TaskKind.DIQKD, theta=theta)

    @pytest.mark.parametrize("theta", [None, math.nan, 0.0, math.pi / 2])
    def test_diqkd_theta_of_the_closed_forms(self, theta):
        # the task's range is the one the closed forms that take theta check
        for call in (lambda: repeater.critical_visibility_diqkd(theta),
                     lambda: repeater.zero_key_window(0.9, 2, theta)):
            with pytest.raises(ValueError, match=r"^DIQKD requires theta in \(0, pi/2\)$"):
                call()
        assert repeater.TASK_PARAMETERS[repeater.TaskKind.DIQKD] == ("theta", repeater._THETA)


NC, CO = ng.StrategyKind.NON_COOPERATIVE, ng.StrategyKind.COOPERATIVE
# every netgraph computation that takes p_star, as f(net, p_star): the public
# ones and the batch functions the commands run
P_STAR_USERS = {
    "link_sparsity/nc": lambda net, p: ng.link_sparsity(net, p, NC),
    "link_sparsity/co": lambda net, p: ng.link_sparsity(net, p, CO),
    "_all_strengths/nc": lambda net, p: ng._all_strengths(net, NC, p),
    "_all_strengths/co": lambda net, p: ng._all_strengths(net, CO, p),
    "_direct_sums": ng._direct_sums,
    "_strong": ng._strong,
    "_best_weights": ng._best_weights,
    "total_connection_strength/co": lambda net, p: ng.total_connection_strength(net, CO, p),
    "sparsity_index/nc": lambda net, p: ng.sparsity_index(net, NC, p),
    "graph_metrics": ng.graph_metrics,
    "average_effective_weight": ng.average_effective_weight,
    "task_reachability": ng.task_reachability,
    "_neighbor_metrics": ng._neighbor_metrics,
    "centrality_all": ng.centrality_all,
    "critical_parameters": ng.critical_parameters,
    "shortest_path": lambda net, p: ng.shortest_path(net, 1, 1, p),
    "evolve": lambda net, p: ng.evolve(net, 0.9, 0.3, p, 0),
    "critically_large_check": lambda net, p: ng.critically_large_check(net, p, 0.95),
}


@pytest.mark.parametrize("p_star", [math.nan, 0.0, 1.0, 2.0])
@pytest.mark.parametrize("name", P_STAR_USERS)
def test_netgraph_rejects_p_star_outside_the_open_unit_interval(name, p_star):
    net = Network([1, 2, 3], [(1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.7)])
    with pytest.raises(ValueError, match=r"^p_star must be in \(0, 1\)$"):
        P_STAR_USERS[name](net, p_star)
