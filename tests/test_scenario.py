import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnetlim import scenario
from qnetlim.scenario import (
    AtmosphereParams,
    SatelliteYieldParams,
    YieldConvention,
    airport_yield,
    atmospheric_transmittance,
    bell_factor,
    erasure_factor,
    fiber_factor,
    great_circle_km,
    load_airport_dataset,
    memory_factor,
    route_probability,
    satellite_yield,
    source_factor,
    thermal_factor,
)

SAT_BASE = dict(
    n=2,
    eta_e=0.95,
    eta_s=0.9,
    q=0.9,
    p_mem=0.1,
    s=1,
    alpha=1 / 22,
    l_b=10.0,
    l_m=10.0,
    eta_g=0.5,
    kappa_g=0.5,
)


def sat_params(**overrides):
    return SatelliteYieldParams(**{**SAT_BASE, **overrides})


def unit_draw(rng):
    """A value in [0, 1] that is exactly 0 or 1 a fifth of the time."""
    r = rng.random()
    return 0.0 if r < 0.1 else 1.0 if r < 0.2 else rng.random()


def thermal_oracle(eta_g, kappa_g):
    return kappa_g * (kappa_g - 1.0) * (eta_g - 1.0) ** 2 + 0.5 * (1.0 + eta_g**2)


def satellite_oracle(p, convention):
    """satellite_yield as one inline closed form, apart from the memory factor."""
    mem = memory_factor(p.p_mem, p.s)
    if mem < p.eta_crit:
        return 0.0
    erasure_pow = p.n - 1 if convention is YieldConvention.DERIVATION else p.n
    out = (
        math.exp(-p.alpha * (p.l_b + p.l_m))
        * (p.eta_e**2) ** erasure_pow
        * p.eta_s ** (p.n - 1)
        * mem
        * thermal_oracle(p.eta_g, p.kappa_g)
    )
    if convention is YieldConvention.DERIVATION:
        out *= p.q ** (p.n - 1)
    return out


def airport_oracle(length_km, l0_km, q, eta_e, eta_g, kappa_g):
    n = int(length_km // l0_km)
    return q ** (n - 1) * (eta_e**2) ** (n - 1) * thermal_oracle(eta_g, kappa_g)


class TestAtmosphere:
    def make(self, **kw):
        base = dict(
            omega0=0.02,
            z_rayleigh=1000.0,
            z=20000.0,
            r=0.75,
            sigma_r=1.0,
            fresnel_ratio=1.0,
            eta=2.0,
        )
        base.update(kw)
        return AtmosphereParams(**base)

    def test_formula(self):
        p = self.make()
        pointing = p.eta**2 / (p.eta**2 + 0.25)
        diff = 1 - math.exp(
            -2 * p.r**2 * p.z_rayleigh**2 / (p.omega0**2 * (p.z**2 + p.z_rayleigh**2))
        )
        turb = 1 - math.exp(
            -2
            * p.r**2
            / (
                p.omega0**2
                * (1 + 1.33 * p.fresnel_ratio ** (5 / 6) * p.sigma_r**2)
                * (p.z**2 / p.z_rayleigh**2 + 1)
            )
        )
        assert atmospheric_transmittance(p) == pytest.approx(pointing * diff * turb, abs=1e-15)

    def test_large_aperture_saturates_to_pointing(self):
        p = self.make(r=1e6)
        want = p.eta**2 / (p.eta**2 + 0.25)
        assert atmospheric_transmittance(p) == pytest.approx(want, abs=1e-9)
        assert want == pytest.approx(0.9411765, abs=1e-6)

    def test_saturated_reference_value(self):
        # with both exponential brackets saturated only the prefactors remain
        p = self.make(r=1e6, eta=0.95, xi_r=0.99, xi_t=0.99, xi_as=0.5)
        want = 0.95**2 / (0.95**2 + 0.25) * 0.5 * 0.99**2
        got = atmospheric_transmittance(p)
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(0.3837485, abs=1e-6)

    def test_short_distance_small_aperture_also_saturates(self):
        p = AtmosphereParams(
            omega0=0.0021,
            z_rayleigh=17.8,
            z=0.0,
            r=0.1,
            sigma_r=0.1,
            fresnel_ratio=0.1,
            xi_t=0.99,
            xi_r=0.99,
            xi_as=0.5,
            eta=0.95,
        )
        assert atmospheric_transmittance(p) == pytest.approx(0.3837485, abs=1e-7)

    def test_monotone_in_aperture(self):
        vals = [atmospheric_transmittance(self.make(r=r)) for r in (0.1, 0.5, 1.0, 5.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_monotone_in_distance(self):
        vals = [atmospheric_transmittance(self.make(z=z)) for z in (1e3, 1e4, 1e5, 1e6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @given(
        st.floats(1e-3, 1.0),
        st.floats(1.0, 1e6),
        st.floats(0.0, 1e7),
        st.floats(0.0, 10.0),
        st.floats(0.0, 5.0),
        st.floats(0.01, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_bounded(self, omega0, z_r, z, r, sigma, eta):
        p = AtmosphereParams(omega0, z_r, z, r, sigma, 1.0, eta=eta)
        t = atmospheric_transmittance(p)
        assert 0.0 <= t <= 1.0

    def test_loss_prefactors_multiply(self):
        full = self.make(xi_t=0.9, xi_r=0.8, xi_as=0.7)
        clean = self.make()
        assert atmospheric_transmittance(full) == pytest.approx(
            0.9 * 0.8 * 0.7 * atmospheric_transmittance(clean), abs=1e-15
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            self.make(omega0=0.0)
        with pytest.raises(ValueError):
            self.make(xi_t=1.5)


class TestSatelliteYield:
    def test_factorization(self):
        for conv in YieldConvention:
            for n in (1, 2, 5):
                p = sat_params(n=n)
                want = (
                    fiber_factor(p.alpha, p.l_b + p.l_m)
                    * erasure_factor(p.eta_e, n, conv)
                    * source_factor(p.eta_s, n)
                    * bell_factor(p.q, n, conv)
                    * memory_factor(p.p_mem, p.s)
                    * thermal_factor(p.eta_g, p.kappa_g)
                )
                assert satellite_yield(p, conv) == pytest.approx(want, abs=1e-15)

    def test_matches_inline_oracle_bit_for_bit(self):
        rng = random.Random(10)
        got, want = [], []
        for _ in range(10_000):
            p = SatelliteYieldParams(
                n=rng.randint(1, 30), eta_e=unit_draw(rng), eta_s=unit_draw(rng),
                q=unit_draw(rng), p_mem=unit_draw(rng), s=rng.randint(0, 8),
                alpha=rng.choice((0.0, rng.uniform(0.0, 0.2))),
                l_b=rng.choice((0.0, rng.uniform(0.0, 50.0))), l_m=rng.uniform(0.0, 50.0),
                eta_g=unit_draw(rng), kappa_g=unit_draw(rng),
                eta_crit=rng.choice((0.0, unit_draw(rng))),
            )
            for conv in YieldConvention:
                got.append(satellite_yield(p, conv).hex())
                want.append(satellite_oracle(p, conv).hex())
        assert got == want

    def test_reference_point(self):
        p = sat_params(q=1.0, eta_g=0.5, kappa_g=0.5)
        assert satellite_yield(p) == pytest.approx(0.1578459, abs=1e-6)

    def test_memory_cutoff(self):
        p = sat_params(eta_crit=0.9, s=5)
        assert satellite_yield(p) == 0.0
        assert satellite_yield(sat_params(eta_crit=0.0, s=5)) > 0.0

    def test_conventions_differ_only_in_erasure_and_bell(self):
        p = sat_params(n=3)
        ratio = satellite_yield(p, YieldConvention.SUMMARY) / satellite_yield(p)
        assert ratio == pytest.approx(p.eta_e**2 / p.q ** (p.n - 1), abs=1e-12)

    def test_monotone_in_n(self):
        vals = [satellite_yield(sat_params(n=n)) for n in range(1, 8)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_thermal_factor_values(self):
        assert thermal_factor(1.0, 0.0) == pytest.approx(1.0)
        assert thermal_factor(0.5, 0.5) == pytest.approx(0.5625)
        assert thermal_factor(0.0, 1.0) == pytest.approx(0.5)

    def test_memory_factor_matches_decay(self):
        import qstate

        assert memory_factor(0.1, 3) == pytest.approx(
            qstate.depol_yield(0.1, 3)
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            sat_params(n=0)
        with pytest.raises(ValueError):
            sat_params(eta_e=1.2)


class TestAirportYield:
    def test_single_hop(self):
        got = airport_yield(1000.0, 1000.0, 0.9, 0.95, 0.5, 0.5)
        assert got == pytest.approx(thermal_factor(0.5, 0.5))

    def test_hop_count_floor(self):
        a = airport_yield(2500.0, 1000.0, 0.9, 0.95, 1.0, 0.0)
        b = airport_yield(2999.0, 1000.0, 0.9, 0.95, 1.0, 0.0)
        assert a == pytest.approx(b)
        c = airport_yield(3000.0, 1000.0, 0.9, 0.95, 1.0, 0.0)
        assert c < a

    def test_formula(self):
        got = airport_yield(5000.0, 1000.0, 0.9, 0.95, 0.5, 0.5)
        want = 0.9**4 * (0.95**2) ** 4 * thermal_factor(0.5, 0.5)
        assert got == pytest.approx(want, abs=1e-15)

    def test_matches_inline_oracle_bit_for_bit(self):
        rng = random.Random(11)
        got, want = [], []
        for _ in range(10_000):
            l0 = rng.uniform(1.0, 3000.0)
            length = rng.choice((l0, l0 * rng.uniform(1.0, 30.0)))
            args = (length, l0, unit_draw(rng), unit_draw(rng), unit_draw(rng), unit_draw(rng))
            got.append(airport_yield(*args).hex())
            want.append(airport_oracle(*args).hex())
        assert got == want

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            airport_yield(500.0, 1000.0, 0.9, 0.95, 0.5, 0.5)


class TestGeometry:
    def test_equator_degree(self):
        # one degree of longitude at the equator
        want = math.pi * scenario.EARTH_RADIUS_KM / 180.0
        assert great_circle_km(0.0, 0.0, 0.0, 1.0) == pytest.approx(want)

    def test_antipodal(self):
        assert great_circle_km(0.0, 0.0, 0.0, 180.0) == pytest.approx(
            math.pi * scenario.EARTH_RADIUS_KM
        )

    def test_symmetry_and_zero(self):
        assert great_circle_km(10.0, 20.0, 10.0, 20.0) == 0.0
        assert great_circle_km(1.359, 103.989, 40.64, -73.78) == pytest.approx(
            great_circle_km(40.64, -73.78, 1.359, 103.989)
        )

    def test_planted_pair_length(self):
        d = great_circle_km(1.359, 103.989, 40.64, -73.78)
        assert d == pytest.approx(15339.5, abs=1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            great_circle_km(95.0, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            great_circle_km(0.0, 200.0, 0.0, 0.0)


class TestRouteProbability:
    def test_regimes(self):
        assert route_probability(22.0) == pytest.approx(math.exp(-1.0))
        assert route_probability(49.999) == pytest.approx(math.exp(-49.999 / 22.0))
        assert route_probability(50.0) == 0.8
        assert route_probability(15000.0) == 0.8

    def test_short_routes_stay_above_default_threshold(self):
        # the weakest possible route is still above p* = 0.1
        assert math.exp(-scenario.SHORT_ROUTE_CUTOFF_KM / scenario.ROUTE_DECAY_KM) > 0.1


class TestDataset:
    def test_ingestion(self, airport_dataset):
        assert len(airport_dataset.airports) == 3463
        assert len(airport_dataset.routes) == 25482
        assert airport_dataset.skipped_routes == 0

    def test_routes_carry_their_length(self, airport_dataset):
        where = {a.id: (a.lat, a.lon) for a in airport_dataset.airports}
        for a, b, km in airport_dataset.routes:
            assert a < b
            assert km == great_circle_km(*where[a], *where[b])

    def test_network_shape(self, airport_network):
        assert airport_network.n_nodes == 3463
        assert airport_network.n_edges == 25482

    def test_dedup_and_skip(self, tmp_path):
        a = tmp_path / "airports.csv"
        r = tmp_path / "routes.csv"
        a.write_text("id,name,lat,lon\nX,Xport,0,0\nY,Yport,1,1\n")
        r.write_text("src_id,dst_id\nX,Y\nY,X\nX,Z\nX,X\n")
        ds = load_airport_dataset(a, r)
        assert ds.routes == (("X", "Y", great_circle_km(0.0, 0.0, 1.0, 1.0)),)
        assert ds.skipped_routes == 2

    def test_malformed_reports_line(self, tmp_path):
        a = tmp_path / "airports.csv"
        r = tmp_path / "routes.csv"
        a.write_text("id,name,lat,lon\nX,Xport,0,not-a-number\n")
        r.write_text("src_id,dst_id\n")
        with pytest.raises(ValueError, match=":2:"):
            load_airport_dataset(a, r)

    @pytest.mark.parametrize("end", ["\n", "\r", "\r\n"], ids=["lf", "cr", "crlf"])
    def test_line_ends_and_quoted_fields(self, tmp_path, end):
        # a quoted name may hold a comma or a line end; a bad record names the line it ends on
        a = tmp_path / "airports.csv"
        r = tmp_path / "routes.csv"
        records = ["id,name,lat,lon", 'X,"Xport, Zürich",0,0', f'Y,"Y{end}port",1,1']
        a.write_bytes(end.join([*records, ""]).encode())
        r.write_bytes(end.join(["src_id,dst_id", "X,Y", ""]).encode())
        ds = load_airport_dataset(a, r)
        assert [airport.name for airport in ds.airports] == ["Xport, Zürich", f"Y{end}port"]
        assert [route[:2] for route in ds.routes] == [("X", "Y")]
        a.write_bytes(end.join([*records, "Z,Zport,0,north", ""]).encode())
        with pytest.raises(ValueError, match=f"^{re.escape(str(a))}:5: malformed airport record"):
            load_airport_dataset(a, r)

    def test_duplicate_id_rejected(self, tmp_path):
        a = tmp_path / "airports.csv"
        r = tmp_path / "routes.csv"
        a.write_text("id,name,lat,lon\nX,Xport,0,0\nX,Other,1,1\n")
        r.write_text("src_id,dst_id\n")
        with pytest.raises(ValueError, match="duplicate"):
            load_airport_dataset(a, r)

    def test_route_order_independent(self, tmp_path):
        a = tmp_path / "airports.csv"
        a.write_text("id,name,lat,lon\nX,Xp,0,0\nY,Yp,1,1\nZ,Zp,2,2\n")
        r1 = tmp_path / "r1.csv"
        r2 = tmp_path / "r2.csv"
        r1.write_text("src_id,dst_id\nX,Y\nY,Z\n")
        r2.write_text("src_id,dst_id\nZ,Y\nY,X\n")
        d1 = load_airport_dataset(a, r1)
        d2 = load_airport_dataset(a, r2)
        assert set(d1.routes) == set(d2.routes)


class TestAirportReport:
    def test_summary_statistics(self, airport_summary):
        report, elapsed = airport_summary
        assert report.n_nodes == 3463
        assert report.n_edges == 25482
        assert report.longest_route_km == pytest.approx(15339.5, abs=1.0)
        assert set(report.longest_route_pair) == {"A0000", "A0001"}
        assert report.mean_route_km == pytest.approx(1954.9, abs=1.0)
        assert report.link_sparsity == pytest.approx(0.99575, abs=0.001)
        assert len(report.top_critical_airports) == 10
        assert elapsed < 60.0

    def test_ranking_descending(self, airport_summary):
        report, _ = airport_summary
        from qnetlim.netgraph import Undefined

        vals = [
            r.critical_parameter
            for r in report.top_critical_airports
            if not isinstance(r.critical_parameter, Undefined)
        ]
        assert vals == sorted(vals, reverse=True)

    @pytest.mark.parametrize("routes, pair", [
        ("A,B\nC,D\n", ("A", "B")),
        ("D,C\nB,A\n", ("C", "D")),
    ])
    def test_longest_tie_goes_to_first_route(self, tmp_path, routes, pair):
        # four airports a degree apart on the equator: both routes are one degree long
        a = tmp_path / "airports.csv"
        r = tmp_path / "routes.csv"
        a.write_text("id,name,lat,lon\nA,Ap,0,0\nB,Bp,0,1\nC,Cp,0,2\nD,Dp,0,3\n")
        r.write_text("src_id,dst_id\n" + routes)
        report = scenario.airport_report(load_airport_dataset(a, r))
        assert report.longest_route_pair == pair
        assert report.longest_route_km == great_circle_km(0.0, 0.0, 0.0, 1.0)

    def test_requires_routes(self):
        airports = (scenario.Airport("X", "Xport", 0.0, 0.0), scenario.Airport("Y", "Yport", 1.0, 1.0))
        with pytest.raises(ValueError, match="no routes"):
            scenario.airport_report(scenario.AirportDataset(airports, ()))
