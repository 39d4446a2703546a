import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qstate
from qstate import (
    BellKind,
    Depolarizing,
    Thermal,
    TwoQubitState,
    apply_pair_channel,
    bell_swap,
    concurrence,
    correlation_matrix,
    depol_yield,
    fidelity_psi_plus,
    horodecki_measures,
    isotropic_separable,
    kraus_completeness_defect,
    make_bell,
    make_isotropic,
    teleport_fidelity,
    thermal_yield,
)
from qnetlim.buffersim import DecayMode, decayed_fidelity
from qnetlim.repeater import (
    EntanglementMode,
    TaskKind,
    TaskSpec,
    critical_probability,
    max_repeaters,
)


def random_density_matrix(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = a @ a.conj().T
    return TwoQubitState(m / np.trace(m).real)


class TestStates:
    def test_bell_states_orthonormal(self):
        vecs = [make_bell(k).matrix for k in BellKind]
        for i, a in enumerate(vecs):
            for j, b in enumerate(vecs):
                overlap = np.trace(a @ b).real
                assert overlap == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)

    def test_bell_convention(self):
        # psi states live on the {|00>, |11>} block, phi on {|01>, |10>}
        psi = make_bell(BellKind.PSI_PLUS).matrix
        assert psi[0, 0] == pytest.approx(0.5)
        assert psi[0, 3] == pytest.approx(0.5)
        phi = make_bell(BellKind.PHI_MINUS).matrix
        assert phi[1, 1] == pytest.approx(0.5)
        assert phi[1, 2] == pytest.approx(-0.5)

    def test_isotropic_fidelity(self):
        assert fidelity_psi_plus(make_isotropic(0.6)) == pytest.approx((1 + 3 * 0.6) / 4)

    def test_validation(self):
        with pytest.raises(ValueError):
            TwoQubitState(np.eye(4))  # trace 4
        with pytest.raises(ValueError):
            TwoQubitState(np.diag([1.5, -0.5, 0.0, 0.0]))
        with pytest.raises(ValueError):
            make_isotropic(1.2)
        with pytest.raises(ValueError, match=r"^expected a 4x4 matrix, got shape \(2, 2\)$"):
            TwoQubitState(np.eye(2) / 2)
        skew = np.eye(4) / 4
        skew[0, 1] = 0.1
        with pytest.raises(ValueError, match="^density matrix is not Hermitian$"):
            TwoQubitState(skew)


class TestChannels:
    @pytest.mark.parametrize(
        "channel",
        [Depolarizing(0.3), Depolarizing(4 / 3), Thermal(0.9, 0.3)],
    )
    def test_kraus_completeness(self, channel):
        assert kraus_completeness_defect(channel) < 1e-12

    def test_param_ranges(self):
        with pytest.raises(ValueError):
            Depolarizing(1.4)
        with pytest.raises(ValueError):
            Thermal(1.2, 0.0)

    def test_depol_pair_preserves_trace(self):
        rng = np.random.default_rng(7)
        st0 = random_density_matrix(rng)
        out = apply_pair_channel(st0, Depolarizing(0.25))
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-12)


class TestYields:
    # the published yield, depol_yield, against the iterated channel's closed
    # form, which lives in buffersim.decayed_fidelity
    def test_modes_agree_small_n(self):
        for p in np.linspace(0.0, 1.0, 11):
            for n in (0, 1, 2):
                a = depol_yield(p, n)
                b = decayed_fidelity(1.0, p, n, DecayMode.ITERATED)
                assert a == pytest.approx(b, abs=1e-12)

    def test_modes_split_at_three(self):
        assert depol_yield(0.1, 3) == pytest.approx(0.641271, abs=1e-6)
        assert decayed_fidelity(1.0, 0.1, 3, DecayMode.ITERATED) == pytest.approx(0.648581, abs=1e-6)

    def test_iterated_matches_kraus(self):
        for p in (0.0, 0.1, 0.5, 1.0):
            state = make_bell(BellKind.PSI_PLUS)
            for n in range(5):
                got = decayed_fidelity(1.0, p, n, DecayMode.ITERATED)
                assert fidelity_psi_plus(state) == pytest.approx(got, abs=1e-10)
                state = apply_pair_channel(state, Depolarizing(p))

    @pytest.mark.parametrize("f0", [0.25, 0.4, 0.5, 0.7, 0.9, 0.99])
    def test_iterated_decay_from_any_fidelity_matches_kraus(self, f0):
        # buffer pairs inserted below fidelity 1 decay by decayed_fidelity(f0, ...):
        # the isotropic state of fidelity f0 has visibility (4 f0 - 1) / 3
        for p in (0.0, 0.05, 0.1, 0.5, 1.0):
            state = make_isotropic((4 * f0 - 1) / 3)
            for s in range(6):
                got = decayed_fidelity(f0, p, s, DecayMode.ITERATED)
                assert fidelity_psi_plus(state) == pytest.approx(got, abs=1e-10), (f0, p, s)
                state = apply_pair_channel(state, Depolarizing(p))

    def test_thermal_matches_kraus(self):
        for eta_g in (0.0, 0.25, 0.5, 0.75, 1.0):
            for kappa_g in (0.0, 0.25, 0.5, 0.75, 1.0):
                out = apply_pair_channel(
                    make_bell(BellKind.PSI_PLUS), Thermal(eta_g, kappa_g)
                )
                assert fidelity_psi_plus(out) == pytest.approx(
                    thermal_yield(eta_g, kappa_g), abs=1e-10
                )

    def test_reexported_from_yields(self):
        from qnetlim import yields

        assert qstate.depol_yield is yields.depol_yield
        assert qstate.thermal_yield is yields.thermal_yield

    @pytest.mark.parametrize("eta_g,kappa_g,bad", [(1.2, 0.0, "eta_g"), (0.5, -0.1, "kappa_g"),
                                                   (math.nan, 0.5, "eta_g")])
    def test_thermal_range_shared_with_channel(self, eta_g, kappa_g, bad):
        for build in (thermal_yield, Thermal):
            with pytest.raises(ValueError, match=f"^{bad} must be in \\[0, 1\\]"):
                build(eta_g, kappa_g)


class TestSwap:
    def test_isotropic_composition(self):
        out = bell_swap(make_isotropic(0.9), make_isotropic(0.8), 0.95)
        assert out.corrected_visibility == pytest.approx(0.95 * 0.9 * 0.8, abs=1e-10)
        expected = make_isotropic(0.95 * 0.9 * 0.8).matrix
        assert np.abs(out.corrected_state.matrix - expected).max() < 1e-10

    def test_branch_structure(self):
        lam1, lam2, q = 0.85, 0.7, 0.9
        out = bell_swap(make_isotropic(lam1), make_isotropic(lam2), q)
        assert sum(b.probability for b in out.branches) == pytest.approx(1.0, abs=1e-12)
        assert len(out.branches) == 5
        for branch in out.branches[:4]:
            assert branch.probability == pytest.approx(q / 4, abs=1e-12)
            bell = make_bell(BellKind(branch.outcome_label)).matrix
            want = lam1 * lam2 * bell + (1 - lam1 * lam2) * np.eye(4) / 4
            assert np.abs(branch.post_state.matrix - want).max() < 1e-10
        fail = out.branches[4]
        assert fail.outcome_label == qstate.FAILURE_LABEL
        assert fail.probability == pytest.approx(1 - q, abs=1e-12)

    @given(
        st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0)
    )
    @settings(max_examples=25, deadline=None)
    def test_visibility_product_property(self, lam1, lam2, q):
        out = bell_swap(make_isotropic(lam1), make_isotropic(lam2), q)
        assert out.corrected_visibility == pytest.approx(q * lam1 * lam2, abs=1e-9)


class TestMeasures:
    def test_isotropic_closed_forms(self):
        for lam in (0.0, 0.3, 0.6, 1.0):
            m = horodecki_measures(make_isotropic(lam))
            assert m.N == pytest.approx(3 * lam, abs=1e-10)
            assert m.M == pytest.approx(2 * lam**2, abs=1e-10)
            assert concurrence(make_isotropic(lam)) == pytest.approx(
                max(0.0, (3 * lam - 1) / 2), abs=1e-8
            )

    def test_correlation_matrix_psi_plus(self):
        t = correlation_matrix(make_bell(BellKind.PSI_PLUS))
        assert np.allclose(t, np.diag([1.0, -1.0, 1.0]), atol=1e-12)

    def test_teleport_fidelity(self):
        tf = teleport_fidelity(1.0)
        assert tf.quantum == pytest.approx(1.0)
        assert tf.classical == pytest.approx(2 / 3)
        assert teleport_fidelity(0.5, d=2).quantum == pytest.approx(2 / 3)

    def test_separability_threshold(self):
        assert isotropic_separable(1 / 3)
        assert not isotropic_separable(0.34)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10_000))
    def test_measures_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        state = random_density_matrix(rng)
        m = horodecki_measures(state)
        assert m.N >= -1e-10
        assert m.M >= -1e-10
        assert concurrence(state) >= 0.0


def _bracket(gamma):
    """Visibilities just below and just above gamma."""
    return gamma * (1 - 1e-9), gamma * (1 + 1e-9)


def _singlet_fraction(lam, d):
    """Singlet fraction (lam (d^2 - 1) + 1) / d^2 of the d x d isotropic state."""
    return (lam * (d * d - 1) + 1) / (d * d)


class TestThresholdOracle:
    """Each repeater threshold, read from TaskSpec, checked on isotropic states."""

    def test_chsh_threshold_is_horodecki_m(self):
        # Horodecki, Horodecki & Horodecki, Phys. Lett. A 200, 340 (1995): M > 1
        below, above = _bracket(TaskSpec(TaskKind.CHSH).threshold())
        assert horodecki_measures(make_isotropic(below)).M < 1
        assert horodecki_measures(make_isotropic(above)).M > 1

    @pytest.mark.parametrize("task", [TaskSpec(TaskKind.TELEPORTATION),
                                      TaskSpec(TaskKind.ENTANGLEMENT)],
                             ids=["teleportation", "entanglement"])
    def test_one_third_thresholds(self, task):
        below, above = _bracket(task.threshold())
        for lam, useful in ((below, False), (above, True)):
            state = make_isotropic(lam)
            tf = teleport_fidelity(fidelity_psi_plus(state))
            assert isotropic_separable(lam) is not useful
            assert (concurrence(state) > 0) is useful
            assert (horodecki_measures(state).N > 1) is useful
            assert (tf.quantum > tf.classical) is useful

    def test_entanglement_threshold_exact(self):
        # feasible means lam > gamma; the oracle agrees at float resolution
        gamma = TaskSpec(TaskKind.ENTANGLEMENT).threshold()
        for lam in (math.nextafter(gamma, 0), gamma, math.nextafter(gamma, 1)):
            assert (lam > gamma) is not isotropic_separable(lam)

    @pytest.mark.parametrize("d", range(2, 9))
    def test_critical_probability(self, d):
        # Horodecki & Horodecki, PRA 59, 4206 (1999): separable iff p <= 1/d
        p_c = critical_probability(TaskKind.ENTANGLEMENT, d)
        lam_c = (d * d * p_c - 1) / (d * d - 1)
        below, above = _bracket(lam_c)
        assert isotropic_separable(below, d)
        assert not isotropic_separable(above, d)
        p_c = critical_probability(TaskKind.TELEPORTATION, d)
        below, above = _bracket(p_c)
        assert teleport_fidelity(below, d).quantum < teleport_fidelity(below, d).classical
        assert teleport_fidelity(above, d).quantum > teleport_fidelity(above, d).classical
        # both bounds are strict: at exactly 1/d neither task succeeds
        assert teleport_fidelity(p_c, d).quantum <= teleport_fidelity(p_c, d).classical

    @pytest.mark.parametrize("d", [3, 7])
    def test_critical_probability_strict(self, d):
        # lam = 1/(d + 1) is a float here, and its singlet fraction is 1/d
        lam = 1 / (d + 1)
        p_c = critical_probability(TaskKind.ENTANGLEMENT, d)
        assert _singlet_fraction(lam, d) == p_c
        assert isotropic_separable(lam, d)
        assert not isotropic_separable(math.nextafter(lam, 1), d)

    def test_separable_exact(self):
        # the seven floats nearest 1/(d + 1), judged by p <= 1/d in exact arithmetic
        for d in range(2, 200):
            lams = [1 / (d + 1)]
            for _ in range(3):
                lams = [math.nextafter(lams[0], 0), *lams, math.nextafter(lams[-1], 1)]
            for lam in lams:
                exact = _singlet_fraction(Fraction(lam), d) <= Fraction(1, d)
                assert isotropic_separable(lam, d) is exact, (d, lam)

    @pytest.mark.parametrize("lam", [0.16, 0.2, 0.3, 1 / 3])
    def test_appendix_h_mode_below_one_third(self, lam):
        # paper-appendix-h accepts a direct link the oracle finds separable
        task = TaskSpec(TaskKind.ENTANGLEMENT, entanglement_mode=EntanglementMode.PAPER_APPENDIX_H)
        assert task.threshold() < lam
        assert max_repeaters(lam, 1.0, task) == 0
        assert isotropic_separable(lam)
        assert concurrence(make_isotropic(lam)) == 0
