import dataclasses
import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import qstatwork as qw
import qstatwork.dynamics as dyn
from qstatwork.analytics import _weights, _x_at
from qstatwork.dynamics import (
    PropagatorConfig,
    _build_sectors,
    _product_factor,
    _sector_thermal,
    _split_evolve,
    adiabaticity_witness,
    default_dt_cap,
    run_cycle,
    run_cycles,
)
from qstatwork.errors import ConfigError, PropagationError

from oracles import (
    WORK_ROUNDING_FLOOR,
    DickeSector,
    FullProduct,
    dense_cycle,
    dense_strang_steps,
    engine_hamiltonian,
    gibbs,
    kick,
    landau_zener_propagator,
    midpoint_su2_product_mp,
    reduced_engine,
    reduced_system,
    reset,
    spin_ops,
    su2_chain_per_level_pad,
)

T = 20.0
OMEGA = 2 * math.pi * 0.05 / T


def dense(R, lam):
    """The Gibbs block R diag(lam) R^dag of a factored (R, lam)."""
    return (R * lam) @ R.conj().T


def engine(N, delta=0.0, v=0.1):
    e0 = math.hypot(1.0, delta)
    eh = math.hypot(1.0 + v * T / 2, delta)
    return qw.EngineParams(N=N, Omega0=1.0, Delta=delta, v=v, T=T,
                           beta_c=2.0 / e0, beta_h=0.25 / eh)


def ho(dim=10):
    return qw.harmonic_system(OMEGA, dim)


IMPULSE = qw.Impulse(g=0.01, t1=0.35 * T / 2, T=T)
# a coupling interpolated on a coarse grid: no two steps see the same g
SAMPLED = qw.Sampled(times=np.linspace(0.0, T, 41),
                     values=np.random.default_rng(5).uniform(0.2, 0.6, 41))
BOSE = qw.Statistics.BOSE
DIST = qw.Statistics.DISTINGUISHABLE
# magnitudes within 1e+-100, where N max_t E_t and 0.01 over it stay
# inside the float range
SCALE = st.floats(-100.0, 100.0).map(lambda e: 10.0 ** e)
SIGNED = SCALE | SCALE.map(lambda x: -x) | st.just(0.0)

# CHAIN_DIM settings that force every stepped sector onto one path of
# _split_evolve: all composites stepped, or all multiplied per sample block
PATHS = {"stepped": 0, "blocks": 10**6}

# Gaps of run_cycle from the dense whole-cycle oracle (oracles.dense_cycle)
# at the run's own steps, on the oracle cases below.  The two share no
# propagator, so they part by rounding, which grows with the step count.
# Measured worst: kicks (up to 373 engine steps, N <= 6) 2.2e-14 relative
# work and 1.7e-15 absolute p_excite; smooth cycles (300-932 Strang steps
# on D <= 96) 2.0e-12 and 1.9e-14, as the populations round at ~1e-14 and
# the work is ~1e-2.  Both oracles multiply their steps first; stepping
# the state instead moved the smooth worst by 1% (1.9e-12 and 1.8e-14), so
# that gap is the run's rounding, not the oracle's.
ORACLE_BOUNDS = {
    "kick": {"work": 1e-13, "p_excite": 1e-14},
    "smooth": {"work": 1e-11, "p_excite": 1e-13},
}
ORACLE_SYSTEM = qw.harmonic_system(1.3, 8)
ORACLE_KICKS = {t1: qw.Impulse(g=0.1, t1=t1, T=2.0) for t1 in (0.35, 1.4)}   # T/2 = 1
ORACLE_PLATEAU = qw.SmoothPlateau(g=0.05, delta_t=0.9, alpha=400.0, T=2.0)
STATS = (qw.Statistics.BOSE, DIST)

# Smooth cycles of even N against the dense oracle also compare the final
# state, whose coherences the spin-0 blocks' closed-form phases move:
# measured worst 2.2e-13 absolute on the smooth oracle cases.
EVEN_N_BOUNDS = {**ORACLE_BOUNDS["smooth"], "rho": 5e-12}


def oracle_engine(N, delta):
    return qw.EngineParams(N=N, Omega0=1.0, Delta=delta, v=0.5, T=2.0,
                           beta_c=2.0, beta_h=0.125)


@pytest.fixture(scope="module")
def oracle_gaps():
    """gaps(N, delta, schedule, stats, res, system): relative avg_work and
    absolute p_excite and final-state gaps of the result res, by default
    of run_cycle, from dense_cycle on DickeSector(N) (Bose) or
    FullProduct(N) (distinguishable); of a kick only the populations are
    the run's.  dense_cycle runs once per (N, delta, schedule, engine
    space, system) at the first run's step counts (the step rule does not
    read the statistics)."""
    states = {}

    def gaps(N, delta, schedule, stats, res=None, system=ORACLE_SYSTEM):
        p = oracle_engine(N, delta)
        if res is None:
            res = run_cycle(p, schedule, system, stats)
        kind = DickeSector(N) if stats is qw.Statistics.BOSE else FullProduct(N)
        key = (N, delta, schedule, kind, system)
        if key not in states:
            states[key] = dense_cycle(p, schedule, system, kind, res.diagnostics)
        pops = np.diagonal(states[key]).real
        work = float(system.energies @ pops)
        p_excite = res.work.p_excite
        return {"work": abs(res.work.avg_work - work) / work,
                "p_excite": max(abs(p_excite[i] - pops[i]) for i in p_excite),
                "rho": float(np.max(np.abs(res.final_state - states[key])))}

    return gaps


class TestDecoupledCycle:
    def test_zero_coupling_keeps_ground_state(self):
        sched = qw.Impulse(g=0.0, t1=0.35 * T / 2, T=T)
        res = run_cycle(engine(3, 0.7), sched, ho(), BOSE)
        assert res.work.avg_work < 1e-15
        assert all(p < 1e-14 for p in res.work.p_excite.values())
        sched2 = qw.SmoothPlateau(g=0.0, delta_t=0.9, alpha=2142.0 / T, T=T)
        res2 = run_cycle(engine(2, 0.0), sched2, ho(6), BOSE)
        assert res2.work.avg_work < 1e-14


class TestApplyImpulse:
    """The oracle's kick exp(-i g V_R (x) V_S) on dense Dicke states, and
    the cycle's kick against it."""

    def _state(self, N=2, dim=6, delta=0.6):
        p = engine(N, delta)
        rho_e = gibbs(engine_hamiltonian(p, 0.0, DickeSector(N)), p.beta_c)
        rho_s = np.zeros((dim, dim), dtype=complex)
        rho_s[0, 0] = 1.0
        return np.kron(rho_e, rho_s), p

    def test_zero_kick_identity(self):
        state, p = self._state()
        out = kick(state, 0.0, 2 * spin_ops(DickeSector(2))[0], ho(6).V_S)
        assert np.max(np.abs(out - state)) < 1e-14

    def test_second_order_excitation(self):
        # p_1 from the kick matches g^2 <V_R^2> |<1|V_S|0>|^2 to O(g^4)
        state, p = self._state(N=3, delta=0.0)
        g = 0.01
        out = kick(state, g, 2 * spin_ops(DickeSector(3))[0], ho(6).V_S)
        p1 = float(reduced_system(out, 4)[1, 1].real)
        x = p.beta_c * float(p.energy(0.0))
        m2 = 3 * 5 / 2 - 2 * qw.moment_f(3, x)
        assert abs(p1 - g ** 2 * m2) < 10 * g ** 4 * m2 ** 2

    def test_kick_composition(self):
        state, _ = self._state()
        v_r, v_s = 2 * spin_ops(DickeSector(2))[0], ho(6).V_S
        once = kick(state, 0.3, v_r, v_s)
        twice = kick(kick(state, 0.15, v_r, v_s), 0.15, v_r, v_s)
        assert np.max(np.abs(once - twice)) < 1e-13

    def test_matches_run_cycle_kick(self):
        # at Delta = 0 the free evolution commutes with the thermal engine
        # state and leaves the system populations alone, so the cycle's kick
        # and the oracle's kick on the initial state give the same p_1
        state, p = self._state(N=2, delta=0.0)
        out = kick(state, IMPULSE.g, 2 * spin_ops(DickeSector(2))[0], ho(6).V_S)
        p1 = float(reduced_system(out, 3)[1, 1].real)
        cycle = run_cycle(p, IMPULSE, ho(6), BOSE).work.p_excite[1]
        assert abs(cycle - p1) < 1e-10 * p1


class TestThermalReset:
    """The oracle's reset rho -> Gibbs(beta, H_E) (x) Tr_E rho, and the
    cycle's Gibbs blocks against its dense Gibbs states."""

    def _composite(self, N=2, dim=5):
        p = engine(N, 0.4)
        H = engine_hamiltonian(p, T / 2, DickeSector(N))
        rho_e = gibbs(H, p.beta_h)
        rng = np.random.default_rng(5)
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        sig = a @ a.conj().T
        sig /= np.trace(sig).real
        return np.kron(rho_e, sig), H, p, sig

    def test_idempotent_on_product_gibbs(self):
        state, H, p, _ = self._composite()
        out = reset(state, H, p.beta_h)
        assert np.max(np.abs(out - state)) < 1e-12

    def test_engine_marginal_is_gibbs(self):
        state, H, p, sig = self._composite()
        out = reset(state, H, p.beta_h)
        assert np.max(np.abs(reduced_engine(out, 3) - gibbs(H, p.beta_h))) < 1e-12
        assert np.max(np.abs(reduced_system(out, 3) - sig)) < 1e-12

    def test_cycle_gibbs_blocks_match_thermal_state(self):
        # run_cycle resets to kron(block, sigma_S) over the analytic
        # per-sector Gibbs blocks of _sector_thermal, kept factored as
        # R diag(lam) R^dag; pin them to the dense Gibbs states of the
        # oracle's reset.
        for delta in (0.0, 0.4):
            p = engine(3, delta)
            for t0, beta in ((0.0, p.beta_c), (T / 2, p.beta_h)):
                (block,) = _sector_thermal(_build_sectors(p, qw.Statistics.BOSE), p, t0)
                ref = gibbs(engine_hamiltonian(p, t0, DickeSector(3)), beta)
                assert np.max(np.abs(dense(*block) - ref)) < 1e-13
                # distinguishable: the 2^N Gibbs state is the direct sum of
                # exp(-beta H_j) / Z over the spin-j blocks, each repeated by
                # its multiplicity.  Each block is the spin-j Gibbs state up
                # to its weight, and together their weights lam carry the
                # 2^N spectrum.
                sectors = _build_sectors(p, qw.Statistics.DISTINGUISHABLE)
                blocks = _sector_thermal(sectors, p, t0)
                for s, (R, lam) in zip(sectors, blocks):
                    assert dyn._isometry_drift(R) < 1e-14
                    ref = gibbs(engine_hamiltonian(p, t0, DickeSector(s.dim - 1)), beta)
                    assert np.max(np.abs(dense(R, lam) / lam.sum() - ref)) < 1e-13
                spec = np.concatenate([np.repeat(lam, int(s.mult))
                                       for s, (_, lam) in zip(sectors, blocks)])
                ref = gibbs(engine_hamiltonian(p, t0, FullProduct(3)), beta)
                assert np.max(np.abs(np.sort(spec) - np.linalg.eigvalsh(ref))) < 1e-13

    def test_correlator_factorizes_across_reset(self):
        # channel structure: <A R(B rho)> = <A>_gibbs <B>_rho exactly
        p = engine(3, 0.8)
        rho0 = gibbs(engine_hamiltonian(p, 0.0, DickeSector(3)), p.beta_c)
        hot = gibbs(engine_hamiltonian(p, T / 2, DickeSector(3)), p.beta_h)
        v = 2 * spin_ops(DickeSector(3))[0]
        lhs = np.trace(v @ hot) * np.trace(v @ rho0)
        # the replacement map sends X -> gibbs tr[X]
        rhs = np.trace(v @ hot * np.trace(v @ rho0))
        assert abs(lhs - rhs) < 1e-12

    def test_reset_factor_matches_single_avg(self):
        # each factor of the factorized correlator equals the adiabatic
        # one-time average cos(theta_t) a of `_weights` within the adiabatic
        # error at the fig2a sweep speed
        p = engine(3, 1.4)
        from oracles import DickeAdiabaticOracle

        oracle = DickeAdiabaticOracle(p)
        for (t, t0, beta) in ((3.0, 0.0, p.beta_c), (14.0, T / 2, p.beta_h)):
            exact = oracle.one_time(t, t0, beta)
            a = _weights(p.N, _x_at(p, t0), qw.Statistics.BOSE)[0]
            adiab = float(p.cos_theta(t)) * float(a)
            assert abs(exact - adiab) < 0.05 * max(abs(exact), 1e-3)


class TestRunCycleImpulse:
    def test_matches_analytic_enhancement(self):
        for N in (2, 5, 8):
            for delta in (0.0, 1.4):
                pb = engine(N, delta)
                rb = run_cycle(pb, IMPULSE, ho(), BOSE)
                rd = run_cycle(pb, IMPULSE, ho(), DIST)
                ana, _, _ = qw.enhancement(pb, IMPULSE, ho())
                num = rb.work.avg_work / rd.work.avg_work
                assert abs(num - ana) < 0.02 * ana

    def test_kick_in_second_stroke(self):
        late = qw.Impulse(g=0.01, t1=T / 2 + 0.35 * T / 2, T=T)
        p = engine(3, 0.0)
        res = run_cycle(p, late, ho(), BOSE)
        rec = qw.impulse_work(p, late, ho(), qw.Statistics.BOSE)
        assert abs(res.work.avg_work - rec.avg_work) < 0.02 * rec.avg_work

    def test_n1_statistics_identical(self):
        p = engine(1, 1.4)
        rb = run_cycle(p, IMPULSE, ho(), BOSE)
        rd = run_cycle(p, IMPULSE, ho(), DIST)
        assert abs(rb.work.avg_work - rd.work.avg_work) < 1e-10

    def test_blocked_equals_full(self, oracle_gaps):
        # N = 5, 6: spin blocks held up to 9 times against the whole 2^N
        # space, kicked densely; at Delta = 0 the oracle takes no engine
        # step, at Delta = 0.4 the run lifts the Gibbs tilt and the engine
        # chain onto every block
        for N in (5, 6):
            for delta in (0.0, 0.4):
                for schedule in ORACLE_KICKS.values():
                    gaps = oracle_gaps(N, delta, schedule, DIST)
                    assert all(gaps[k] <= b for k, b in ORACLE_BOUNDS["kick"].items()), \
                        (N, delta, schedule.t1, gaps)

    def test_blocked_negative_control(self, monkeypatch, oracle_gaps):
        # the spin-3/2 block of N = 5 held 5 times, not 4: its weight in the
        # stacked mixture is off
        oracle_gaps(5, 0.4, ORACLE_KICKS[0.35], DIST)      # the oracle, before the fault
        multiplicity = dyn._block_multiplicity
        monkeypatch.setattr(dyn, "_block_multiplicity", lambda N, k: multiplicity(N, k) + (k == 1))
        gaps = oracle_gaps(5, 0.4, ORACLE_KICKS[0.35], DIST)
        assert gaps["work"] > 1e3 * ORACLE_BOUNDS["kick"]["work"], gaps

    def test_diagnostics_bounds(self):
        res = run_cycle(engine(4, 1.4), IMPULSE, ho(), BOSE)
        d = res.diagnostics
        assert d["trace_drift"] < 1e-10
        assert d["herm_drift"] < 1e-10
        assert d["isometry_drift"] < 1e-10
        assert d["unitarity_residual"] < 1e-10
        assert d["leakage"] < 1e-6
        assert d["sectors"] == [[5, 1]]
        # the engine chain up to the kick at t1 (first stroke)
        assert d["n_engine_steps"] > 1000
        assert d["dt"] * d["n_engine_steps"] == pytest.approx(IMPULSE.t1, rel=1e-12)
        d0 = run_cycle(engine(4, 0.0), IMPULSE, ho(), BOSE).diagnostics
        assert d0["n_engine_steps"] == 0 and d0["dt"] is None     # closed-form phase


class TestRunCycleSmooth:
    PLATEAU = qw.SmoothPlateau(g=0.01, delta_t=0.9, alpha=2142.0 / T, T=T)
    STRONG = qw.SmoothPlateau(g=0.5, delta_t=0.9, alpha=2142.0 / T, T=T)

    def test_matches_perturbative_forms(self):
        # Dicke-sector run against the collective closed-form assembly and the
        # genuine 2^N product space against its own closed form, Delta != 0
        p = engine(3, 0.7)
        res = run_cycle(p, self.PLATEAU, ho(8), BOSE)
        ana = qw.general_work(p, self.PLATEAU, ho(8), BOSE)
        assert abs(res.work.avg_work - ana.avg_work) < 0.02 * ana.avg_work

        resd = run_cycle(p, self.PLATEAU, ho(8), DIST)
        anad = qw.general_work(p, self.PLATEAU, ho(8), DIST)
        assert abs(resd.work.avg_work - anad.avg_work) < 0.02 * anad.avg_work

    def test_blocked_equals_full_smooth(self, oracle_gaps):
        # N = 3: the spin-1/2 block, held twice, against the whole 2^N space
        gaps = oracle_gaps(3, 0.4, ORACLE_PLATEAU, DIST)
        assert all(gaps[k] <= b for k, b in ORACLE_BOUNDS["smooth"].items()), gaps

    # N = 4 on a system of dim 6: the dense steps on 2^4 x 6 take 4.5 s,
    # on 2^4 x 8 about 10 s
    @pytest.mark.parametrize("N, delta, system", [
        (2, 0.0, ORACLE_SYSTEM), (2, 0.7, ORACLE_SYSTEM),
        (4, 0.0, qw.harmonic_system(1.3, 6)),
    ], ids=["2-0.0", "2-0.7", "4-0.0"])
    def test_even_n_blocked_matches_full(self, oracle_gaps, N, delta, system):
        # the spin-0 blocks of even N evolve in closed form; the dense
        # oracle steps the whole 2^N space
        res = run_cycle(oracle_engine(N, delta), ORACLE_PLATEAU, system, DIST)
        gaps = oracle_gaps(N, delta, ORACLE_PLATEAU, DIST, res, system)
        assert all(gaps[key] <= bound for key, bound in EVEN_N_BOUNDS.items()), gaps
        d = res.diagnostics
        assert d["sectors"][-1] == [1, N // 2]                 # spin 0, still listed
        assert d["split_steps"] == 2 * d["n_steps_per_half"] * N // 2

    @pytest.mark.parametrize("free_evolve, key", [
        # free phase sign flipped
        (lambda y, eps, t: y * np.exp(1j * np.multiply.outer(t, eps))[:, None, None], "rho"),
        # spin-0 sector dropped
        (lambda y, eps, t: np.zeros((t.size, *y.shape), complex), "work"),
    ])
    def test_even_n_negative_controls(self, monkeypatch, oracle_gaps, free_evolve, key):
        oracle_gaps(2, 0.7, ORACLE_PLATEAU, DIST)          # the oracle, before the fault
        monkeypatch.setattr(dyn, "_free_evolve", free_evolve)
        gaps = oracle_gaps(2, 0.7, ORACLE_PLATEAU, DIST)
        assert gaps[key] > 1e3 * EVEN_N_BOUNDS[key], gaps
        if key == "rho":     # a phase moves only the coherences of sigma_S
            assert gaps["p_excite"] <= EVEN_N_BOUNDS["p_excite"], gaps

    def test_dt_above_cap_rejected(self):
        p = engine(2, 0.0)
        cap = default_dt_cap(p, ho(6))
        with pytest.raises(ConfigError):
            run_cycle(p, self.PLATEAU, ho(6), BOSE, config=PropagatorConfig(dt=2 * cap))

    @pytest.mark.parametrize("schedule", [PLATEAU, IMPULSE], ids=["smooth", "impulse"])
    def test_step_count_beyond_float_rejected(self, schedule):
        # N max_t E_t = 1e308 is finite, but its cap 1e-310 spans T/2 in
        # more steps than a float counts: an OverflowError at ceil() before
        p = qw.EngineParams(N=1, Omega0=1e308, Delta=0.0, v=0.0, T=T, beta_c=2.0, beta_h=1.0)
        with pytest.raises(ConfigError, match="more steps than a float can count"):
            run_cycle(p, schedule, ho(4), BOSE)

    @given(N=st.integers(1, 60), omega0=SIGNED, delta=SCALE | st.just(0.0), v=SIGNED,
           period=SCALE, gapless=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_default_cap_finite_and_positive(self, N, omega0, delta, v, period, gapless):
        # EngineParams keeps the drive finite and N max(E_0, E_{T/2}) > 0, so
        # the rule needs no fallback, even for a system without a gap
        try:
            p = qw.EngineParams(N=N, Omega0=omega0, Delta=delta, v=v, T=period, beta_c=1.0,
                                beta_h=0.5)
        except ValueError:
            assume(False)
        system = qw.ExternalSystem(energies=[0.0], V_S=[[1.0]]) if gapless else ho(6)
        assert 0 < default_dt_cap(p, system) < math.inf

    def test_halving_dt_reduces_error(self):
        # The Fig.-3 coupling g = 0.5 on dimension 16 puts the splitting
        # error (|w1 - w4| ~ 5e-10 here, 4.4e-10 at Delta = 0, where the step
        # is second order too) far above the rounding floor; on the weak
        # g = 0.01 plateau on dimension 8 it stays below that floor
        # (|w1 - w4| ~ 7e-17 at Delta = 0), where the ratio below would
        # mean nothing.
        p = engine(2, 0.4)
        sysho = ho(16)
        cap = default_dt_cap(p, sysho)
        w = {}
        for f in (1, 2, 4):
            res = run_cycle(p, self.STRONG, sysho, BOSE, config=PropagatorConfig(dt=cap / f))
            w[f] = res.work.avg_work
        err1, err2 = abs(w[1] - w[4]), abs(w[2] - w[4])
        detail = (f"w1 {w[1]!r}, w2 {w[2]!r}, w4 {w[4]!r}: ratio {err1 / err2:.3f}, "
                  f"|w1 - w4| {err1:.2e}")
        assert err1 >= 1e3 * WORK_ROUNDING_FLOOR, detail
        assert err1 / err2 >= 3.5, detail

    def test_truncation_doubling_stable(self):
        p = engine(2, 0.0)
        w1 = run_cycle(p, self.PLATEAU, ho(8), BOSE).work.avg_work
        w2 = run_cycle(p, self.PLATEAU, ho(16), BOSE).work.avg_work
        assert abs(w2 - w1) < 1e-6 * abs(w2)

    def test_nonperturbative_top_level_leakage(self):
        # g = 0.5 plateau at a converged truncation (the Fig.-3 case):
        # top-two-level population stays below 1e-8 throughout, and the
        # stroke-2 factor drops no more than 1e-14 of sigma_S's weight
        res = run_cycle(engine(2, 0.0), self.STRONG, ho(16), BOSE)
        d = res.diagnostics
        assert d["leakage"] < 1e-8
        assert d["dropped_weight"] <= 1e-14
        assert d["factor_rank"][0] == [3]              # stroke 1: rank dE, exact
        assert 3 < d["factor_rank"][1][0] <= 3 * 16

    def test_diagnostics_bounds_smooth(self):
        d = run_cycle(engine(3, 0.7), self.PLATEAU, ho(8), DIST).diagnostics
        for key in ("trace_drift", "herm_drift", "isometry_drift", "unitarity_residual"):
            assert d[key] < 1e-10, key
        assert d["sectors"] == [[4, 1], [2, 2]]
        assert d["factor_rank"][0] == [4, 2]
        assert len(d["stroke_wall_s"]) == 2 and min(d["stroke_wall_s"]) > 0

    def test_scaled_factor_fails_isometry_check(self, monkeypatch):
        # negative control: Gibbs blocks whose R is off the unitaries by
        # 1e-8, and with them the factor of a smooth stroke and the kicked
        # factor of an impulse (U^dag diag(|phi_r|^2) U), must fail the
        # 1e-10 bound that the checks above apply
        thermal = dyn._sector_thermal

        def scaled(*args):
            return [(R * (1 + 1e-8), lam) for R, lam in thermal(*args)]

        monkeypatch.setattr(dyn, "_sector_thermal", scaled)
        for delta in (0.0, 0.7):
            for schedule in (self.PLATEAU, IMPULSE):
                d = run_cycle(engine(2, delta), schedule, ho(6), BOSE).diagnostics
                assert 1e-8 < d["isometry_drift"] < 3e-8, (delta, schedule)

    @pytest.mark.parametrize("delta, schedule, path", [
        (0.0, "plateau", None), (0.7, "plateau", None),
        (0.7, "sampled", "stepped"), (0.7, "sampled", "blocks"),
    ], ids=["0.0", "0.7", "sampled-0.7-stepped", "sampled-0.7-blocks"])
    def test_factor_steps_match_dense_strang(self, monkeypatch, delta, schedule, path):
        # 300 steps (more than one grid chunk) of the factored split stepper
        # from a full-rank stroke-2 input, against the same Strang product
        # taken densely on rho by the cycle oracle's steps; D = 18 takes the
        # block path unless a path is forced.  Mid-plateau g is exactly
        # constant; on the sampled schedule it changes at every step, so the
        # stepped path rebuilds its folded system rotation at each.
        if path is not None:
            monkeypatch.setattr(dyn, "CHAIN_DIM", PATHS[path])
        sched = self.STRONG if schedule == "plateau" else SAMPLED
        N, dS = 2, 6
        p, system = engine(N, delta), ho(dS)
        (sector,) = _build_sectors(p, qw.Statistics.BOSE)
        (gibbs_e,) = _sector_thermal([sector], p, T / 2)
        a = np.random.default_rng(3).normal(size=(dS, dS, 2)) @ [1, 1j]
        sigma = a @ a.conj().T / np.trace(a @ a.conj().T).real
        mu, W = np.linalg.eigh(sigma)
        y, w = _product_factor(gibbs_e[0], W), np.multiply.outer(gibbs_e[1], mu).ravel()
        assert w.size == (N + 1) * dS                   # full rank
        dt, n, t_start = default_dt_cap(p, system), 300, 0.75 * T
        g = qw.g_of_t(sched, t_start + (np.arange(n) + 0.5) * dt)
        assert np.unique(g).size == (1 if schedule == "plateau" else n)
        y = _split_evolve(sector, system, p, sched, dt, y,
                          t_start, n, lambda ks, X: None)
        psi = y.transpose(0, 2, 1).reshape((N + 1) * dS, -1)
        got = (psi * w) @ psi.conj().T
        rho = dense_strang_steps(np.kron(dense(*gibbs_e), sigma), p, sched, system,
                                 DickeSector(N), t_start, dt, n)
        assert np.max(np.abs(got - rho)) <= 1e-12

    @pytest.mark.parametrize("delta", [0.0, 0.5])
    def test_constant_drive_matches_perturbative_forms(self, delta):
        # at v = 0 the drive holds Omega0 and the closed form's phase grows
        # linearly in t; it stays within 2% of the run (0.14% at Delta = 0)
        p = engine(2, delta, v=0.0)
        res = run_cycle(p, self.PLATEAU, ho(6), BOSE)
        ana = qw.general_work(p, self.PLATEAU, ho(6), BOSE)
        assert abs(res.work.avg_work - ana.avg_work) < 0.02 * ana.avg_work

    def test_unitarity_drift_guard(self, monkeypatch):
        # a run whose unitarity residual exceeds UNITARITY_TOL raises; one
        # at the bound passes
        residual = run_cycle(engine(2, 0.5), self.PLATEAU, ho(6), BOSE).diagnostics[
            "unitarity_residual"]
        monkeypatch.setattr(dyn, "UNITARITY_TOL", residual)
        run_cycle(engine(2, 0.5), self.PLATEAU, ho(6), BOSE)
        monkeypatch.setattr(dyn, "UNITARITY_TOL", residual / 2)
        with pytest.raises(PropagationError, match="^unitarity drift"):
            run_cycle(engine(2, 0.5), self.PLATEAU, ho(6), BOSE)

    def test_truncation_leakage_guard(self):
        strong = qw.SmoothPlateau(g=3.0, delta_t=0.9, alpha=2142.0 / T, T=T)
        with pytest.raises((PropagationError, Exception)):
            run_cycle(engine(4, 0.0), strong, ho(3), BOSE)

    def test_split_evolve_keeps_the_callers_factor(self, monkeypatch):
        # N = 2 blocked: the spin-1 block is stepped, then multiplied; the
        # spin-0 block is free
        p, system = engine(2, 0.7), ho(6)
        sectors = _build_sectors(p, DIST)
        assert [s.free for s in sectors] == [False, True]
        mu, W = np.ones(1), np.eye(system.dim)[:, :1]
        for chain_dim in PATHS.values():
            monkeypatch.setattr(dyn, "CHAIN_DIM", chain_dim)
            for sector, gibbs_e in zip(sectors, _sector_thermal(sectors, p, 0.0)):
                y = _product_factor(gibbs_e[0], W)
                before = y.copy()
                out = _split_evolve(sector, system, p,
                                    self.STRONG, 0.01, y, 0.0, 120, lambda ks, X: None)
                np.testing.assert_array_equal(y, before)
                assert out is not y

    def test_trace_collection_with_free_sector(self):
        # the spin-0 block is sampled at the stepped block's steps, so every
        # row holds the whole trace
        res = run_cycle(engine(2, 0.0), self.PLATEAU, ho(6), DIST,
                        config=PropagatorConfig(collect_trace=True))
        trace = res.diagnostics["trace"]
        assert len(trace) > 10
        assert max(abs(tr - 1.0) for _, tr, _, _ in trace) < 1e-9

    def test_trace_collection(self):
        res = run_cycle(engine(2, 0.0), self.PLATEAU, ho(6), BOSE,
                        config=PropagatorConfig(collect_trace=True))
        trace = res.diagnostics["trace"]
        assert len(trace) > 10
        t, tr, leak, es = trace[-1]
        assert abs(tr - 1.0) < 1e-9
        assert es >= 0


def gap(a, b):
    """max |a - b| relative to max |b|."""
    a, b = np.asarray(a), np.asarray(b)
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestBlockPath:
    """Composites of dim D <= CHAIN_DIM multiply their steps into one
    propagator per sample block; forcing CHAIN_DIM to 0 steps them all.

    Both paths apply the same operators in the same order, grouped
    differently, so they agree to rounding: on the short cycles below the
    largest gaps are 5e-14 relative on the work, 3.3e-14 on p_excite,
    8.9e-15 on final_state and 4e-14 on the trace columns, and 1.7e-14 on
    the sampled factors of _split_evolve (measured).  BOUND leaves a
    factor of 20 above them.
    """

    BOUND = 1e-12
    CYCLE_T = 2.5

    def short_cycle(self, N, delta, stats, path, monkeypatch):
        monkeypatch.setattr(dyn, "CHAIN_DIM", PATHS[path])
        T_c = self.CYCLE_T
        p = qw.EngineParams(N=N, Omega0=1.0, Delta=delta, v=0.2, T=T_c, beta_c=1.0,
                            beta_h=0.125)
        sched = qw.SmoothPlateau(g=0.1, delta_t=0.9, alpha=2142.0 / T_c, T=T_c)
        return run_cycle(p, sched, qw.harmonic_system(2 * math.pi * 0.05, 8), stats,
                         config=PropagatorConfig(collect_trace=True))

    @pytest.mark.parametrize("stats", [qw.Statistics.BOSE, DIST], ids=["bose", "dist"])
    @pytest.mark.parametrize("delta", [0.0, 0.7])
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_cycle_matches_stepped(self, monkeypatch, N, delta, stats):
        # even N distinguishable includes the free spin-0 block
        step = self.short_cycle(N, delta, stats, "stepped", monkeypatch)
        mult = self.short_cycle(N, delta, stats, "blocks", monkeypatch)
        assert step.diagnostics["block_steps"] == 0
        assert mult.diagnostics["block_steps"] == mult.diagnostics["split_steps"] > 0
        assert gap(mult.work.avg_work, step.work.avg_work) <= self.BOUND
        levels = sorted(step.work.p_excite)
        assert gap([mult.work.p_excite[i] for i in levels],
                   [step.work.p_excite[i] for i in levels]) <= self.BOUND
        assert gap(mult.final_state, step.final_state) <= self.BOUND
        got, ref = np.array(mult.diagnostics["trace"]), np.array(step.diagnostics["trace"])
        np.testing.assert_array_equal(got[:, 0], ref[:, 0])         # same times
        assert gap(got[:, 1], ref[:, 1]) <= self.BOUND              # trace
        assert gap(got[:, 3], ref[:, 3]) <= self.BOUND              # system energy
        # the top-level population is ~1e-8 of the trace, and its rounding
        # is set by the whole state: held to the trace's scale
        assert np.max(np.abs(got[:, 2] - ref[:, 2])) <= self.BOUND * np.max(ref[:, 1])

    def evolve(self, delta, n, path, monkeypatch, N=2, dS=6):
        """_split_evolve of a full-rank stroke-2 factor for n steps from
        the middle of the STRONG plateau: its samples (k, factor) and the
        final factor."""
        monkeypatch.setattr(dyn, "CHAIN_DIM", PATHS[path])
        p, system = engine(N, delta), ho(dS)
        (sector,) = _build_sectors(p, qw.Statistics.BOSE)
        (gibbs_e,) = _sector_thermal([sector], p, T / 2)
        a = np.random.default_rng(3).normal(size=(dS, dS, 2)) @ [1, 1j]
        mu, W = np.linalg.eigh(a @ a.conj().T / np.trace(a @ a.conj().T).real)
        y = _product_factor(gibbs_e[0], W)
        samples = []
        out = _split_evolve(sector, system, p,
                            TestRunCycleSmooth.STRONG, default_dt_cap(p, system), y, 0.75 * T,
                            n, lambda ks, X: samples.extend(zip(ks, X.copy())))
        return samples, out

    def sample_gap(self, got, ref):
        assert [k for k, _ in got] == [k for k, _ in ref]
        return max(gap(x, x_ref) for (_, x), (_, x_ref) in zip(got, ref))

    # n = 1, under one block, whole blocks, a partial last block, and
    # strokes across one and two chunks
    @pytest.mark.parametrize("n", [1, 37, 100, 123, 300, 500])
    @pytest.mark.parametrize("delta", [0.0, 0.7])
    def test_samples_match_stepped(self, monkeypatch, delta, n):
        ref, ref_out = self.evolve(delta, n, "stepped", monkeypatch)
        got, out = self.evolve(delta, n, "blocks", monkeypatch)
        assert [k for k, _ in ref] == [*range(49, n - 1, 50), n - 1]
        assert self.sample_gap(got, ref) <= self.BOUND
        np.testing.assert_array_equal(out, got[-1][1])
        assert out.shape == ref_out.shape

    def test_negative_controls(self, monkeypatch):
        ref, _ = self.evolve(0.7, 123, "stepped", monkeypatch)
        chain = dyn._chain_product

        def reversed_blocks(blocks, scratch):
            return chain(blocks[:, ::-1], scratch)

        monkeypatch.setattr(dyn, "_chain_product", reversed_blocks)
        got, _ = self.evolve(0.7, 123, "blocks", monkeypatch)
        assert self.sample_gap(got, ref) > 1e3 * self.BOUND

        calls = []

        def without_u0(blocks, scratch):
            if not calls:                   # the stroke's first chunk: T_0 = diag(u_0)
                blocks[0, 0] = np.eye(blocks.shape[-1])
            calls.append(1)
            return chain(blocks, scratch)

        monkeypatch.setattr(dyn, "_chain_product", without_u0)
        got, _ = self.evolve(0.7, 123, "blocks", monkeypatch)
        assert self.sample_gap(got, ref) > 1e3 * self.BOUND

    def test_selection_by_composite_dim(self):
        # the module's own CHAIN_DIM: D = 3 x 4 = 12 is multiplied,
        # D = 4 x 8 = 32 is stepped
        sched = qw.SmoothPlateau(g=0.01, delta_t=0.9, alpha=2142.0 / 2.5, T=2.5)
        for N, dS, multiplied in ((2, 4, True), (3, 8, False)):
            p = qw.EngineParams(N=N, Omega0=1.0, Delta=0.5, v=0.2, T=2.5, beta_c=1.0,
                                beta_h=0.125)
            d = run_cycle(p, sched, qw.harmonic_system(2 * math.pi * 0.05, dS), BOSE).diagnostics
            assert d["split_steps"] == 2 * d["n_steps_per_half"] > 0
            assert d["block_steps"] == (d["split_steps"] if multiplied else 0)

    def test_long_stroke_memory_is_one_chunk(self):
        # 20 000 steps at D = 8: the step operators of the whole stroke
        # would take 20 MB; built one chunk at a time, the run peaks at 0.7 MB
        p, system = engine(1, 0.7), ho(4)
        (sector,) = _build_sectors(p, qw.Statistics.BOSE)
        assert sector.dim * system.dim <= dyn.CHAIN_DIM
        (gibbs_e,) = _sector_thermal([sector], p, 0.0)
        y = _product_factor(gibbs_e[0], np.eye(4)[:, :1])
        n = 20_000
        tracemalloc.start()
        try:
            _split_evolve(sector, system, p,
                          TestRunCycleSmooth.STRONG, T / 2 / n, y, 0.0, n, lambda ks, X: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, peak


class TestStackedSamples:
    """_split_evolve hands each chunk's samples to its hook as one stack,
    and the health diagnostics are taken on the whole stack."""

    def stroke(self, N, dS, delta=0.7):
        """A Bose block and a full-rank stroke-2 factor of it."""
        p, system = engine(N, delta), ho(dS)
        (sector,) = _build_sectors(p, qw.Statistics.BOSE)
        ((R, lam),) = _sector_thermal([sector], p, T / 2)
        a = np.random.default_rng(3).normal(size=(dS, dS, 2)) @ [1, 1j]
        mu, W = np.linalg.eigh(a @ a.conj().T / np.trace(a @ a.conj().T).real)
        return p, system, sector, _product_factor(R, W), np.multiply.outer(lam, mu).ravel()

    def test_diagnostics_match_per_sample_reference(self):
        # the samples of a stroke, pushed off the isometry by 1e-6 so that
        # every drift is far above rounding; members: two runs sharing the
        # first 10 columns, and a third holding the rest, as stacked runs do
        p, system, sector, y, w = self.stroke(2, 6)
        stacks = []
        _split_evolve(sector, system, p,
                      TestRunCycleSmooth.STRONG, 0.01, y, 0.0, 250,
                      lambda ks, X: stacks.append(X.copy()))
        (X,) = stacks
        X = X + 1e-6 * np.random.default_rng(4).normal(size=X.shape)
        members = [(0, 1.0, w[:10], float(w[:10].sum()) + 1e-7, slice(0, 10)),
                   (1, 2.0, 0.5 * w[:10], 0.5 * float(w[:10].sum()), slice(0, 10)),
                   (2, 1.0, w[10:], float(w[10:].sum()), slice(10, X.shape[2]))]
        diags = [dyn._Diag() for _ in members]
        got = {i: red for i, _, _, red in dyn._merged(diags, X, members)}
        for (i, _, wi, tr0, cols), diag in zip(members, diags):
            ref = dyn._Diag()
            for x in X[:, :, cols]:
                # the reduced state of one factor, its drifts and leakage
                red = np.einsum("acs,c,act->st", x, wi, x.conj())
                U = x.transpose(1, 0, 2).reshape(x.shape[1], -1).T
                ref.trace_drift = max(ref.trace_drift, abs(np.trace(red).real - tr0))
                ref.herm_drift = max(ref.herm_drift, np.max(np.abs(red - red.conj().T)))
                ref.isometry_drift = max(ref.isometry_drift,
                                         np.max(np.abs(U.conj().T @ U - np.eye(U.shape[1]))))
                ref.leakage = max(ref.leakage, np.diag(red).real[-2:].sum())
            reds = np.einsum("macs,c,mact->mst", X[:, :, cols], wi, X[:, :, cols].conj())
            assert np.max(np.abs(got[i] - reds)) <= 1e-13
            assert abs(dyn._reduced_leakage(got[i]) - ref.leakage) <= 1e-13
            for key in ("trace_drift", "herm_drift", "isometry_drift"):
                assert abs(getattr(diag, key) - getattr(ref, key)) <= 1e-13, (i, key)
            assert ref.isometry_drift > 1e-7 and ref.trace_drift > 1e-8

    @pytest.mark.parametrize("path", PATHS)
    def test_buffers_are_aligned(self, monkeypatch, path):
        # the stepped factor, its buffer, the sample stack and the folded
        # rotation start on 64-byte boundaries, whatever malloc returns
        monkeypatch.setattr(dyn, "CHAIN_DIM", PATHS[path])
        p, system, sector, y, _ = self.stroke(2, 6)
        aligned, made, seen = dyn._aligned, [], []

        def recorded(shape):
            made.append(aligned(shape))
            return made[-1]

        monkeypatch.setattr(dyn, "_aligned", recorded)
        _split_evolve(sector, system, p,
                      TestRunCycleSmooth.STRONG, 0.01, y, 0.0, 300,
                      lambda ks, X: seen.append(X))
        assert len(made) == (4 if path == "stepped" else 3)
        assert all(x.ctypes.data % 64 == 0 and x.flags.c_contiguous for x in made)
        assert all(np.shares_memory(X, made[2]) and X.ctypes.data % 64 == 0 for X in seen)
        for shape in [(1,), (3, 5, 7), (5, 3, 18, 6), (2, 1, 1)]:
            x = aligned(shape)
            assert x.shape == shape and x.flags.c_contiguous and x.ctypes.data % 64 == 0

    def test_stepped_memory_holds_no_folded_stack(self):
        # a stepped dim-16 stroke (D = 4 x 16, full rank 64) on the sampled
        # schedule, whose g changes at every step: one folded rotation
        # S^T diag(u_k[a]) is rebuilt in place, where a stack of one chunk's
        # would take 250 x 4 x 16 x 16 complex = 4.1 MB.  Measured peak:
        # 1.34 MB, of which the chunk's phases take 0.26 MB.
        p, system, sector, y, _ = self.stroke(3, 16, delta=0.0)
        assert y.shape == (4, 64, 16) and sector.dim * system.dim > dyn.CHAIN_DIM
        args = (sector, system, p, SAMPLED,
                default_dt_cap(p, system), y, 0.0, 1000, lambda ks, X: None)
        _split_evolve(*args)
        tracemalloc.start()
        try:
            _split_evolve(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6, peak


class TestRunCycles:
    """run_cycles propagates each distinct spin block once per stroke for
    all of its runs, and each of its results agrees with a lone run_cycle.
    They part only where a run takes shared columns built from another
    run's Gibbs block (Delta != 0, whose eigenvectors round differently)
    or its columns are stacked with another run's: the largest gaps on the
    cases below are 2e-15 relative on the work (measured).  At N = 1 the
    runs share every column and match the lone runs exactly."""

    BOUND = 1e-12
    CYCLE_T = 2.5

    def case(self, N, delta, kind):
        T_c = self.CYCLE_T
        p = qw.EngineParams(N=N, Omega0=1.0, Delta=delta, v=0.2, T=T_c, beta_c=1.0,
                            beta_h=0.125)
        sched = (qw.Impulse(g=0.1, t1=0.35 * T_c / 2, T=T_c) if kind == "kick" else
                 qw.SmoothPlateau(g=0.1, delta_t=0.9, alpha=2142.0 / T_c, T=T_c))
        return p, sched, qw.harmonic_system(2 * math.pi * 0.05, 8)

    @pytest.mark.parametrize("kind, path", [("kick", "stepped"), ("smooth", "stepped"),
                                            ("smooth", "blocks")])
    @pytest.mark.parametrize("delta", [0.0, 0.7])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_pair_matches_lone_runs(self, monkeypatch, N, delta, kind, path):
        monkeypatch.setattr(dyn, "CHAIN_DIM", PATHS[path])
        p, sched, system = self.case(N, delta, kind)
        config = PropagatorConfig(collect_trace=True)
        pair = run_cycles(p, sched, system, config=config)
        for stats, res in zip((qw.Statistics.BOSE, DIST), pair):
            lone = run_cycle(p, sched, system, stats, config)
            assert res.work.statistics is stats
            if N == 1:
                assert res.work.avg_work == lone.work.avg_work
            assert gap(res.work.avg_work, lone.work.avg_work) <= self.BOUND
            levels = sorted(lone.work.p_excite)
            assert gap([res.work.p_excite[i] for i in levels],
                       [lone.work.p_excite[i] for i in levels]) <= self.BOUND
            assert gap(res.final_state, lone.final_state) <= self.BOUND
            for key in ("sectors", "factor_rank", "split_steps", "block_steps",
                        "n_steps_per_half", "n_engine_steps"):
                assert res.diagnostics.get(key) == lone.diagnostics.get(key), key
            if kind == "smooth":
                got, ref = np.array(res.diagnostics["trace"]), np.array(lone.diagnostics["trace"])
                np.testing.assert_array_equal(got[:, 0], ref[:, 0])
                assert gap(got[:, 1:], ref[:, 1:]) <= self.BOUND

    @pytest.mark.parametrize("kind", ["kick", "smooth"])
    def test_one_system_eigensystem_per_call(self, monkeypatch, kind):
        # a call on a fresh system diagonalises V_S once, not once per
        # block and stroke
        p, sched, system = self.case(2, 0.7, kind)
        eigh, calls = np.linalg.eigh, []

        def counted(a, *args, **kwargs):
            calls.append(a is system.V_S)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        run_cycles(p, sched, system)
        assert sum(calls) == 1

    def test_one_eigensystem_per_system_object(self, monkeypatch):
        # V_S is diagonalised once per ExternalSystem object, not per call,
        # block or stroke: a kick and a smooth pair on one system take one
        # eigh in all, and an equal system built apart takes its own
        p, kick, system = self.case(2, 0.7, "kick")
        smooth, twin = self.case(2, 0.7, "smooth")[1:]
        eigh, calls = np.linalg.eigh, []

        def counted(a, *args, **kwargs):
            calls.append(a)
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        for s in (system, twin):
            for sched in (kick, smooth):
                run_cycles(p, sched, s)
        assert [a is system.V_S for a in calls if a is system.V_S or a is twin.V_S] \
            == [True, False]

    def test_each_block_once_per_stroke(self, monkeypatch):
        # N = 2: the spin-1 block is stepped once per stroke for both runs,
        # shared in stroke 1 and with the two factors stacked in stroke 2;
        # the spin-0 block is the distinguishable run's alone.  At N = 1
        # the runs share both strokes.
        calls = []
        split = dyn._split_evolve

        def record(sector, system, params, schedule, dt, y, *args):
            calls.append((sector.key, y.shape[1]))
            return split(sector, system, params, schedule, dt, y, *args)

        monkeypatch.setattr(dyn, "_split_evolve", record)
        bose, dist = run_cycles(*self.case(2, 0.7, "smooth"))
        (_, (rank_b,)), (_, (rank_d, rank_0)) = (bose.diagnostics["factor_rank"],
                                                 dist.diagnostics["factor_rank"])
        assert calls == [(("spin", 2), 3), (("spin", 0), 1),
                         (("spin", 2), rank_b + rank_d), (("spin", 0), rank_0)]
        calls.clear()
        bose, dist = run_cycles(*self.case(1, 0.7, "smooth"))
        assert bose.diagnostics["factor_rank"] == dist.diagnostics["factor_rank"]
        assert calls == [(("spin", 1), 2), (("spin", 1), bose.diagnostics["factor_rank"][1][0])]


    def test_shared_inputs_built_once(self, monkeypatch):
        # N = 2 at Delta != 0: the Gibbs tilt R of a block is lifted once per
        # stroke for both runs, sigma_S is diagonalised once per distinct
        # state (one ground state in stroke 1, two states in stroke 2), and
        # a product factor is built per distinct (block, sigma_S) only
        calls = {"lift": 0, "sigma": 0, "factor": 0}
        lift, factor, product = dyn._Sector.lift, dyn._system_factor, dyn._product_factor

        def counted(name, fn):
            def wrapper(*args):
                # the step lifts take arrays; a Gibbs tilt takes scalars
                if name != "lift" or np.ndim(args[1]) == 0:
                    calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(dyn._Sector, "lift", counted("lift", lift))
        monkeypatch.setattr(dyn, "_system_factor", counted("sigma", factor))
        monkeypatch.setattr(dyn, "_product_factor", counted("factor", product))
        run_cycles(*self.case(2, 0.7, "smooth"))
        # blocks spin 1 (both runs) and spin 0 (distinguishable); stroke 2
        # stacks the two runs' columns of spin 1
        assert calls == {"lift": 4, "sigma": 3, "factor": 5}

    def test_equal_states_decomposed_once(self, monkeypatch):
        # N = 1: both runs hold the one spin-1/2 block, so their stroke-2
        # sigma_S are equal and decomposed once, one factor for the two
        calls = []
        factor = dyn._system_factor

        def counted(sigma_s):
            calls.append(sigma_s)
            return factor(sigma_s)

        monkeypatch.setattr(dyn, "_system_factor", counted)
        run_cycles(*self.case(1, 0.7, "smooth"))
        assert len(calls) == 2

def flip_tilt(monkeypatch):
    # the Gibbs blocks tilted by exp(+i chi sigma_y / 2)
    monkeypatch.setattr(dyn, "_su2_y", lambda chi: (np.cos(chi / 2), np.sin(chi / 2)))


def swap_lift_ends(monkeypatch):
    # alpha and gamma of the SU(2) lift exchanged: exp(-i (s -+ d) Sz)
    # become exp(-i (s +- d) Sz) on the left and right
    lift = dyn._Sector.lift

    def swapped(self, a, b):
        ph = np.exp(-2j * np.multiply.outer(np.angle(-b), self.sz_diag))
        return ph[..., :, None] * lift(self, a, b) / ph[..., None, :]

    monkeypatch.setattr(dyn._Sector, "lift", swapped)


def widen_truncation(monkeypatch):
    monkeypatch.setattr(dyn, "DROP_TOL", 1e-6)


class TestDenseCycleOracle:
    """run_cycle against the whole cycle taken densely on the genuine
    composite, DickeSector(N) for Bose and FullProduct(N) for
    distinguishable engines, with scipy's expm (oracles.dense_cycle)."""

    @pytest.mark.parametrize("t1", ORACLE_KICKS)
    @pytest.mark.parametrize("delta", [0.0, 0.4])
    @pytest.mark.parametrize("N", [1, 2, 3, 4])
    def test_kicks(self, oracle_gaps, N, delta, t1):
        for stats in STATS:
            gaps = oracle_gaps(N, delta, ORACLE_KICKS[t1], stats)
            bounds = ORACLE_BOUNDS["kick"]
            assert all(gaps[k] <= b for k, b in bounds.items()), (stats, gaps)

    # stats_modes: the statistics each case runs
    @pytest.mark.parametrize("N, delta, stats_modes", [
        (2, 0.0, STATS[:1]),
        (3, 0.4, STATS[:1]),
        (2, 0.4, STATS[1:]),
    ])
    def test_smooth_plateau(self, oracle_gaps, N, delta, stats_modes):
        for stats in stats_modes:
            gaps = oracle_gaps(N, delta, ORACLE_PLATEAU, stats)
            bounds = ORACLE_BOUNDS["smooth"]
            assert all(gaps[k] <= b for k, b in bounds.items()), (stats, gaps)

    @pytest.mark.parametrize("fault, bound", [
        (flip_tilt, "kick"),
        (flip_tilt, "smooth"),
        (swap_lift_ends, "kick"),
        (swap_lift_ends, "smooth"),
        (widen_truncation, "smooth"),       # kicks drop nothing from sigma_S
    ], ids=lambda x: getattr(x, "__name__", x))
    def test_negative_controls(self, monkeypatch, oracle_gaps, fault, bound):
        schedule = ORACLE_KICKS[0.35] if bound == "kick" else ORACLE_PLATEAU
        oracle_gaps(2, 0.4, schedule, DIST)                # the oracle, before the fault
        fault(monkeypatch)
        gaps = oracle_gaps(2, 0.4, schedule, DIST)
        assert gaps["work"] > 1e3 * ORACLE_BOUNDS[bound]["work"], gaps

    @pytest.mark.parametrize("schedule, path", [
        (ORACLE_KICKS[0.35], "stepped"),
        (ORACLE_KICKS[1.4], "stepped"),
        (ORACLE_PLATEAU, "stepped"),
        (ORACLE_PLATEAU, "blocks"),
    ], ids=["kick-stroke1", "kick-stroke2", "smooth-stepped", "smooth-blocks"])
    @pytest.mark.parametrize("delta", [0.0, 0.4])
    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_pairs(self, monkeypatch, oracle_gaps, N, delta, schedule, path):
        # the Bose and distinguishable runs of run_cycles, blocks shared
        monkeypatch.setattr(dyn, "CHAIN_DIM", PATHS[path])
        pair = run_cycles(oracle_engine(N, delta), schedule, ORACLE_SYSTEM)
        bounds = ORACLE_BOUNDS["kick" if isinstance(schedule, qw.Impulse) else "smooth"]
        for stats, res in zip((qw.Statistics.BOSE, DIST), pair):
            assert res.work.statistics is stats
            gaps = oracle_gaps(N, delta, schedule, stats, res=res)
            assert all(gaps[k] <= b for k, b in bounds.items()), (stats, gaps)

    def test_pair_negative_control(self, monkeypatch, oracle_gaps):
        # the distinguishable run is handed the Bose run's stroke-2 factor
        # object, of another sigma_S, for the block the two share
        oracle_gaps(2, 0.4, ORACLE_PLATEAU, DIST)          # the oracle, before the fault
        shared = dyn._shared_blocks

        def bose_factor(runs, factors, params, t0):
            return shared(runs, [factors[0]] * len(factors), params, t0)

        monkeypatch.setattr(dyn, "_shared_blocks", bose_factor)
        _, dist = run_cycles(oracle_engine(2, 0.4), ORACLE_PLATEAU, ORACLE_SYSTEM)
        gaps = oracle_gaps(2, 0.4, ORACLE_PLATEAU, DIST, res=dist)
        assert gaps["work"] > 1e3 * ORACLE_BOUNDS["smooth"]["work"], gaps


class TestSU2Chain:
    """The engine propagator is the lift of one 2x2 SU(2) product."""

    def test_chain_matches_40_digit_midpoint_product(self):
        # a rising and a falling sweep: the oracle writes Omega0 + v t itself
        falling = qw.EngineParams(N=1, Omega0=3.0, Delta=1.4, v=-0.1, T=T,
                                  beta_c=2.0, beta_h=0.25)
        for p in (engine(1, 1.4), falling):
            a, b, n = dyn._engine_chain(p, 0.0, IMPULSE.t1, 0.01 / p.energy_scale)
            assert 800 <= n <= 1200
            ref = midpoint_su2_product_mp(p, 0.0, IMPULSE.t1, n)
            assert max(abs(a - ref[0]), abs(b - ref[1])) <= 1e-13
            (sector,) = _build_sectors(dataclasses.replace(p, N=4), qw.Statistics.BOSE)
            assert np.max(np.abs(sector.lift(a, b) - sector.lift(*ref))) <= 1e-13

    def test_lift_is_the_tensor_power(self):
        # random SU(2) matrices plus the diagonal, antidiagonal and -I cases;
        # the diagonal ones (b = 0) also as a stack of their own, which the
        # lift takes as exp(-2i arg(a) Sz)
        q = np.random.default_rng(11).normal(size=(6, 4))
        q /= np.linalg.norm(q, axis=1)[:, None]
        a = np.r_[q[:, 0] + 1j * q[:, 1], 1, -1, 1j, np.exp(0.7j), 0, 0]
        b = np.r_[q[:, 2] + 1j * q[:, 3], 0, 0, 0, 0, 1, 1j]
        for N in range(1, 5):
            # the block of the whole 2^N space, built from the oracle's spin sums
            sx, sy, sz = spin_ops(FullProduct(N))
            sector = dyn._Sector(sx, sy, np.diag(sz).real, 1.0, ("full", N))
            diagonal = b == 0
            for x_s, y_s in ((a, b), (a[diagonal], b[diagonal]), (a[9], b[9])):
                for D, x, y in zip(np.reshape(sector.lift(x_s, y_s), (-1, 2 ** N, 2 ** N)),
                                   np.ravel(x_s), np.ravel(y_s)):
                    u = np.array([[x, -np.conj(y)], [y, np.conj(x)]])
                    assert np.max(np.abs(D - functools.reduce(np.kron, [u] * N))) <= 1e-14

    @pytest.mark.parametrize("shape", [(), (3,)])
    def test_single_pad_matches_per_level_pad(self, shape):
        # identity steps are exact factors, so padding once to a power of
        # two multiplies the same pairs in the same tree
        rng = np.random.default_rng(17)
        for n in [*range(1, 70), 999, 1000, 1023, 1025, 2047, 3001]:
            q = rng.normal(size=(*shape, n, 4))
            q /= np.linalg.norm(q, axis=-1)[..., None]
            a, b = q[..., 0] + 1j * q[..., 1], q[..., 2] + 1j * q[..., 3]
            got, ref = dyn._su2_chain(a, b), su2_chain_per_level_pad(a, b)
            for x, y in zip(got, ref):
                np.testing.assert_array_equal(x, y, err_msg=f"n = {n}")

    def test_landau_zener_oracle(self):
        # Omega = -1 + 0.4 t crosses zero at t = 2.5: a genuine crossing.
        # The midpoint chain is second order, so its error against the
        # exact propagator falls 4x per dt halving, far above rounding.
        p = qw.EngineParams(N=1, Omega0=-1.0, Delta=0.5, v=0.4, T=10.0,
                            beta_c=1.0, beta_h=0.1)
        ref = landau_zener_propagator(p, 0.0, 4.0)
        errs = []
        for n in (200, 400, 800):
            dt = 4.0 / n
            a, b = dyn._su2_chain(*dyn._su2_steps(p, dyn._midpoints(0.0, dt, 0, n), dt))
            errs.append(max(abs(a - ref[0]), abs(b - ref[1])))
        assert errs[-1] > 1e-8
        for coarse, fine in zip(errs, errs[1:]):
            assert 3.9 < coarse / fine < 4.1, errs


class TestAdiabaticityWitness:
    def test_pinned_to_exact_midpoint_value(self):
        # 1.70967880502078e-4 is this witness (same midpoint grids and
        # snapshots) with the midpoint steps and their products taken at
        # 40 digits in mpmath
        w = adiabaticity_witness(engine(1, 1.4))
        assert abs(w - 1.70967880502078e-4) <= 1e-11 * 1.70967880502078e-4

    def test_delta0_exact(self):
        assert adiabaticity_witness(engine(3, 0.0)) == 0.0

    def test_small_at_fig2_speed(self):
        w = adiabaticity_witness(engine(4, 1.4))
        assert w < 0.05

    def test_decreases_with_speed(self):
        slow = adiabaticity_witness(engine(2, 1.0, v=0.02))
        fast = adiabaticity_witness(engine(2, 1.0, v=0.4))
        assert slow < fast

    def test_step_count_beyond_float_rejected(self):
        p = qw.EngineParams(N=1, Omega0=1e308, Delta=1.0, v=0.0, T=T, beta_c=2.0, beta_h=1.0)
        with pytest.raises(ConfigError, match="more steps than a float can count"):
            adiabaticity_witness(p)

    def test_sudden_limit_matches_rotation_angle(self):
        # tiny T: the state is frozen while the basis rotates by delta-chi
        p = qw.EngineParams(N=1, Omega0=1.0, Delta=1.0, v=200.0, T=0.02,
                            beta_c=2.0, beta_h=0.125)
        w = adiabaticity_witness(p)
        chi0 = float(p.theta(0.0))
        chih = float(p.theta(0.01))
        expect = math.sin((chih - chi0) / 2) ** 2
        assert abs(w - expect) < 0.15 * expect


class TestCycleResultSerialization:
    def test_roundtrip_dict(self):
        res = run_cycle(engine(2, 0.0), IMPULSE, ho(6), BOSE)
        d = res.to_dict()
        assert d["work"]["method"] == "exact-numerical"
        assert "final_state" not in d and res.final_state.shape == (6, 6)
        assert {"trace_drift", "unitarity_residual"} <= set(d["diagnostics"])


class TestFinalState:
    """A cycle's final sigma_S is Hermitian with unit trace by construction,
    and a run whose sigma_S has an eigenvalue below -1e-9 fails."""

    @pytest.mark.parametrize("bump", [-1e-6, -1e-10])
    def test_negative_eigenvalue(self, monkeypatch, bump):
        # shifting level 3, which the weak kick leaves all but empty, puts
        # one eigenvalue of sigma_S at about `bump`: the kick's reduced
        # state, the mixture of its kicked system vectors
        # (_kicked_vectors), is taken by one _reduced_system call
        reduced = dyn._reduced_system
        shift = np.diag([0, 0, 0, bump, 0, 0]).astype(complex)
        monkeypatch.setattr(dyn, "_reduced_system", lambda y, w: reduced(y, w) + shift)
        if bump < dyn.STATE_EIGMIN_TOL:
            with pytest.raises(PropagationError, match="negative eigenvalue"):
                run_cycle(engine(2), IMPULSE, ho(6), BOSE)
            return
        sigma = run_cycle(engine(2), IMPULSE, ho(6), BOSE).final_state
        assert np.linalg.eigvalsh(sigma)[0] == pytest.approx(bump, rel=1e-3)
        assert np.array_equal(sigma, sigma.conj().T)
        assert abs(np.trace(sigma) - 1) < 1e-15
