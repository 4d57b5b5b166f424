"""Acceptance gate: one test per shipped guarantee, each printing a
single "criterion N PASS/FAIL" line with the measured numbers.

The heavy simulation inputs are session fixtures (see conftest), so the
wall-clock budgets asserted here cover the actual compute, wherever in
the session it happened. Criterion 5 is expected to fail: the measured
late-time decay of the sorting coefficient sits far below the stated
rate target on this scenario, and the gap is structural, not a tuning
artifact. The analysis lives in the README; the test still asserts
the criterion as stated rather than codifying the weaker behavior.
"""

import re
import time

import numpy as np
from scipy.stats import chi2

from entrydyn.abm import AllEqual, Gaussian, TwoSpike, ensemble_run
from entrydyn.analysis import (
    aggregate_learning_fit,
    compare_series,
    sorting_fit,
    within_factor,
)
from entrydyn.cli import main
from entrydyn.core import GameParams, LearningRule, aggregate_learning_rate, learning_constant, sorting_rate
from entrydyn.grid import GridSpec
from entrydyn.kinetic import SolverOptions, _Stencil, diffusion_coefficient, solve
from entrydyn.observables import ObservableSeries
from entrydyn.oracle import enumerate_block

from conftest import (
    ABM_BASIC_PARAMS,
    BASE_SEED,
    GRID,
    MODEL,
    PDE_FICT_PARAMS,
    PDE_PARAMS,
    play_round,
)


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"criterion {criterion} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def early_window(series: ObservableSeries, t_max: float) -> ObservableSeries:
    mask = series.t <= t_max + 1e-12
    return ObservableSeries(t=series.t[mask], a=series.a[mask], b=series.b[mask])


def test_criterion_1_oracle_self_consistency(capsys):
    # exact round law vs the independent-entry recurrence, and the
    # one-round mean propensity change vs its closed form, over 1000
    # random instances of both rules and both probability models, run
    # through the command that checks them: two drawn chunks, enumerated
    # a block at a time
    argv = ["oracle-check", "--instances", "1000", "--seed", str(BASE_SEED), "--tolerance", "1e-12"]
    start = time.perf_counter()
    code = main(argv)
    wall = time.perf_counter() - start
    worst_law, worst_drift = re.findall(r"worst gap (\S+)", capsys.readouterr().out)
    passed = code == 0 and wall < 10.0
    report(
        1,
        passed,
        f"law gap {worst_law}, drift gap {worst_drift} "
        f"(tol 1e-12, exit {code}), {wall:.2f}s (budget 10s)",
    )


def test_criterion_2_simulator_matches_exact_law():
    # three symmetric agents: simulated entrant counts against the
    # enumerated distribution {1/8, 3/8, 3/8, 1/8} at the 99.9% level
    params = GameParams(3, 2, 0.1, 10, LearningRule.BASIC_REINFORCEMENT)
    q = AllEqual(0.0).population(params, np.random.default_rng(0))
    m_probs = enumerate_block([(q, params, MODEL)]).m_probs[0]
    rng = np.random.default_rng(BASE_SEED)
    n_rounds = 100_000
    start = time.perf_counter()
    counts = np.zeros(4)
    for _ in range(n_rounds):
        counts[play_round(q, params, MODEL, rng)[2]] += 1
    wall = time.perf_counter() - start
    expected = n_rounds * m_probs
    statistic = float(np.sum((counts - expected) ** 2 / expected))
    critical = float(chi2.ppf(0.999, 3))
    passed = statistic < critical and wall < 5.0
    report(
        2,
        passed,
        f"chi-square {statistic:.2f} vs critical {critical:.2f} "
        f"over {n_rounds} rounds, {wall:.2f}s (budget 5s)",
    )


def test_criterion_3_density_conservation_and_positivity(pde_acceptance, walls):
    residual = pde_acceptance.max_mass_residual
    lows = [float(f.values.min()) for _, f in pde_acceptance.snapshots]
    lows.append(float(pde_acceptance.final.values.min()))
    low = min(lows)
    wall = walls["pde_acceptance"]
    passed = residual <= 1e-8 and low >= -1e-12 and wall < 60.0
    report(
        3,
        passed,
        f"mass residual {residual:.2e} (tol 1e-8), min density {low:.2e} "
        f"(floor -1e-12), solve {wall:.1f}s (budget 60s)",
    )


def test_criterion_4_aggregate_learning_rate_both_engines(
    pde_acceptance, acceptance_f0, abm_basic_ensemble, init_mean, walls
):
    # fitted |a - kappa| decay within a factor 2 of the moment-equation
    # prediction c_p * r, measured from each engine's own initial state
    c_pde = learning_constant(
        acceptance_f0.centers(), MODEL, PDE_PARAMS.rule, acceptance_f0.values * acceptance_f0.dq
    )
    fit_pde = aggregate_learning_fit(pde_acceptance.series, PDE_PARAMS)
    target_pde = aggregate_learning_rate(PDE_PARAMS, c_pde)

    start_pop = Gaussian(init_mean, 1.5).population(ABM_BASIC_PARAMS, np.random.default_rng(BASE_SEED))
    c_abm = learning_constant(start_pop, MODEL, ABM_BASIC_PARAMS.rule)
    fit_abm = aggregate_learning_fit(abm_basic_ensemble, ABM_BASIC_PARAMS)
    target_abm = aggregate_learning_rate(ABM_BASIC_PARAMS, c_abm)

    wall = walls["abm_basic_ensemble"]
    ok_pde = within_factor(fit_pde.rate, target_pde, 2.0)
    ok_abm = within_factor(fit_abm.rate, target_abm, 2.0)
    passed = ok_pde and ok_abm and wall < 300.0
    report(
        4,
        passed,
        f"pde rate {fit_pde.rate:.1f} vs {target_pde:.1f} "
        f"(ratio {fit_pde.rate / target_pde:.2f}), "
        f"abm rate {fit_abm.rate:.1f} vs {target_abm:.1f} "
        f"(ratio {fit_abm.rate / target_abm:.2f}), factor-2 band, "
        f"ensemble {wall:.1f}s (budget 300s)",
    )


def test_criterion_5_sorting_rate_matches_prediction(pde_acceptance):
    # KNOWN RED: the fitted late-time decay of b undershoots the r*h/2
    # target by roughly two orders of magnitude on this scenario; see
    # the README for the moment-inequality argument that caps the
    # attainable rate well below the target
    fit = sorting_fit(pde_acceptance.series, PDE_PARAMS)
    target = sorting_rate(PDE_PARAMS)
    passed = within_factor(fit.rate, target, 2.0)
    report(
        5,
        passed,
        f"sorting rate {fit.rate:.3f} vs predicted {target:.1f} "
        f"(ratio {fit.rate / target:.2e}), factor-2 band",
    )


def test_criterion_6_time_scale_separation(pde_acceptance):
    # fitted sorting time over fitted learning time: large, and within a
    # factor 6 of the predicted ratio 2/h
    fit_al = aggregate_learning_fit(pde_acceptance.series, PDE_PARAMS)
    fit_s = sorting_fit(pde_acceptance.series, PDE_PARAMS)
    ratio = fit_s.tau / fit_al.tau
    predicted = 2.0 / PDE_PARAMS.payoff_scale
    passed = ratio >= 20.0 and within_factor(ratio, predicted, 6.0)
    report(
        6,
        passed,
        f"fitted tau_s/tau_al {ratio:.0f}, predicted {predicted:.0f}, "
        f"required >= 20 and within factor 6",
    )


def test_criterion_7_engine_agreement_on_learning_window(
    abm_basic_ensemble, abm_fict_ensemble, pde_acceptance, pde_fict_short
):
    # both rules: ensemble-averaged a(t) from 8 replicas of 10^4 agents
    # tracks the density solution within 0.02 over [0, 5 tau_al]
    horizon = 5.0 / PDE_PARAMS.r
    sup_basic = compare_series(
        early_window(abm_basic_ensemble, horizon),
        early_window(pde_acceptance.series, horizon),
        column="a",
    ).sup_norm
    sup_fict = compare_series(
        early_window(abm_fict_ensemble, horizon),
        early_window(pde_fict_short.series, horizon),
        column="a",
    ).sup_norm
    passed = sup_basic <= 0.02 and sup_fict <= 0.02
    report(
        7,
        passed,
        f"sup|a_abm - a_pde| basic {sup_basic:.4f}, "
        f"fictitious {sup_fict:.4f} (tol 0.02)",
    )


def test_criterion_8_sorted_equilibrium_is_stationary():
    # a fully sorted population is a fixed point of both levels
    spec = GridSpec(-16.0, 16.0, 800)
    f0 = TwoSpike(-15.0, 15.0, 0.5).density(spec)
    pde = solve(
        f0, PDE_PARAMS, MODEL, 0.2, SolverOptions(output_interval=0.01)
    )
    pde_drift = float(np.max(np.abs(pde.series.a - PDE_PARAMS.kappa)))
    pde_b = float(np.max(pde.series.b))

    abm = ensemble_run(
        GameParams(1000, 500, 0.01, 100, LearningRule.BASIC_REINFORCEMENT),
        MODEL,
        TwoSpike(-40.0, 40.0, 0.5),
        t_end=0.2,
        n_replicas=4,
        base_seed=BASE_SEED,
    )
    abm_drift = float(np.max(np.abs(abm.a - 0.5) - 4.0 * abm.stderr_a))

    passed = pde_drift <= 1e-6 and pde_b <= 1e-6 and abm_drift <= 1e-12
    report(
        8,
        passed,
        f"pde max|a-kappa| {pde_drift:.2e}, max b {pde_b:.2e} (tol 1e-6); "
        f"abm max(|a-kappa| - 4 stderr) {abm_drift:.2e} (tol 1e-12)",
    )


def test_criterion_9_flux_coefficient_identities(pde_acceptance):
    # at each saved snapshot, on the faces the solver uses: the basic
    # rule's transport satisfies mu = D p and v + D p' = r (kappa - a) p;
    # the uniform rule's v and mu are propensity-independent
    faces = GRID.interior_faces()
    p = MODEL.prob(faces)
    dp = MODEL.dprob(faces)
    stencil = _Stencil(GRID, PDE_PARAMS, MODEL)
    uniform = _Stencil(GRID, PDE_FICT_PARAMS, MODEL)
    worst_mu = 0.0
    worst_v = 0.0
    worst_uniform = 0.0
    for _, density in pde_acceptance.snapshots:
        a, b = stencil.moments(density.values)
        v, mu = stencil.face_coefficients(a, b)
        d_coef = diffusion_coefficient(a, b, PDE_PARAMS)
        drive = PDE_PARAMS.r * (PDE_PARAMS.kappa - a)
        scale = max(1.0, abs(d_coef), abs(drive))
        worst_mu = max(worst_mu, float(np.max(np.abs(mu - d_coef * p))) / scale)
        worst_v = max(worst_v, float(np.max(np.abs(v + d_coef * dp - drive * p))) / scale)

        v_u, mu_u = uniform.face_coefficients(a, b)
        worst_uniform = max(worst_uniform, float(np.ptp(v_u)), float(np.ptp(mu_u)))

    n_snaps = len(pde_acceptance.snapshots)
    passed = (
        n_snaps == 3 and worst_mu <= 1e-12 and worst_v <= 1e-12 and worst_uniform == 0.0
    )
    report(
        9,
        passed,
        f"{n_snaps} snapshots: relative gaps mu {worst_mu:.1e}, "
        f"v {worst_v:.1e} (tol 1e-12); uniform-rule spread {worst_uniform:.1e}",
    )
