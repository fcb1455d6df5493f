import math
import random

import numpy as np
import pytest
from scipy.integrate import quad

from hetmec.association import (
    Link,
    Policy,
    Tier,
    association_report,
    coupled_probs,
    decoupled_probs,
    marginals,
    power_ratio_factor,
)
from hetmec.config import params_from_raw
from oracles import serving_distance_pdf

DEFAULTS = params_from_raw({})


def scenario(**raw):
    return params_from_raw(raw)


def random_scenario(rng: random.Random):
    lam_m = rng.uniform(0.2, 4.0)
    lam_s = rng.uniform(0.2, 40.0)
    p_s = rng.uniform(20.0, 33.0)
    return scenario(
        lambda_m_per_km2=lam_m,
        lambda_s_per_km2=lam_s,
        lambda_u_per_km2=(lam_m + lam_s) * rng.uniform(1.0, 5.0),
        p_s_dbm=p_s,
        p_m_dbm=p_s + rng.uniform(0.0, 20.0),
    )


def test_power_ratio_factor_reference_values():
    assert power_ratio_factor(DEFAULTS) == pytest.approx(10 ** 0.8, rel=1e-12)
    assert power_ratio_factor(DEFAULTS) == pytest.approx(6.3096, abs=1e-4)
    equal = scenario(p_m_dbm=30.0, p_s_dbm=30.0)
    assert power_ratio_factor(equal) == pytest.approx(1.0, rel=1e-12)
    ratio16 = scenario(p_m_dbm=30.0 + 10 * math.log10(16.0), p_s_dbm=30.0)
    assert power_ratio_factor(ratio16) == pytest.approx(4.0, rel=1e-12)


def test_coupled_probs_default_scenario():
    a_ss, a_mm = coupled_probs(DEFAULTS)
    # independent arithmetic: lam_s / (lam_s + (p_m/p_s)**(1/2) * lam_m)
    factor = (10 ** 1.6) ** 0.5
    assert a_ss == pytest.approx(10.0 / (10.0 + factor), rel=1e-12)
    assert a_ss == pytest.approx(0.61314, abs=1e-5)
    assert a_mm == pytest.approx(0.38686, abs=1e-5)
    assert a_ss + a_mm == pytest.approx(1.0, abs=1e-12)


def test_coupled_probs_degenerate_cases():
    assert coupled_probs(scenario(lambda_s_per_km2=0.0)) == (0.0, 1.0)
    symmetric = scenario(p_m_dbm=30.0, p_s_dbm=30.0, lambda_s_per_km2=1.0, lambda_u_per_km2=25.0)
    a_ss, a_mm = coupled_probs(symmetric)
    assert a_ss == pytest.approx(0.5, rel=1e-12)
    assert a_mm == pytest.approx(0.5, rel=1e-12)


def test_decoupled_probs_default_scenario():
    a_ss, a_mm, a_sm, a_ms = decoupled_probs(DEFAULTS)
    assert a_ss == pytest.approx(0.61314, abs=1e-5)
    assert a_mm == pytest.approx(0.09091, abs=1e-5)
    assert a_sm == pytest.approx(0.29595, abs=1e-5)
    assert a_ms == 0.0
    assert a_ss + a_mm + a_sm + a_ms == pytest.approx(1.0, abs=1e-12)


def test_decoupled_collapses_to_coupled_at_equal_power():
    p = scenario(p_m_dbm=30.0, p_s_dbm=30.0)
    a_ss_u, a_mm_u, a_sm_u, _ = decoupled_probs(p)
    a_ss_d, a_mm_d = coupled_probs(p)
    assert a_sm_u == pytest.approx(0.0, abs=1e-15)
    assert a_ss_u == pytest.approx(a_ss_d, rel=1e-12)
    assert a_mm_u == pytest.approx(a_mm_d, rel=1e-12)


def test_dense_small_tier_limit():
    p = scenario(lambda_s_per_km2=10000.0, lambda_u_per_km2=20000.0)
    a_ss, _, _, _ = decoupled_probs(p)
    assert a_ss > 0.999


def test_small_macro_share_monotone_in_power_ratio():
    previous = -1.0
    for p_m in range(30, 51, 2):
        p = scenario(p_m_dbm=float(p_m), p_s_dbm=30.0)
        a_sm = decoupled_probs(p)[2]
        assert a_sm >= previous - 1e-15
        previous = a_sm


def test_marginals_identities_default():
    report = association_report(DEFAULTS)
    assert report.a_ul[Tier.SMALL] == pytest.approx(0.90909, abs=1e-5)
    assert report.a_ul[Tier.MACRO] == pytest.approx(0.09091, abs=1e-5)
    assert report.a_dl[Tier.MACRO] == pytest.approx(report.a_mm_d, abs=1e-12)
    assert report.a_dl[Tier.SMALL] == pytest.approx(report.a_ss_d, abs=1e-12)
    assert report.a_ul[Tier.MACRO] + report.a_ul[Tier.SMALL] == pytest.approx(1.0, abs=1e-12)
    assert report.a_dl[Tier.MACRO] + report.a_dl[Tier.SMALL] == pytest.approx(1.0, abs=1e-12)


def test_marginal_identities_fuzzed():
    rng = random.Random(777)
    for _ in range(100):
        p = random_scenario(rng)
        a_ul, a_dl = marginals(decoupled_probs(p))
        a_ss_d, a_mm_d = coupled_probs(p)
        lam_m, lam_s = p.macro.density, p.small.density
        assert a_dl[Tier.SMALL] == pytest.approx(a_ss_d, abs=1e-12)
        assert a_dl[Tier.MACRO] == pytest.approx(a_mm_d, abs=1e-12)
        assert a_ul[Tier.SMALL] == pytest.approx(lam_s / (lam_m + lam_s), abs=1e-12)
        assert a_ul[Tier.MACRO] == pytest.approx(lam_m / (lam_m + lam_s), abs=1e-12)


def test_mean_load_reference_values():
    load = association_report(DEFAULTS).load
    assert load[Policy.COUPLED, Link.UL, Tier.SMALL] == pytest.approx(
        25.0 * 0.613136820153143 / 10.0, rel=1e-9
    )
    assert load[Policy.COUPLED, Link.UL, Tier.SMALL] == pytest.approx(1.5328, abs=1e-4)
    assert load[Policy.COUPLED, Link.UL, Tier.MACRO] == pytest.approx(9.6716, abs=1e-4)
    assert load[Policy.DECOUPLED, Link.UL, Tier.SMALL] == pytest.approx(25.0 / 11.0, rel=1e-12)
    # association probability 1 and matching densities give one user per BS
    single = association_report(
        scenario(lambda_s_per_km2=0.0, lambda_u_per_km2=1.0, lambda_m_per_km2=1.0)
    ).load
    assert single[Policy.COUPLED, Link.UL, Tier.MACRO] == pytest.approx(1.0, rel=1e-12)
    assert single[Policy.COUPLED, Link.UL, Tier.SMALL] == 0.0


@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("tier", list(Tier))
def test_serving_distance_pdf_normalizes(policy, tier):
    total, _ = quad(lambda x: serving_distance_pdf(DEFAULTS, policy, tier, x), 0.0, math.inf)
    assert total == pytest.approx(1.0, abs=1e-8)


def test_serving_distance_pdf_vanishes_at_zero():
    assert serving_distance_pdf(DEFAULTS, Policy.DECOUPLED, Tier.SMALL, 0.0) == 0.0


def test_decoupled_pdf_mode_location():
    # argmax of x * exp(-(lam_m + lam_s) * pi * x^2) is 1 / sqrt(2 pi (lam_m + lam_s))
    lam_total = DEFAULTS.macro.density + DEFAULTS.small.density
    expected = 1.0 / math.sqrt(2.0 * math.pi * lam_total)
    assert expected == pytest.approx(120.3, abs=0.1)
    grid = np.linspace(1.0, 500.0, 20000)
    values = serving_distance_pdf(DEFAULTS, Policy.DECOUPLED, Tier.SMALL, grid)
    assert grid[np.argmax(values)] == pytest.approx(expected, abs=0.05)


def test_coupled_pdf_equals_decoupled_at_equal_power():
    p = scenario(p_m_dbm=30.0, p_s_dbm=30.0)
    grid = np.linspace(0.0, 1000.0, 257)
    for tier in Tier:
        np.testing.assert_allclose(
            serving_distance_pdf(p, Policy.COUPLED, tier, grid),
            serving_distance_pdf(p, Policy.DECOUPLED, tier, grid),
            rtol=1e-12,
        )


def test_zero_density_tier_pdf_is_zero():
    p = scenario(lambda_s_per_km2=0.0)
    grid = np.linspace(0.0, 1000.0, 11)
    assert np.all(serving_distance_pdf(p, Policy.COUPLED, Tier.SMALL, grid) == 0.0)
