import math

import numpy as np
import pytest
from scipy.integrate import quad

from hetmec.association import (
    Policy,
    Tier,
    coupled_probs,
    decoupled_probs,
    distance_pdf_slope,
    marginals,
    tier_params,
)
from hetmec.config import params_from_raw
import hetmec.coverage
from hetmec.coverage import (
    DlCoverageForm,
    dl_coverage,
    psi,
    thinned_user_density,
    ul_coverage,
)
from hetmec.latency import operating_point
from oracles import (
    dl_coverage_interference_limited,
    serving_distance_pdf,
    ul_coverage_interference_limited,
)

DEFAULTS = params_from_raw({})
GAMMA_GRID_DB = np.linspace(-20.0, 10.0, 20)


def test_psi_reference_values():
    assert psi(1.0) == pytest.approx(math.pi / 4.0, rel=1e-12)
    assert psi(0.0) == 0.0
    # series evaluation: g * (1 - g/3 + g^2/5 - g^3/7 + ...) at g = 0.1
    g = 0.1
    series = g * sum((-g) ** k / (2 * k + 1) for k in range(30))
    assert psi(0.1) == pytest.approx(series, rel=1e-12)
    assert psi(0.1) == pytest.approx(0.0968534, abs=1e-7)


def test_psi_strictly_increasing():
    values = [psi(float(g)) for g in np.linspace(0.0, 20.0, 200)]
    assert all(later > earlier for earlier, later in zip(values, values[1:]))


@pytest.mark.parametrize("gamma", [0.0, 0.1, 1.0, 1e300, np.float64(0.1)])
def test_psi_returns_a_builtin_float(gamma):
    assert type(psi(gamma)) is float


def test_thinned_user_density_equals_bs_density():
    assert thinned_user_density(DEFAULTS) == pytest.approx(
        DEFAULTS.macro.density + DEFAULTS.small.density, rel=1e-15
    )


@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("tier", list(Tier))
def test_ul_coverage_tends_to_one_at_tiny_threshold(policy, tier):
    cov = ul_coverage(DEFAULTS, policy, tier, 1e-12)
    assert cov == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("form", list(DlCoverageForm))
@pytest.mark.parametrize("tier", list(Tier))
def test_dl_coverage_tends_to_one_at_tiny_threshold(tier, form):
    cov = dl_coverage(DEFAULTS, tier, 1e-12, form=form)
    assert cov == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("tier", list(Tier))
def test_ul_coverage_monotone_in_threshold(policy, tier):
    values = [
        ul_coverage(DEFAULTS, policy, tier, 10 ** (db / 10.0))
        for db in GAMMA_GRID_DB
    ]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 1.0 + 1e-9 for v in values)


@pytest.mark.parametrize("form", list(DlCoverageForm))
def test_dl_coverage_monotone_in_threshold(form):
    values = [
        dl_coverage(DEFAULTS, Tier.MACRO, 10 ** (db / 10.0), form=form)
        for db in GAMMA_GRID_DB
    ]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("tier", list(Tier))
@pytest.mark.parametrize("gamma_db", [-15.0, -10.0, 0.0, 5.0])
def test_ul_noise_free_closed_form(policy, tier, gamma_db):
    # With the noise term suppressed the integral reduces to the
    # interference-limited closed form; the general one must reproduce it to 1e-8.
    gamma = 10 ** (gamma_db / 10.0)
    quiet = params_from_raw({"noise_dbm": -300.0})
    cov = ul_coverage(quiet, policy, tier, gamma)
    closed = ul_coverage_interference_limited(quiet, policy, tier, gamma)
    assert cov == pytest.approx(closed, abs=1e-8)


def test_dl_interference_form_closed_form():
    gamma = 0.1
    quiet = params_from_raw({"noise_dbm": -300.0})
    for tier in Tier:
        cov = dl_coverage(quiet, tier, gamma, form=DlCoverageForm.INTERFERENCE)
        assert cov == pytest.approx(
            dl_coverage_interference_limited(gamma), abs=1e-8
        )
        assert cov == pytest.approx(1.0 / (1.0 + psi(gamma)), abs=1e-8)


@pytest.mark.parametrize("form", list(DlCoverageForm))
@pytest.mark.parametrize("tier", list(Tier))
def test_dl_coverage_policy_independent(tier, form):
    # The decoupled downlink marginal normalizer coincides with the coupled
    # association probability, so one coverage value (and, with equal DL
    # loads, one DL rate) serves both policies.
    _, a_dl = marginals(decoupled_probs(DEFAULTS))
    a_ss, a_mm = coupled_probs(DEFAULTS)
    assert a_dl[tier] == pytest.approx(a_ss if tier is Tier.SMALL else a_mm, abs=1e-10)
    point = operating_point(params_from_raw({"gamma_dl_db": -10.0}), form)
    assert point.dl_rate[Policy.COUPLED, tier] == pytest.approx(
        point.dl_rate[Policy.DECOUPLED, tier], rel=1e-10
    )


ORACLE_SCENARIOS = [
    {"noise_dbm": noise, "gamma_ul_db": gamma_db, "gamma_dl_db": gamma_db}
    for noise in (-300.0, -120.0, -90.0, -60.0)
    for gamma_db in (-20.0, -10.0, 0.0, 10.0, 20.0, 200.0)
] + [
    # gamma_ul * N / P_u underflows to exactly 0 (the noise-free branch), while
    # the downlink noise coefficients at the default threshold are subnormal.
    {"noise_dbm": -3100.0, "gamma_ul_db": -120.0},
]


def _oracle_coverage(params, form, policy, tier):
    """Coverage by scipy quadrature of the Rayleigh success probability
    exp(-a*x^4 - b*x^2) against the serving-distance PDF."""
    own, other = tier_params(params, tier), tier_params(params, tier.other)
    if form == "ul":
        gamma = params.ul_sinr_threshold
        a = gamma * params.noise_power / params.user_tx_power
        b = math.pi * (params.macro.density + params.small.density) * psi(gamma)
        pdf_policy = policy
    else:
        gamma = params.dl_sinr_threshold
        a = gamma * params.noise_power / own.tx_power
        b = 0.0
        if form is DlCoverageForm.SCALED_NOISE:
            a *= 1.0 + psi(gamma)
        else:
            equivalent = own.density + other.density * math.sqrt(other.tx_power / own.tx_power)
            b = math.pi * psi(gamma) * equivalent
        pdf_policy = Policy.COUPLED

    def integrand(x):
        return math.exp(-a * x**4 - b * x**2) * serving_distance_pdf(params, pdf_policy, tier, x)

    # The mass sits within `scale` of the origin (about 1 mm at 200 dB); split
    # there so the adaptive rule cannot step over it.
    scale = 1.0 / math.sqrt(math.pi * distance_pdf_slope(params, pdf_policy, tier) + b)
    if a > 0.0:
        scale = min(scale, a**-0.25)
    pieces = ((0.0, scale), (scale, 10.0 * scale), (10.0 * scale, math.inf))
    return sum(
        quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12, limit=200)[0] for lo, hi in pieces
    )


@pytest.mark.parametrize(
    "raw", ORACLE_SCENARIOS, ids=lambda raw: ",".join(f"{k}={v:g}" for k, v in raw.items())
)
@pytest.mark.parametrize("form", ["ul", *DlCoverageForm], ids=lambda f: getattr(f, "value", f))
@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("tier", list(Tier))
def test_closed_form_matches_quadrature_oracle(raw, form, policy, tier):
    params = params_from_raw(raw)
    if form == "ul":
        got = ul_coverage(params, policy, tier, params.ul_sinr_threshold)
    else:
        got = dl_coverage(params, tier, params.dl_sinr_threshold, form=form)
    want = _oracle_coverage(params, form, policy, tier)
    assert want > 0.0
    assert math.isclose(got, want, rel_tol=1e-9), (got, want)


def test_ul_coverage_monotone_in_interferer_density(monkeypatch):
    # The interfering-user density is varied on its own, leaving the BS
    # densities that shape the serving-distance PDF as they are.
    gamma = 0.1
    values = []
    for lam in np.linspace(0.0, 5e-5, 8):
        monkeypatch.setattr(hetmec.coverage, "thinned_user_density", lambda params: lam)
        values.append(ul_coverage(DEFAULTS, Policy.DECOUPLED, Tier.SMALL, gamma))
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))


def test_rejects_nonpositive_threshold_and_empty_tier():
    with pytest.raises(ValueError):
        ul_coverage(DEFAULTS, Policy.COUPLED, Tier.SMALL, 0.0)
    empty = params_from_raw({"lambda_s_per_km2": 0.0})
    with pytest.raises(ValueError):
        ul_coverage(empty, Policy.COUPLED, Tier.SMALL, 0.1)
    with pytest.raises(ValueError):
        dl_coverage(empty, Tier.SMALL, 0.1)
