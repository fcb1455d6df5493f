import math
from dataclasses import replace

import pytest

from hetmec.config import (
    BackhaulMode,
    ConfigError,
    PER_KM2,
    ScenarioParams,
    TierParams,
    canonical_config,
    dbm_to_watts,
    default_params,
    parse_config,
    params_from_raw,
    raw_from_params,
    watts_to_dbm,
)


def test_dbm_to_watts_reference_points():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-12)
    assert dbm_to_watts(0.0) == pytest.approx(1.0e-3, rel=1e-12)
    assert dbm_to_watts(20.0) == pytest.approx(0.1, rel=1e-12)
    assert dbm_to_watts(46.0) == pytest.approx(39.8107, rel=1e-4)
    assert dbm_to_watts(-120.0) == pytest.approx(1.0e-15, rel=1e-12)


def test_dbm_round_trip_is_tight():
    for x in range(-200, 101, 7):
        assert watts_to_dbm(dbm_to_watts(float(x))) == pytest.approx(float(x), rel=1e-12, abs=1e-12)


def test_empty_document_yields_reference_scenario():
    p = parse_config("")
    assert p.macro.density == pytest.approx(1.0 * PER_KM2)
    assert p.small.density == pytest.approx(10.0 * PER_KM2)
    assert p.user_density == pytest.approx(25.0 * PER_KM2)
    assert p.macro.tx_power == pytest.approx(dbm_to_watts(46.0))
    assert p.small.tx_power == pytest.approx(1.0)
    assert p.user_tx_power == pytest.approx(0.1)
    assert p.macro.cloudlet_capacity == 4.5e9
    assert p.small.cloudlet_capacity == 3.6e9
    assert p.ul_bandwidth == p.dl_bandwidth == 1.4e6
    assert p.noise_power == pytest.approx(1.0e-15)
    assert p.pathloss_exponent == 4.0
    assert p.input_bits == 4000.0
    assert p.output_bits == 1000.0
    assert p.cycles_per_request == pytest.approx(2640.0 * 4000.0)
    assert p.backhaul_capacity == 1.0e7
    assert p.ul_sinr_threshold == pytest.approx(0.1)
    assert p.dl_sinr_threshold == pytest.approx(0.1)
    assert p.backhaul_mode is BackhaulMode.CROSS_TIER_ONLY


def test_comments_and_blank_lines_are_ignored():
    text = """
    # scenario tweak
    lambda_s_per_km2 = 20   # denser small cells

    gamma_ul_db = -5
    """
    p = parse_config(text)
    assert p.small.density == pytest.approx(20.0 * PER_KM2)
    assert p.ul_sinr_threshold == pytest.approx(10 ** -0.5)


def test_unknown_key_is_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("lambda_z_per_km2 = 3")


def test_key_given_twice_is_rejected_naming_both_lines():
    text = "gamma_ul_db = -10\n# the second value must not silently win\ngamma_ul_db = 5\n"
    with pytest.raises(ConfigError) as excinfo:
        parse_config(text)
    assert excinfo.value.key == "gamma_ul_db"
    assert str(excinfo.value) == "line 3: key 'gamma_ul_db' already given on line 1"


def test_non_numeric_value_is_rejected():
    with pytest.raises(ConfigError, match="non-numeric"):
        parse_config("p_m_dbm = fortysix")


def test_user_density_below_bs_density_names_thinning():
    with pytest.raises(ConfigError, match="thinning") as excinfo:
        parse_config("lambda_u_per_km2 = 5")
    assert excinfo.value.key == "lambda_u_per_km2"
    # Shortfalls far beyond conversion rounding stay violations at every ratio.
    for ratio in range(1, 1001):
        total = 1.0 + ratio
        for lam_u in (total - 0.5, total * (1.0 - 1e-9), total * (1.0 - 1e-13)):
            raw = {"lambda_s_per_km2": float(ratio), "lambda_u_per_km2": lam_u}
            with pytest.raises(ConfigError, match="thinning") as excinfo:
                params_from_raw(raw)
            assert excinfo.value.key == "lambda_u_per_km2"


def test_user_density_equal_to_bs_density_is_accepted_at_every_ratio():
    # lambda_u == lambda_m + lambda_s is the thinning bound itself.  Each
    # density rounds on its own when converted to per m2 (9 per km2 is one
    # such ratio), so the converted sum can exceed the converted lambda_u by
    # an ulp; that must not read as a violation, nor on a canonical round trip.
    for ratio in range(1, 1001):
        raw = {"lambda_s_per_km2": float(ratio), "lambda_u_per_km2": 1.0 + ratio}
        p = params_from_raw(raw)
        assert p.user_density == pytest.approx(p.macro.density + p.small.density, rel=1e-15)
        parse_config(canonical_config(p))


def test_direct_construction_accepts_user_density_at_bs_density():
    # The per-m2 sum 1e-6 + 9e-6 rounds above 1e-5; ScenarioParams built
    # straight in SI units takes it as equality, like params_from_raw.
    macro = TierParams(density=1.0 * PER_KM2, tx_power=40.0, cloudlet_capacity=4.5e9)
    small = TierParams(density=9.0 * PER_KM2, tx_power=1.0, cloudlet_capacity=3.6e9)
    assert 10.0 * PER_KM2 < macro.density + small.density
    p = replace(default_params(), macro=macro, small=small, user_density=10.0 * PER_KM2)
    assert p.user_density == 10.0 * PER_KM2
    with pytest.raises(ValueError, match="thinning"):
        replace(p, user_density=9.99 * PER_KM2)


def test_alpha_other_than_four_is_rejected():
    with pytest.raises(ConfigError, match="alpha"):
        parse_config("alpha = 3.5")


def test_power_ordering_enforced():
    with pytest.raises(ConfigError, match="p_m_dbm"):
        parse_config("p_m_dbm = 20\np_s_dbm = 30")


def test_cloudlet_capacity_ordering_enforced():
    with pytest.raises(ConfigError, match="f_s_hz"):
        parse_config("f_s_hz = 5e9")


def test_backhaul_mode_values():
    assert parse_config("backhaul_mode = always").backhaul_mode is BackhaulMode.ALWAYS
    assert (
        parse_config("backhaul_mode = CROSS_TIER_ONLY").backhaul_mode
        is BackhaulMode.CROSS_TIER_ONLY
    )
    with pytest.raises(ConfigError, match="backhaul_mode"):
        parse_config("backhaul_mode = sometimes")


def test_zero_small_density_degenerates_to_single_tier():
    p = parse_config("lambda_s_per_km2 = 0")
    assert p.small.density == 0.0
    assert p.macro.density > 0.0


def test_canonical_round_trip_default():
    p = default_params()
    again = parse_config(canonical_config(p))
    for key, value in raw_from_params(p).items():
        other = raw_from_params(again)[key]
        if isinstance(value, float):
            assert other == pytest.approx(value, rel=1e-12, abs=1e-300), key
        else:
            assert other == value


def test_canonical_round_trip_fuzzed():
    import random

    rng = random.Random(12345)
    for _ in range(20):
        lam_m = rng.uniform(0.2, 4.0)
        lam_s = rng.uniform(lam_m, 40.0)
        raw = {
            "lambda_m_per_km2": lam_m,
            "lambda_s_per_km2": lam_s,
            "lambda_u_per_km2": (lam_m + lam_s) * rng.uniform(1.0, 4.0),
            "p_s_dbm": rng.uniform(20.0, 33.0),
            "p_m_dbm": rng.uniform(33.0, 50.0),
            "gamma_ul_db": rng.uniform(-20.0, 10.0),
            "gamma_dl_db": rng.uniform(-20.0, 10.0),
            "c_bh_bps": 10 ** rng.uniform(3.5, 8.0),
        }
        p = params_from_raw(raw)
        again = parse_config(canonical_config(p))
        assert again.macro.density == pytest.approx(p.macro.density, rel=1e-12)
        assert again.macro.tx_power == pytest.approx(p.macro.tx_power, rel=1e-12)
        assert again.ul_sinr_threshold == pytest.approx(p.ul_sinr_threshold, rel=1e-12)
        assert again.backhaul_capacity == pytest.approx(p.backhaul_capacity, rel=1e-12)


def test_direct_construction_validates_invariants():
    macro = TierParams(density=1e-6, tx_power=40.0, cloudlet_capacity=4.5e9)
    small = TierParams(density=1e-5, tx_power=1.0, cloudlet_capacity=3.6e9)
    with pytest.raises(ValueError, match="thinning"):
        ScenarioParams(
            macro=macro,
            small=small,
            user_density=5e-6,
            user_tx_power=0.1,
            ul_bandwidth=1.4e6,
            dl_bandwidth=1.4e6,
            noise_power=1e-15,
            pathloss_exponent=4.0,
            input_bits=4000.0,
            output_bits=1000.0,
            cycles_per_input_bit=2640.0,
            backhaul_capacity=1e7,
            ul_sinr_threshold=0.1,
            dl_sinr_threshold=0.1,
        )
    # A tier is checked by the scenario that holds it, under its config key.
    small = TierParams(density=-1.0, tx_power=1.0, cloudlet_capacity=1.0)
    with pytest.raises(ConfigError) as excinfo:
        replace(default_params(), small=small)
    assert excinfo.value.key == "lambda_s_per_km2"


@pytest.mark.parametrize(
    "raw, key",
    [
        ({"p_m_dbm": 4000.0}, "p_m_dbm"),
        ({"gamma_ul_db": 4000.0}, "gamma_ul_db"),
        ({"gamma_dl_db": -4000.0}, "gamma_dl_db"),
        ({"p_s_dbm": -4000.0}, "p_s_dbm"),
        ({"lambda_s_per_km2": -1.0}, "lambda_s_per_km2"),
        ({"alpha": 3.0}, "alpha"),
        ({"f_s_hz": 5e9}, "f_s_hz"),
        ({"p_m_dbm": 20.0, "p_s_dbm": 30.0}, "p_m_dbm"),
        ({"lambda_u_per_km2": 5.0}, "lambda_u_per_km2"),
        ({"b_in_bits": 0.0}, "b_in_bits"),
        ({"p_m_dbm": 3000.0, "p_s_dbm": -3000.0}, "p_m_dbm"),
    ],
)
def test_each_rejection_names_its_key_and_quotes_the_raw_value(raw, key):
    with pytest.raises(ConfigError) as excinfo:
        params_from_raw(raw)
    assert excinfo.value.key == key
    assert repr(raw[key]) in str(excinfo.value)


def test_cycles_rescale_with_input_bits():
    p = parse_config("b_in_bits = 8000")
    assert p.cycles_per_request == pytest.approx(2640.0 * 8000.0)
    assert math.isclose(p.cycles_per_request / p.input_bits, 2640.0)
