"""Scenario parameters: ingestion, unit conversion and validation.

Everything downstream of this module works in SI units: meters, watts,
hertz, bits, seconds, and densities per square meter.  Configuration files
use field-friendly units (dBm, dB, per km2) and are converted exactly once,
here.  Path loss is pure x**(-alpha) with x in meters; no reference-distance
constant is applied, so absolute SINR values are only meaningful relative to
the Monte Carlo validator, which uses the same convention.

`params_from_raw` only parses and converts; every scenario invariant is
checked once, by `ScenarioParams` itself, so a scenario built directly in SI
units is held to the same rules.  Each violation raises `ConfigError` naming
the configuration key it comes from, and `params_from_raw` adds the raw
value of that key to the message.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from enum import Enum


class ConfigError(ValueError):
    """Raised for unknown keys, bad values, or violated scenario invariants."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class BackhaulMode(Enum):
    # Backhaul delay charged only when the uplink and downlink base
    # stations differ, or unconditionally in every decoupled case.
    CROSS_TIER_ONLY = "cross_tier_only"
    ALWAYS = "always"


def dbm_to_watts(x: float) -> float:
    """Convert a power in dBm to watts: 10**((x - 30) / 10)."""
    return 10.0 ** ((x - 30.0) / 10.0)


def watts_to_dbm(w: float) -> float:
    if w <= 0.0:
        raise ValueError(f"power must be positive to express in dBm, got {w}")
    return 10.0 * math.log10(w) + 30.0


def db_to_linear(x: float) -> float:
    return 10.0 ** (x / 10.0)


def linear_to_db(x: float) -> float:
    if x <= 0.0:
        raise ValueError(f"ratio must be positive to express in dB, got {x}")
    return 10.0 * math.log10(x)


PER_KM2 = 1.0e-6  # one BS (or user) per km2, expressed per m2

# Converting to per m2 rounds each density on its own, so a user density
# equal to lambda_m + lambda_s can land a few ulps below the converted sum.
# A shortfall within this relative slack is rounding, not a violation.
_DENSITY_SLACK = 4.0 * sys.float_info.epsilon


def _covers_bs_density(user_density: float, macro_density: float, small_density: float) -> bool:
    """Whether the user density is at least the total BS density, up to the
    rounding of the unit conversion (see _DENSITY_SLACK)."""
    return user_density >= (macro_density + small_density) * (1.0 - _DENSITY_SLACK)


@dataclass(frozen=True)
class TierParams:
    """One base-station tier: spatial density, transmit power, compute."""

    density: float            # BS per square meter
    tx_power: float           # watts
    cloudlet_capacity: float  # CPU cycles per second


@dataclass(frozen=True)
class ScenarioParams:
    """Validated scenario in SI units; immutable, safe to share across threads.

    Construction checks every invariant of the model, the fields of both
    tiers included, and raises `ConfigError` with `key` set to the
    configuration key of the offending field.  This is the only place a
    scenario is checked.

    The number of CPU cycles per offloaded request is configured as
    cycles_per_input_bit so that sweeps over input_bits rescale the request
    size automatically (see :attr:`cycles_per_request`).
    """

    macro: TierParams
    small: TierParams
    user_density: float        # MU per square meter
    user_tx_power: float       # watts
    ul_bandwidth: float        # Hz
    dl_bandwidth: float        # Hz
    noise_power: float         # watts
    pathloss_exponent: float   # must be exactly 4 (closed forms below need it)
    input_bits: float          # bits uploaded per request
    output_bits: float         # bits returned per request
    cycles_per_input_bit: float
    backhaul_capacity: float   # bits per second
    ul_sinr_threshold: float   # linear ratio
    dl_sinr_threshold: float   # linear ratio
    backhaul_mode: BackhaulMode = BackhaulMode.CROSS_TIER_ONLY

    def __post_init__(self):
        # Each SI field under the configuration key it is converted from.
        positive = {
            "lambda_m_per_km2": self.macro.density,
            "lambda_u_per_km2": self.user_density,
            "p_m_dbm": self.macro.tx_power,
            "p_s_dbm": self.small.tx_power,
            "p_u_dbm": self.user_tx_power,
            "f_m_hz": self.macro.cloudlet_capacity,
            "f_s_hz": self.small.cloudlet_capacity,
            "w_ul_hz": self.ul_bandwidth,
            "w_dl_hz": self.dl_bandwidth,
            "noise_dbm": self.noise_power,
            "b_in_bits": self.input_bits,
            "b_out_bits": self.output_bits,
            "cycles_per_input_bit": self.cycles_per_input_bit,
            "c_bh_bps": self.backhaul_capacity,
            "gamma_ul_db": self.ul_sinr_threshold,
            "gamma_dl_db": self.dl_sinr_threshold,
        }
        for key, value in positive.items():
            if not (0.0 < value < math.inf):
                raise ConfigError(
                    f"key {key!r}: must be a positive finite quantity in SI units, got {value!r}",
                    key=key,
                )
        if not (0.0 <= self.small.density < math.inf):
            raise ConfigError(
                f"key 'lambda_s_per_km2': must be >= 0 and finite, got {self.small.density!r}",
                key="lambda_s_per_km2",
            )
        if self.pathloss_exponent != 4.0:
            raise ConfigError(
                "key 'alpha': only a path-loss exponent of exactly 4 is "
                "supported; the interference factor sqrt(g)*arctan(sqrt(g)) "
                f"of the coverage closed forms is specific to it (got {self.pathloss_exponent!r})",
                key="alpha",
            )
        if not _covers_bs_density(self.user_density, self.macro.density, self.small.density):
            raise ConfigError(
                "key 'lambda_u_per_km2': user density must be at least "
                "lambda_m_per_km2 + lambda_s_per_km2 so the active-uplink "
                f"thinning probability stays <= 1 (got {self.user_density!r} per m2, "
                f"needs >= {self.macro.density + self.small.density!r} per m2)",
                key="lambda_u_per_km2",
            )
        if self.macro.cloudlet_capacity < self.small.cloudlet_capacity:
            raise ConfigError(
                "key 'f_s_hz': small-cell cloudlet capacity must not exceed the macro "
                f"cloudlet capacity (got {self.small.cloudlet_capacity!r} > "
                f"{self.macro.cloudlet_capacity!r})",
                key="f_s_hz",
            )
        if self.macro.tx_power < self.small.tx_power:
            raise ConfigError(
                "key 'p_m_dbm': macro power must be >= small-cell power; the zero "
                "probability of the (macro uplink, small downlink) association case "
                f"relies on it (got {self.macro.tx_power!r} W < {self.small.tx_power!r} W)",
                key="p_m_dbm",
            )
        if not math.isfinite(self.macro.tx_power / self.small.tx_power):
            raise ConfigError(
                "key 'p_m_dbm': the macro to small-cell power ratio overflows "
                f"({self.macro.tx_power!r} W / {self.small.tx_power!r} W)",
                key="p_m_dbm",
            )

    @property
    def cycles_per_request(self) -> float:
        """CPU cycles per offloaded request: cycles_per_input_bit * input_bits."""
        return self.cycles_per_input_bit * self.input_bits


# Configuration keys, in canonical emission order, with their defaults.
# Values in the file are plain numbers except backhaul_mode, which takes
# "cross_tier_only" or "always".
RAW_DEFAULTS: dict[str, float | str] = {
    "lambda_m_per_km2": 1.0,
    "lambda_s_per_km2": 10.0,
    "lambda_u_per_km2": 25.0,
    "p_m_dbm": 46.0,
    "p_s_dbm": 30.0,
    "p_u_dbm": 20.0,
    "f_m_hz": 4.5e9,
    "f_s_hz": 3.6e9,
    "w_ul_hz": 1.4e6,
    "w_dl_hz": 1.4e6,
    "noise_dbm": -120.0,
    "alpha": 4.0,
    "b_in_bits": 4000.0,
    "b_out_bits": 1000.0,
    "cycles_per_input_bit": 2640.0,
    "c_bh_bps": 1.0e7,
    "gamma_ul_db": -10.0,
    "gamma_dl_db": -10.0,
    "backhaul_mode": "cross_tier_only",
}


def parse_config_text(text: str) -> dict[str, float | str]:
    """Parse a flat key=value document into a raw mapping (defaults applied).

    Lines are ``key = value``; blank lines and ``#`` comments are ignored.
    Unknown keys, keys given twice and non-numeric values are rejected.
    """
    raw: dict[str, float | str] = dict(RAW_DEFAULTS)
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = body.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in RAW_DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}", key=key)
        if key in first_line:
            raise ConfigError(
                f"line {lineno}: key {key!r} already given on line {first_line[key]}", key=key
            )
        first_line[key] = lineno
        if key == "backhaul_mode":
            raw[key] = value.lower()
            continue
        try:
            raw[key] = float(value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: non-numeric value {value!r} for key {key!r}",
                key=key,
            ) from None
    return raw


def params_from_raw(raw: dict[str, float | str]) -> ScenarioParams:
    """Convert a raw config mapping to SI units and build the scenario.

    Only unknown keys, non-numeric or non-finite values, a bad backhaul_mode
    and unit conversions that overflow are caught here; every other check is
    made by `ScenarioParams`.  A `ConfigError` it raises gains the raw value
    of its key, so unit mistakes are visible at a glance.
    """
    merged: dict[str, float | str] = dict(RAW_DEFAULTS)
    for key in raw:
        if key not in RAW_DEFAULTS:
            raise ConfigError(f"unknown key {key!r}", key=key)
        merged[key] = raw[key]

    num: dict[str, float] = {}
    for key, value in merged.items():
        if key == "backhaul_mode":
            continue
        if not isinstance(value, (int, float)) or not math.isfinite(float(value)):
            raise ConfigError(f"key {key!r}: expected a finite number, got {value!r}", key=key)
        num[key] = float(value)

    mode_text = str(merged["backhaul_mode"]).lower()
    try:
        mode = BackhaulMode(mode_text)
    except ValueError:
        raise ConfigError(
            f"key 'backhaul_mode': expected 'cross_tier_only' or 'always', got {mode_text!r}",
            key="backhaul_mode",
        ) from None

    def convert(key: str, to_si) -> float:
        try:
            return to_si(num[key])
        except OverflowError:
            raise ConfigError(f"key {key!r}: overflows in SI units", key=key) from None

    try:
        return ScenarioParams(
            macro=TierParams(
                density=num["lambda_m_per_km2"] * PER_KM2,
                tx_power=convert("p_m_dbm", dbm_to_watts),
                cloudlet_capacity=num["f_m_hz"],
            ),
            small=TierParams(
                density=num["lambda_s_per_km2"] * PER_KM2,
                tx_power=convert("p_s_dbm", dbm_to_watts),
                cloudlet_capacity=num["f_s_hz"],
            ),
            user_density=num["lambda_u_per_km2"] * PER_KM2,
            user_tx_power=convert("p_u_dbm", dbm_to_watts),
            ul_bandwidth=num["w_ul_hz"],
            dl_bandwidth=num["w_dl_hz"],
            noise_power=convert("noise_dbm", dbm_to_watts),
            pathloss_exponent=num["alpha"],
            input_bits=num["b_in_bits"],
            output_bits=num["b_out_bits"],
            cycles_per_input_bit=num["cycles_per_input_bit"],
            backhaul_capacity=num["c_bh_bps"],
            ul_sinr_threshold=convert("gamma_ul_db", db_to_linear),
            dl_sinr_threshold=convert("gamma_dl_db", db_to_linear),
            backhaul_mode=mode,
        )
    except ConfigError as exc:
        # Quote the raw value in place, so the error keeps its type and key.
        exc.args = (f"{exc} (raw {exc.key} = {merged[exc.key]!r})",) + exc.args[1:]
        raise


def parse_config(text: str) -> ScenarioParams:
    """Parse a configuration document; an empty document yields the defaults."""
    return params_from_raw(parse_config_text(text))


def default_params() -> ScenarioParams:
    return params_from_raw({})


def raw_from_params(params: ScenarioParams) -> dict[str, float | str]:
    """Invert the unit conversions back to the configuration-file units."""
    return {
        "lambda_m_per_km2": params.macro.density / PER_KM2,
        "lambda_s_per_km2": params.small.density / PER_KM2,
        "lambda_u_per_km2": params.user_density / PER_KM2,
        "p_m_dbm": watts_to_dbm(params.macro.tx_power),
        "p_s_dbm": watts_to_dbm(params.small.tx_power),
        "p_u_dbm": watts_to_dbm(params.user_tx_power),
        "f_m_hz": params.macro.cloudlet_capacity,
        "f_s_hz": params.small.cloudlet_capacity,
        "w_ul_hz": params.ul_bandwidth,
        "w_dl_hz": params.dl_bandwidth,
        "noise_dbm": watts_to_dbm(params.noise_power),
        "alpha": params.pathloss_exponent,
        "b_in_bits": params.input_bits,
        "b_out_bits": params.output_bits,
        "cycles_per_input_bit": params.cycles_per_input_bit,
        "c_bh_bps": params.backhaul_capacity,
        "gamma_ul_db": linear_to_db(params.ul_sinr_threshold),
        "gamma_dl_db": linear_to_db(params.dl_sinr_threshold),
        "backhaul_mode": params.backhaul_mode.value,
    }


def canonical_config(params: ScenarioParams) -> str:
    """Emit a config document that parses back to (floating-point) identical params.

    Numbers are written with repr precision, so the only loss on a round trip
    is the last-ulp wobble of the dBm/dB transforms.
    """
    raw = raw_from_params(params)
    return "".join(f"{key} = {raw[key]}\n" for key in RAW_DEFAULTS)
