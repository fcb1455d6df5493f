"""Independent reference for one `hetmec analytic` report.

Two checks that do not go through hetmec's own latency or quadrature code:

* ``closed_form_coverage`` evaluates every coverage integral of the model in
  closed form.  Each integrand is 2*pi*c*x*exp(-a*x**4 - (pi*c + b)*x**2)
  with c the serving-distance slope, so u = x**2 gives
  pi*c * sqrt(pi/a)/2 * erfcx((pi*c + b) / (2*sqrt(a))).
* ``expected_report`` rebuilds every rate, queue and latency component from
  the association probabilities, loads and coverages the report printed, and
  says whether some cloudlet queue the report needs is unstable.

Scenario values are in configuration-file units (per km2, dBm, dB) and are
converted here the same way hetmec converts them.
"""
from __future__ import annotations

import math

from scipy.special import erfcx

TIERS = ("macro", "small")
SCHEME_CASES = {
    "coupled_access": (("small", "small", "assoc.coupled.small"),
                       ("macro", "macro", "assoc.coupled.macro")),
    "decoupled_ul_proc": (("small", "small", "assoc.decoupled.small_small"),
                          ("macro", "macro", "assoc.decoupled.macro_macro"),
                          ("small", "macro", "assoc.decoupled.small_macro")),
}
SCHEME_CASES["decoupled_dl_proc"] = SCHEME_CASES["decoupled_ul_proc"]
# Probability and coverage keys the report must print, each in [0, 1].
PROBABILITY_KEYS = (
    "assoc.coupled.small", "assoc.coupled.macro",
    "assoc.decoupled.small_small", "assoc.decoupled.macro_macro",
    "assoc.decoupled.small_macro", "assoc.decoupled.macro_small",
    *(f"coverage.ul.{p}.{t}" for p in ("coupled", "decoupled") for t in TIERS),
    *(f"coverage.dl.{f}.{t}" for f in ("scaled_noise", "interference") for t in TIERS),
)


def si(raw: dict) -> dict:
    """The SI quantities the checks need, converted as hetmec converts them."""
    def watts(dbm):
        return 10.0 ** ((dbm - 30.0) / 10.0)

    return {
        "lam": {"macro": raw["lambda_m_per_km2"] * 1.0e-6, "small": raw["lambda_s_per_km2"] * 1.0e-6},
        "lam_u": raw["lambda_u_per_km2"] * 1.0e-6,
        "power": {"macro": watts(raw["p_m_dbm"]), "small": watts(raw["p_s_dbm"])},
        "p_u": watts(raw["p_u_dbm"]),
        "cloudlet": {"macro": raw["f_m_hz"], "small": raw["f_s_hz"]},
        "w_ul": raw["w_ul_hz"],
        "w_dl": raw["w_dl_hz"],
        "noise": watts(raw["noise_dbm"]),
        "b_in": raw["b_in_bits"],
        "b_out": raw["b_out_bits"],
        "cycles": raw["cycles_per_input_bit"] * raw["b_in_bits"],
        "c_bh": raw["c_bh_bps"],
        "gamma_ul": 10.0 ** (raw["gamma_ul_db"] / 10.0),
        "gamma_dl": 10.0 ** (raw["gamma_dl_db"] / 10.0),
        "always": raw["backhaul_mode"] == "always",
    }


def _psi(gamma: float) -> float:
    root = math.sqrt(gamma)
    return root * math.atan(root)


def _integral(slope: float, a: float, b: float) -> float:
    """pi*slope * integral_0^inf exp(-a*u**2 - (pi*slope + b)*u) du."""
    linear = math.pi * slope + b
    if a == 0.0:
        return math.pi * slope / linear
    return math.pi * slope * 0.5 * math.sqrt(math.pi / a) * erfcx(linear / (2.0 * math.sqrt(a)))


def closed_form_coverage(s: dict) -> dict[str, float]:
    """Every coverage value `hetmec analytic` prints, in closed form."""
    out = {}
    for tier in TIERS:
        other = "small" if tier == "macro" else "macro"
        coupled_slope = s["lam"][tier] + s["lam"][other] * math.sqrt(s["power"][other] / s["power"][tier])
        slopes = {"coupled": coupled_slope, "decoupled": s["lam"][tier] + s["lam"][other]}
        g = s["gamma_ul"]
        interference = math.pi * (s["lam"]["macro"] + s["lam"]["small"]) * _psi(g)
        for policy, slope in slopes.items():
            out[f"coverage.ul.{policy}.{tier}"] = _integral(slope, g * s["noise"] / s["p_u"], interference)
        g = s["gamma_dl"]
        noise = g * s["noise"] / s["power"][tier]
        out[f"coverage.dl.scaled_noise.{tier}"] = _integral(coupled_slope, noise * (1.0 + _psi(g)), 0.0)
        out[f"coverage.dl.interference.{tier}"] = _integral(
            coupled_slope, noise, math.pi * _psi(g) * coupled_slope
        )
    return out


def _ul_rate(s: dict, v: dict, policy: str, tier: str) -> float:
    load = v[f"load.{policy}.ul.{tier}"]
    return s["w_ul"] / load * math.log2(1.0 + s["gamma_ul"]) * v[f"coverage.ul.{policy}.{tier}"]


def _dl_rate(s: dict, v: dict, form: str, policy: str, tier: str) -> float:
    load = v[f"load.{policy}.dl.{tier}"]
    return s["w_dl"] / load * math.log2(1.0 + s["gamma_dl"]) * v[f"coverage.dl.{form}.{tier}"]


def _arrival(s: dict, v: dict, scheme: str, ul_tier: str, dl_tier: str) -> float:
    """Requests/s into the executing cloudlet of one association case."""
    if scheme != "decoupled_dl_proc":
        policy = "coupled" if scheme == "coupled_access" else "decoupled"
        return _ul_rate(s, v, policy, ul_tier) * v[f"load.{policy}.ul.{ul_tier}"] / s["b_in"]
    small_users = s["lam_u"] / s["lam"]["small"] * _ul_rate(s, v, "decoupled", "small")
    if dl_tier == "small":
        return small_users * v["assoc.decoupled.small_small"] / s["b_in"]
    own = _ul_rate(s, v, "decoupled", "macro") * v["load.decoupled.ul.macro"]
    return (own + small_users * v["assoc.decoupled.small_macro"]) / s["b_in"]


def expected_report(s: dict, v: dict, form: str) -> tuple[bool, float, dict[str, float]]:
    """(some queue unstable?, margin, expected latency lines) from printed inputs.

    `v` maps every printed key to its value.  The margin is the smallest
    |arrival/service - 1| over the queues, so a caller can skip verdicts that
    rounding could flip.  The latency lines cover the stable cases only.
    """
    unstable = False
    margin = math.inf
    lines = {}
    for scheme, cases in SCHEME_CASES.items():
        policy = "coupled" if scheme == "coupled_access" else "decoupled"
        average = 0.0
        for ul_tier, dl_tier, weight_key in cases:
            weight = v[weight_key]
            if weight <= 0.0:
                continue
            exec_tier = dl_tier if scheme == "decoupled_dl_proc" else ul_tier
            mu = s["cloudlet"][exec_tier] / s["cycles"]
            tau = _arrival(s, v, scheme, ul_tier, dl_tier)
            margin = min(margin, abs(tau / mu - 1.0))
            if tau >= mu:
                unstable = True
                continue
            bits = s["b_in"] if scheme == "decoupled_dl_proc" else s["b_out"]
            crossed = ul_tier != dl_tier
            backhaul = 0.0
            if scheme != "coupled_access" and (crossed or s["always"]):
                backhaul = bits / s["c_bh"]
            ul_rate = _ul_rate(s, v, policy, ul_tier)
            dl_rate = _dl_rate(s, v, form, policy, dl_tier)
            parts = {
                "ul_time_s": math.inf if ul_rate == 0.0 else s["b_in"] / ul_rate,
                "exec_time_s": 1.0 / (mu - tau),
                "backhaul_time_s": backhaul,
                "dl_time_s": math.inf if dl_rate == 0.0 else s["b_out"] / dl_rate,
            }
            parts["total_s"] = sum(parts.values())
            stem = f"case.{scheme}.{ul_tier}_{dl_tier}"
            lines[f"{stem}.weight"] = weight
            lines.update({f"{stem}.{name}": value for name, value in parts.items()})
            average += weight * parts["total_s"]
        lines[f"average.{scheme}.total_s"] = average
    return unstable, margin, lines
