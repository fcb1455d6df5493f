"""SINR coverage versus threshold, analytically and by simulation.

Prints uplink and downlink coverage across a threshold grid for both
association policies, shows the two downlink integrand shapes side by side,
and closes with a Monte Carlo spot check.
"""
import math

from hetmec import default_params, empirical_coverage
from hetmec.association import Link, Policy, Tier
from hetmec.coverage import DlCoverageForm, dl_coverage, psi, ul_coverage

params = default_params()

print("threshold sweep, uplink coverage")
print(f"{'dB':>6} {'psi':>9} {'coupled S':>10} {'coupled M':>10} {'decoupled':>10}")
for db in range(-20, 12, 4):
    gamma = 10 ** (db / 10)
    cov_s = ul_coverage(params, Policy.COUPLED, Tier.SMALL, gamma)
    cov_m = ul_coverage(params, Policy.COUPLED, Tier.MACRO, gamma)
    # both tiers share one decoupled uplink coverage value: the conditional
    # serving-distance law given the winning tier has the same shape
    cov_u = ul_coverage(params, Policy.DECOUPLED, Tier.SMALL, gamma)
    print(f"{db:6d} {psi(gamma):9.4f} {cov_s:10.4f} {cov_m:10.4f} {cov_u:10.4f}")

print("\ndownlink coverage: noise-only shape vs interference shape")
print(f"{'dB':>6} {'scaled_noise':>13} {'interference':>13}")
for db in range(-20, 12, 4):
    gamma = 10 ** (db / 10)
    scaled = dl_coverage(params, Tier.SMALL, gamma)
    interf = dl_coverage(params, Tier.SMALL, gamma, form=DlCoverageForm.INTERFERENCE)
    print(f"{db:6d} {scaled:13.4f} {interf:13.4f}")
print("the interference shape equals 1 / (1 + psi) when noise is negligible,")
print("and it is the exact analysis of what the Monte Carlo sampler simulates:")

gamma = 0.1
est = empirical_coverage(params, Policy.COUPLED, Link.DL, Tier.SMALL, gamma, 50_000, seed=3)
analytic = dl_coverage(params, Tier.SMALL, gamma, form=DlCoverageForm.INTERFERENCE)
print(
    f"\n-10 dB downlink small: closed form {analytic:.4f}, "
    f"sampled {est.mean:.4f} +- {est.std_error:.4f} "
    f"(z = {(est.mean - analytic) / est.std_error:+.2f})"
)
print(f"1/(1+psi(0.1)) = {1 / (1 + psi(0.1)):.4f}, noise shaves ~{1e-6:.0e} off")
assert math.isclose(analytic, 1 / (1 + psi(gamma)), abs_tol=1e-4)
