"""Where do users attach, and how many share each base station?

Walks the association layer at the reference scenario: the six closed-form
attachment probabilities, the uplink/downlink marginals, the mean per-BS
loads, and a quick Monte Carlo cross-check of all of them.
"""
from hetmec import default_params, empirical_association
from hetmec.association import Link, Policy, Tier, association_report

params = default_params()
report = association_report(params)

print("=== closed-form association probabilities ===")
print(f"coupled   small/small : {report.a_ss_d:.5f}")
print(f"coupled   macro/macro : {report.a_mm_d:.5f}")
print(f"decoupled small/small : {report.a_ss_u:.5f}")
print(f"decoupled macro/macro : {report.a_mm_u:.5f}")
print(f"decoupled small/macro : {report.a_sm_u:.5f}   <- the split-association users")
print(f"decoupled macro/small : {report.a_ms_u:.5f}   (impossible when P_m >= P_s)")

print("\n=== marginals ===")
for tier in Tier:
    print(f"uplink on {tier.value:5s}: {report.a_ul[tier]:.5f}   downlink: {report.a_dl[tier]:.5f}")
# note: the downlink marginals reproduce the coupled probabilities exactly,
# because the downlink rule is max-power under both policies.

print("\n=== mean users per BS ===")
for policy in Policy:
    for tier in Tier:
        load = report.load[(policy, Link.UL, tier)]
        print(f"{policy.value:9s} uplink {tier.value:5s}: {load:.4f}")

print("\n=== Monte Carlo cross-check (50k sampled deployments) ===")
freq = empirical_association(params, trials=50_000, seed=1)
for name, estimate in freq.items():
    print(f"{name:24s} {estimate.mean:.5f} +- {estimate.std_error:.5f}")
