"""run_validation's sampler work as one dispatch.

Every load, association and coverage estimate of a validation run comes
from one montecarlo._run_jobs call.  These tests hold each row to the
estimate its standalone sampler call gives, across thread counts and
through a failing batch.
"""
import pytest

import hetmec.montecarlo
from hetmec.association import Link, Policy, Tier
from hetmec.config import params_from_raw
from hetmec.montecarlo import (
    _BATCH,
    _load_estimates,
    empirical_association,
    empirical_coverage,
)
from hetmec.validate import run_validation

DEFAULTS = params_from_raw({})
SINGLE_TIER = params_from_raw({"lambda_s_per_km2": 0.0})
# Two batches per estimate, the second of 17 trials; the loads take their
# floor of 160 realizations.
TRIALS = _BATCH + 17


@pytest.mark.parametrize("params", [DEFAULTS, SINGLE_TIER], ids=["defaults", "single_tier"])
def test_rows_do_not_depend_on_the_cpu_count(params, monkeypatch):
    monkeypatch.setattr(hetmec.montecarlo, "_cpu_count", lambda: 1)
    serial = run_validation(params, TRIALS, seed=5)
    monkeypatch.setattr(hetmec.montecarlo, "_cpu_count", lambda: 64)
    threaded = run_validation(params, TRIALS, seed=5)
    assert repr(threaded.rows) == repr(serial.rows)
    assert threaded.notes == serial.notes


def test_each_row_is_its_standalone_estimate():
    seed = 5
    report = run_validation(DEFAULTS, TRIALS, seed)
    expected = dict(empirical_association(DEFAULTS, TRIALS, seed))
    loads = _load_estimates(DEFAULTS, 160, seed + 1).by_rule
    for name, rule, tier in [
        ("load_coupled_small", "power", Tier.SMALL),
        ("load_coupled_macro", "power", Tier.MACRO),
        ("load_dec_ul_small", "nearest", Tier.SMALL),
        ("load_dec_ul_macro", "nearest", Tier.MACRO),
        ("load_dec_dl_small", "power", Tier.SMALL),
        ("load_dec_dl_macro", "power", Tier.MACRO),
    ]:
        expected[name] = loads[rule][tier]
    # Seeds go to the distinct laws in row order from seed + 10; the
    # decoupled DL rows reuse the coupled ones and the decoupled small UL
    # row the decoupled macro one, so their standalone calls at the
    # reused seed give the same estimate.
    ul, dl = DEFAULTS.ul_sinr_threshold, DEFAULTS.dl_sinr_threshold
    for policy, link, tier, gamma, offset in [
        (Policy.COUPLED, Link.UL, Tier.MACRO, ul, 10),
        (Policy.COUPLED, Link.UL, Tier.SMALL, ul, 11),
        (Policy.COUPLED, Link.DL, Tier.MACRO, dl, 12),
        (Policy.COUPLED, Link.DL, Tier.SMALL, dl, 13),
        (Policy.DECOUPLED, Link.UL, Tier.MACRO, ul, 14),
        (Policy.DECOUPLED, Link.UL, Tier.SMALL, ul, 14),
        (Policy.DECOUPLED, Link.DL, Tier.MACRO, dl, 12),
        (Policy.DECOUPLED, Link.DL, Tier.SMALL, dl, 13),
    ]:
        name = f"coverage_{link.value}_{policy.value}_{tier.value}"
        expected[name] = empirical_coverage(
            DEFAULTS, policy, link, tier, gamma, TRIALS, seed=seed + offset
        )
    got = {row.quantity: (row.empirical, row.std_error) for row in report.rows}
    assert got == {name: (e.mean, e.std_error) for name, e in expected.items()}
    reused = [note for note in report.notes if "same estimate" in note]
    assert reused == [
        "sampler coverage_ul_decoupled_small: same estimate as coverage_ul_decoupled_macro",
        "sampler coverage_dl_decoupled_macro: same estimate as coverage_dl_coupled_macro",
        "sampler coverage_dl_decoupled_small: same estimate as coverage_dl_coupled_small",
    ]


class BatchFailure(Exception):
    pass


@pytest.mark.parametrize("cpus", [1, 4])
def test_failing_coverage_batch_reraises_and_a_later_run_works(cpus, monkeypatch):
    monkeypatch.setattr(hetmec.montecarlo, "_cpu_count", lambda: cpus)
    expected = run_validation(DEFAULTS, TRIALS, seed=6)
    field_exponent = hetmec.montecarlo._field_exponent

    def failing(rng, density, power, s, exclusion2):
        if s.size == 17:
            raise BatchFailure("coverage batch of 17 trials")
        return field_exponent(rng, density, power, s, exclusion2)

    monkeypatch.setattr(hetmec.montecarlo, "_field_exponent", failing)
    with pytest.raises(BatchFailure) as excinfo:
        run_validation(DEFAULTS, TRIALS, seed=6)
    assert type(excinfo.value) is BatchFailure
    assert str(excinfo.value) == "coverage batch of 17 trials"
    monkeypatch.setattr(hetmec.montecarlo, "_field_exponent", field_exponent)
    assert repr(run_validation(DEFAULTS, TRIALS, seed=6)) == repr(expected)
