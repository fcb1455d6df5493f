"""run_validation's sampler work as one dispatch.

Every load, association and coverage estimate of a validation run comes
from one montecarlo._run_jobs call.  These tests hold each row to the
estimate its standalone sampler call gives, across thread counts and
through a failing batch.
"""
import numpy as np
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
    # Every coverage law draws at the run's seed, its streams keyed by the
    # law; the decoupled DL rows share the coupled ones' law and the
    # decoupled small UL row the decoupled macro one's.
    for policy in Policy:
        for link in Link:
            gamma = DEFAULTS.ul_sinr_threshold if link is Link.UL else DEFAULTS.dl_sinr_threshold
            for tier in Tier:
                name = f"coverage_{link.value}_{policy.value}_{tier.value}"
                expected[name] = empirical_coverage(
                    DEFAULTS, policy, link, tier, gamma, TRIALS, seed
                )
    got = {row.quantity: (row.empirical, row.std_error) for row in report.rows}
    assert got == {name: (e.mean, e.std_error) for name, e in expected.items()}
    reused = [note for note in report.notes if "same estimate" in note]
    assert reused == [
        "sampler coverage_ul_decoupled_small: same estimate as coverage_ul_decoupled_macro",
        "sampler coverage_dl_decoupled_macro: same estimate as coverage_dl_coupled_macro",
        "sampler coverage_dl_decoupled_small: same estimate as coverage_dl_coupled_small",
    ]


def test_adjacent_seeds_share_no_generator_key(monkeypatch):
    # Every stream is keyed by (seed, operation, [coverage law,] batch), the
    # loads by seed + 1.  Keys are compared by the state they seed, as
    # SeedSequence seeds a key and that key with a trailing 0 alike.  Each
    # run draws 13 streams: 2 association batches, 2 batches of each of 5
    # coverage laws and the load task.
    rng = hetmec.montecarlo._rng
    states = {}
    for seed in (5, 6):
        drawn = states[seed] = []

        def spy(*key, drawn=drawn):
            drawn.append(tuple(np.random.SeedSequence(key).generate_state(4)))
            return rng(*key)

        monkeypatch.setattr(hetmec.montecarlo, "_rng", spy)
        run_validation(DEFAULTS, TRIALS, seed)
    assert len(states[5]) == len(set(states[5])) == 13
    assert not set(states[5]) & set(states[6])


class BatchFailure(Exception):
    pass


@pytest.mark.parametrize("cpus", [1, 4])
def test_failing_coverage_batch_reraises_and_a_later_run_works(cpus, monkeypatch):
    monkeypatch.setattr(hetmec.montecarlo, "_cpu_count", lambda: cpus)
    expected = run_validation(DEFAULTS, TRIALS, seed=6)
    field_exponent = hetmec.montecarlo._field_exponent

    def failing(rng, density, gamma, exclusion2):
        if exclusion2.size == 17:
            raise BatchFailure("coverage batch of 17 trials")
        return field_exponent(rng, density, gamma, exclusion2)

    monkeypatch.setattr(hetmec.montecarlo, "_field_exponent", failing)
    with pytest.raises(BatchFailure) as excinfo:
        run_validation(DEFAULTS, TRIALS, seed=6)
    assert type(excinfo.value) is BatchFailure
    assert str(excinfo.value) == "coverage batch of 17 trials"
    monkeypatch.setattr(hetmec.montecarlo, "_field_exponent", field_exponent)
    assert repr(run_validation(DEFAULTS, TRIALS, seed=6)) == repr(expected)
