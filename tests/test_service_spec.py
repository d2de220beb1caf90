"""Spec parsing: strict validation, canonicalization, fingerprint identity."""

import pytest

from repro.service.spec import MAX_REQUESTS, ExperimentSpec, SpecError, parse_spec


def test_minimal_spec_materializes_defaults():
    spec = parse_spec({"workload": "comm2"})
    assert spec == ExperimentSpec(workload="comm2")
    canonical = spec.canonical()
    assert canonical["n_requests"] == 1000
    assert canonical["mode"] == "off"
    assert canonical["mapping"] == "PERMUTATION"
    assert canonical["refresh_enabled"] is True


def test_equivalent_payloads_share_one_fingerprint():
    """Key order and explicit defaults must not change the job identity —
    that identity is what the service dedupes and caches on."""
    a = parse_spec({"workload": "libq", "n_requests": 500, "seed": 7})
    b = parse_spec(
        {
            "seed": 7,
            "workload": "libq",
            "mode": "off",
            "n_requests": 500,
            "refresh_enabled": True,
        }
    )
    assert a == b
    assert a.to_job().fingerprint == b.to_job().fingerprint


def test_different_specs_get_different_fingerprints():
    base = parse_spec({"workload": "comm2", "n_requests": 500})
    for variant in (
        {"workload": "libq", "n_requests": 500},
        {"workload": "comm2", "n_requests": 501},
        {"workload": "comm2", "n_requests": 500, "seed": 1},
        {"workload": "comm2", "n_requests": 500, "mode": "4/4x/100%reg"},
        {"workload": "comm2", "n_requests": 500, "allocation": "collision-free"},
        {"workload": "comm2", "n_requests": 500, "refresh_enabled": False},
    ):
        assert parse_spec(variant).to_job().fingerprint != base.to_job().fingerprint


def test_mcr_spec_builds_a_runnable_job():
    spec = parse_spec(
        {
            "workload": "comm2",
            "n_requests": 40,
            "mode": "4/4x/100%reg",
            "allocation": "collision-free",
        }
    )
    job = spec.to_job()
    result = job.execute()
    assert result.execution_cycles > 0
    assert "4/4x" in result.mode_label


@pytest.mark.parametrize(
    "payload, message",
    [
        ("comm2", "JSON object"),
        (["comm2"], "JSON object"),
        ({}, "requires a 'workload'"),
        ({"workload": 7}, "must be a string"),
        ({"workload": "no-such-workload"}, "unknown workload"),
        ({"workload": "comm2", "typo_field": 1}, "unknown spec field"),
        ({"workload": "comm2", "n_requests": "many"}, "must be an integer"),
        ({"workload": "comm2", "n_requests": True}, "must be an integer"),
        ({"workload": "comm2", "n_requests": 0}, "within"),
        ({"workload": "comm2", "n_requests": MAX_REQUESTS + 1}, "within"),
        ({"workload": "comm2", "seed": 1.5}, "must be an integer"),
        ({"workload": "comm2", "mode": "9/9x/banana"}, "mode"),
        ({"workload": "comm2", "allocation": 0.0}, "(0, 1]"),
        ({"workload": "comm2", "allocation": 1.5}, "(0, 1]"),
        ({"workload": "comm2", "allocation": "sometimes"}, "allocation"),
        ({"workload": "comm2", "allocation": True}, "allocation"),
        ({"workload": "comm2", "mapping": "RANDOMISH"}, "unknown mapping"),
        ({"workload": "comm2", "policy": "LIFO"}, "unknown policy"),
        ({"workload": "comm2", "wiring": "SPAGHETTI"}, "unknown wiring"),
        ({"workload": "comm2", "refresh_enabled": "yes"}, "boolean"),
        ({"workload": "comm2", "batch": True}, "unknown spec field"),
    ],
)
def test_malformed_specs_are_rejected(payload, message):
    with pytest.raises(SpecError) as err:
        parse_spec(payload)
    assert message.lower() in str(err.value).lower()


def test_enum_names_are_case_insensitive():
    spec = parse_spec({"workload": "comm2", "mapping": "page_interleaving"})
    assert spec.mapping == "PAGE_INTERLEAVING"


def test_allocation_ratio_accepts_ints_and_floats():
    assert parse_spec({"workload": "comm2", "allocation": 1}).allocation == 1.0
    assert parse_spec({"workload": "comm2", "allocation": 0.5}).allocation == 0.5
