"""Unit tests for the scenario expansion engine."""

import json

import pytest

from repro.hitlist.service import ServiceSettings
from repro.scenario.artifact import (
    artifact_from_dict,
    artifact_to_dict,
    artifact_to_json,
    make_settings,
    validate_settings_overrides,
)
from repro.scenario.expand import (
    expand_document,
    expand_entries,
    expand_source,
    expand_text,
)
from repro.scenario.sdl import parse
from repro.simnet.config import small_config


class TestExpandEntries:
    def test_range_multiplies(self):
        entries = parse("x:\n  - asn: {10..13}\n    device_count: 5\n")["x"]
        expanded = expand_entries(entries, "x")
        assert [e["asn"] for e in expanded] == [10, 11, 12, 13]
        assert all(e["device_count"] == 5 for e in expanded)

    def test_stagger_offsets(self):
        entries = parse(
            "x:\n"
            "  - asn: {1..4}\n"
            "    born: 10\n"
            "    born_stagger: 7\n"
        )["x"]
        expanded = expand_entries(entries, "x")
        assert [e["born"] for e in expanded] == [10, 17, 24, 31]
        assert all("born_stagger" not in e for e in expanded)

    def test_templated_string_field(self):
        entries = parse(
            "x:\n  - vantage: vp{1..3}\n    start_day: 5\n    start_day_stagger: 2\n"
        )["x"]
        expanded = expand_entries(entries, "x")
        assert [e["vantage"] for e in expanded] == ["vp1", "vp2", "vp3"]
        assert [e["start_day"] for e in expanded] == [5, 7, 9]

    def test_disagreeing_ranges_rejected(self):
        entries = [{"a": parse("v: {1..3}\n")["v"], "b": parse("v: {1..4}\n")["v"]}]
        with pytest.raises(ValueError, match="disagree"):
            expand_entries(entries, "x")

    def test_stagger_without_range_rejected(self):
        with pytest.raises(ValueError, match="without a"):
            expand_entries([{"born": 3, "born_stagger": 7}], "x")

    def test_stagger_without_base_rejected(self):
        entries = parse("x:\n  - asn: {1..2}\n    born_stagger: 7\n")["x"]
        with pytest.raises(ValueError, match="no base field"):
            expand_entries(entries, "x")

    def test_stagger_on_range_base_rejected(self):
        entries = parse(
            "x:\n  - asn: {1..2}\n    asn_stagger: 7\n"
        )["x"]
        with pytest.raises(ValueError, match="cannot combine"):
            expand_entries(entries, "x")

    def test_no_range_passthrough(self):
        assert expand_entries([{"asn": 5}], "x") == [{"asn": 5}]


MINIMAL = (
    "title: \"minimal\"\n"
    "base: small\n"
    "run:\n"
    "  days: 14\n"
    "  interval: 7\n"
)


class TestExpandSource:
    def test_minimal_inherits_preset(self):
        expanded = expand_source(MINIMAL, name="minimal")
        assert expanded.config == small_config()
        assert expanded.run == {"days": 14, "interval": 7}
        assert expanded.provenance["scenario"] == "minimal"
        assert expanded.provenance["seed"] == small_config().seed
        assert expanded.provenance["seed_override"] is None
        assert expanded.provenance["source_sha256"]

    def test_world_override_and_doc_seed(self):
        expanded = expand_source(
            MINIMAL + "seed: 99\nworld:\n  domain_count: 123\n",
            name="t",
        )
        assert expanded.config.seed == 99
        assert expanded.config.domain_count == 123

    def test_scale_overrides_base(self):
        expanded = expand_source(MINIMAL, name="t", scale="default")
        assert expanded.provenance["base"] == "small"
        assert expanded.provenance["scale"] == "default"
        assert expanded.config.domain_count == 120_000

    def test_cli_seed_applies_after_expansion(self):
        expanded = expand_source(MINIMAL + "seed: 99\n", name="t", seed=5)
        assert expanded.config.seed == 5
        assert expanded.provenance["seed"] == 5
        assert expanded.provenance["seed_override"] == 5

    def test_fleets_extend_and_replace(self):
        extended = expand_source(
            MINIMAL + "fleets+:\n  - asn: {64512..64514}\n"
            "    device_count: 64\n    vendor: \"V\"\n    oui: 0x112233\n",
            name="t",
        )
        assert len(extended.config.fleets) == len(small_config().fleets) + 3
        replaced = expand_source(
            MINIMAL + "fleets:\n  - asn: 64512\n"
            "    device_count: 64\n    vendor: \"V\"\n    oui: 0x112233\n",
            name="t",
        )
        assert len(replaced.config.fleets) == 1

    def test_replace_and_extend_together_rejected(self):
        with pytest.raises(ValueError, match="not both"):
            expand_source(
                MINIMAL
                + "fleets:\n  - asn: 1\n    device_count: 1\n"
                  "    vendor: \"V\"\n    oui: 1\n"
                + "fleets+:\n  - asn: 2\n    device_count: 1\n"
                  "    vendor: \"V\"\n    oui: 1\n",
                name="t",
            )

    def test_unknown_sections_and_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown top-level"):
            expand_source("bogus: 1\n", name="t")
        with pytest.raises(ValueError, match="world.bogus"):
            expand_source(MINIMAL + "world:\n  bogus: 1\n", name="t")
        with pytest.raises(ValueError, match=r"fleets\[0\]"):
            expand_source(
                MINIMAL + "fleets:\n  - bogus_field: 1\n", name="t"
            )
        with pytest.raises(ValueError, match="unknown preset"):
            expand_source("base: huge\n", name="t")

    def test_world_list_section_redirected(self):
        with pytest.raises(ValueError, match="top-level"):
            expand_source(MINIMAL + "world:\n  farms: 3\n", name="t")

    def test_auto_fleet_daily_observations(self):
        expanded = expand_source(
            MINIMAL + "fleets:\n  - asn: 64512\n    device_count: 640\n"
            "    vendor: \"V\"\n    oui: 1\n    daily_observations: auto\n",
            name="t",
        )
        assert expanded.config.fleets[0].daily_observations == 10

    def test_auto_initial_input_size(self):
        expanded = expand_source(
            MINIMAL + "world:\n  initial_input_size: auto\n", name="t"
        )
        config = small_config()
        expected = (
            2 * config.initial_responsive_hosts
            + config.grown_responsive_hosts
            + sum(farm.assigned_count for farm in config.farms)
            + 30 * sum(fleet.daily_observations for fleet in config.fleets)
        )
        assert expanded.config.initial_input_size == expected

    def test_auto_unsupported_field_rejected(self):
        with pytest.raises(ValueError, match="no auto rule"):
            expand_source(MINIMAL + "world:\n  domain_count: auto\n", name="t")

    def test_faults_expand_with_stagger(self):
        expanded = expand_source(
            MINIMAL
            + "faults:\n"
              "  seed: 3\n"
              "  vantage_outages:\n"
              "    - vantage: vp{1..2}\n"
              "      start_day: 10\n"
              "      start_day_stagger: 5\n"
              "      end_day: 20\n"
              "      end_day_stagger: 5\n",
            name="t",
        )
        plan = expanded.fault_plan
        assert plan is not None and plan.seed == 3
        assert [(o.vantage, o.start_day, o.end_day) for o in plan.outages] == [
            ("vp1", 10, 20), ("vp2", 15, 25),
        ]

    def test_fault_rate_limit_protocol_list(self):
        expanded = expand_source(
            MINIMAL
            + "faults:\n"
              "  rate_limits:\n"
              "    - asn: 6057\n"
              "      budget: 100\n"
              "      protocols:\n"
              "        - ICMP\n"
              "        - TCP/80\n",
            name="t",
        )
        assert expanded.fault_plan.rate_limits[0].budget == 100

    def test_invariants_parse(self):
        expanded = expand_source(
            MINIMAL
            + "invariants:\n"
              "  - name: x\n"
              "    metric: final.published_total\n"
              "    min: 1\n",
            name="t",
        )
        assert expanded.invariants[0].name == "x"

    def test_run_validation(self):
        with pytest.raises(ValueError, match="run.days"):
            expand_source("run:\n  days: 0\n", name="t")
        with pytest.raises(ValueError, match="run.bogus"):
            expand_source("run:\n  bogus: 3\n", name="t")

    @pytest.mark.parametrize("block", [
        {"days": 0},
        {"interval": -7},
        {"days": True},
        {"interval": "7"},
        {"bogus": 3},
        {"days": 14, "pacing": "self"},
        [14, 7],
        None,
    ])
    def test_run_validation_is_shared_with_artifacts(self, block):
        """A bad `run:` block fails the same way in a .scn source and in
        an expanded artifact."""
        with pytest.raises(ValueError) as from_source:
            expand_document(dict(parse(MINIMAL), run=block), name="t")
        data = artifact_to_dict(expand_source(MINIMAL, name="t"))
        data["run"] = block
        with pytest.raises(ValueError) as from_artifact:
            artifact_from_dict(data)
        assert str(from_source.value) == str(from_artifact.value)
        assert str(from_source.value).startswith("run")

    def test_range_outside_list_section_rejected(self):
        with pytest.raises(ValueError, match="only expand inside list"):
            expand_source(MINIMAL + "world:\n  domain_count: {1..3}\n", name="t")


class TestArtifact:
    def test_expand_text_idempotent(self):
        expanded = expand_source(MINIMAL, name="fix")
        text = artifact_to_json(expanded)
        again = expand_text(text, name="ignored")
        assert artifact_to_json(again) == text

    def test_artifact_seed_override_on_rerun(self):
        expanded = expand_source(MINIMAL, name="fix")
        text = artifact_to_json(expanded)
        reseeded = expand_text(text, name="ignored", seed=77)
        assert reseeded.config.seed == 77
        assert reseeded.provenance["seed_override"] == 77

    def test_artifact_rescale_rejected(self):
        text = artifact_to_json(expand_source(MINIMAL, name="fix"))
        with pytest.raises(ValueError, match="re-scale"):
            expand_text(text, name="ignored", scale="default")

    def test_artifact_unknown_version_rejected(self):
        data = json.loads(artifact_to_json(expand_source(MINIMAL, name="f")))
        data["provenance"]["expander_version"] = 999
        with pytest.raises(ValueError, match="expander_version"):
            artifact_from_dict(data)

    def test_artifact_not_artifact_rejected(self):
        with pytest.raises(ValueError, match="not an expanded"):
            artifact_from_dict({"config": {}})

    def test_broken_json_detected(self):
        with pytest.raises(ValueError, match="does not parse"):
            expand_text("{broken json", name="t")


class TestSettingsOverrides:
    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            validate_settings_overrides({"bogus": 1})

    @pytest.mark.parametrize("key", ["scan_workers", "scan_chunk_size"])
    def test_removed_scan_knobs_rejected(self, key):
        """The retired worker-pool settings fail at expansion, by name."""
        source = MINIMAL + f"settings:\n  {key}: 2\n"
        with pytest.raises(ValueError, match=rf"unknown field\(s\) \['{key}'\]"):
            expand_source(source, name="old-knobs")

    def test_type_checks(self):
        with pytest.raises(ValueError, match="must be an int"):
            validate_settings_overrides({"vantages": "five"})
        with pytest.raises(ValueError, match="must be a number"):
            validate_settings_overrides({"loss_rate": "low"})
        with pytest.raises(ValueError, match="must be a string"):
            validate_settings_overrides({"quorum": 3})
        with pytest.raises(ValueError, match="retain_days"):
            validate_settings_overrides({"retain_days": [1, "x"]})

    def test_normalization(self):
        normalized = validate_settings_overrides(
            {"sample_rate": 1, "retain_days": [5, 1], "vantages": 3}
        )
        assert normalized == {
            "retain_days": [1, 5], "sample_rate": 1.0, "vantages": 3,
        }

    def test_make_settings_defaults_follow_config(self):
        config = small_config()
        settings = make_settings(config, {"vantages": 5})
        assert settings.vantages == 5
        assert settings.gfw_filter_deploy_day == config.gfw_filter_deploy_day
        assert settings.qname == config.scan_query_domain
        assert isinstance(settings, ServiceSettings)

    def test_make_settings_retain_days_tuple(self):
        settings = make_settings(small_config(), {"retain_days": [3, 1]})
        assert settings.retain_days == (1, 3)
