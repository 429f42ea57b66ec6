"""The expanded-scenario artifact: the flat, runnable form.

Expansion compiles a compact scenario source into this artifact — one
JSON document carrying a provenance header, the fully expanded
:class:`~repro.simnet.config.ScenarioConfig`, the service-settings
overrides, an optional :class:`~repro.runtime.faults.FaultPlan`, the
run schedule and the declared invariants.  The artifact is:

* **deterministic** — serialization is canonical (sorted keys, fixed
  indentation, no timestamps), so two expansions of the same source are
  byte-identical and artifacts diff cleanly in review;
* **self-sufficient** — ``repro-cli pipeline --config expanded.json``
  (and plain :func:`repro.simnet.config_io.load_config`) accept it
  verbatim: no re-expansion is ever needed to reproduce a run;
* **idempotent under expansion** — feeding an artifact back through the
  expander returns it unchanged (``expand(expand(s)) == expand(s)``).

The provenance header records where the flat values came from: the
scenario name, base preset, source digest, the effective seed and — when
``--seed`` overrode the scenario after expansion — the override itself.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.hitlist.service import ServiceSettings
from repro.runtime.faults import FaultPlan
from repro.scenario.invariants import Invariant
from repro.simnet.config import ScenarioConfig
from repro.simnet.config_io import config_from_dict, config_to_dict

__all__ = [
    "ARTIFACT_FORMAT",
    "EXPANDER_VERSION",
    "ExpandedScenario",
    "artifact_from_dict",
    "artifact_to_dict",
    "artifact_to_json",
    "is_expanded_artifact",
    "load_artifact",
    "make_settings",
    "validate_run",
    "validate_settings_overrides",
]

ARTIFACT_FORMAT = "repro-scenario-expanded/1"
EXPANDER_VERSION = 1

_RUN_KEYS = ("days", "interval")


@dataclass(frozen=True)
class ExpandedScenario:
    """A scenario compiled down to flat, directly runnable pieces."""

    provenance: Dict[str, Any]
    config: ScenarioConfig
    settings_overrides: Dict[str, Any] = dataclasses.field(default_factory=dict)
    fault_plan: Optional[FaultPlan] = None
    run: Dict[str, int] = dataclasses.field(default_factory=dict)
    invariants: Tuple[Invariant, ...] = ()

    @property
    def name(self) -> str:
        return str(self.provenance.get("scenario", "<unnamed>"))

    def settings(self) -> ServiceSettings:
        """The effective service settings for this scenario's campaigns."""
        return make_settings(self.config, self.settings_overrides)

    def with_seed(self, seed: int) -> "ExpandedScenario":
        """Apply a post-expansion seed override, recording it in provenance.

        The override is applied *after* expansion by construction — the
        expanded config is already flat when the seed is swapped in —
        and the provenance header keeps both the effective seed and the
        fact that it was an override.
        """
        provenance = dict(self.provenance)
        provenance["seed"] = int(seed)
        provenance["seed_override"] = int(seed)
        return dataclasses.replace(
            self,
            provenance=provenance,
            config=self.config.with_seed(int(seed)),
        )


# ---------------------------------------------------------------------------
# service settings overrides

def validate_settings_overrides(overrides: Mapping[str, Any]) -> Dict[str, Any]:
    """Check a settings-override mapping against :class:`ServiceSettings`.

    Returns a normalized copy (numbers coerced to the field's type,
    ``retain_days`` to a sorted list).  Unknown or mistyped keys raise
    :class:`ValueError` naming the offending entry.
    """
    fields = {field.name: field for field in dataclasses.fields(ServiceSettings)}
    unknown = set(overrides) - set(fields)
    if unknown:
        raise ValueError(
            f"settings: unknown field(s) {sorted(unknown)}; "
            f"known fields: {sorted(fields)}"
        )
    defaults = ServiceSettings()
    normalized: Dict[str, Any] = {}
    for key in sorted(overrides):
        value = overrides[key]
        if key == "retain_days":
            if not isinstance(value, (list, tuple)) or not all(
                isinstance(v, int) and not isinstance(v, bool) for v in value
            ):
                raise ValueError(
                    f"settings.retain_days must be a list of ints, got {value!r}"
                )
            normalized[key] = sorted(int(v) for v in value)
            continue
        default = getattr(defaults, key)
        reference = default
        if reference is None:
            # Optional[int] knobs (probes_per_day, gfw_filter_deploy_day)
            reference = 0
        if isinstance(reference, bool):
            if not isinstance(value, bool):
                raise ValueError(
                    f"settings.{key} must be a bool, got {value!r}"
                )
            normalized[key] = value
        elif isinstance(reference, int):
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(
                    f"settings.{key} must be an int, got {value!r}"
                )
            normalized[key] = int(value)
        elif isinstance(reference, float):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"settings.{key} must be a number, got {value!r}"
                )
            normalized[key] = float(value)
        elif isinstance(reference, str):
            if not isinstance(value, str):
                raise ValueError(
                    f"settings.{key} must be a string, got {value!r}"
                )
            normalized[key] = value
        else:
            raise ValueError(
                f"settings.{key} cannot be set from a scenario file"
            )
    return normalized


def validate_run(run: Any) -> Dict[str, int]:
    """Check a ``run:`` block: optional ``days`` and ``interval``, each
    a positive int.

    Both the ``.scn`` expander and :func:`artifact_from_dict` go through
    here, so a bad block fails with the same message either way.
    """
    if not isinstance(run, Mapping):
        raise ValueError("run: expected a mapping")
    normalized: Dict[str, int] = {}
    for key in sorted(run):
        if key not in _RUN_KEYS:
            raise ValueError(
                f"run.{key}: unknown field; expected {'/'.join(_RUN_KEYS)}"
            )
        value = run[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ValueError(f"run.{key}: expected a positive int, got {value!r}")
        normalized[key] = value
    return normalized


def make_settings(
    config: ScenarioConfig, overrides: Mapping[str, Any]
) -> ServiceSettings:
    """Build the effective :class:`ServiceSettings` for a scenario run.

    Defaults mirror the CLI's: the GFW filter deploy day and the scan
    query domain follow the world config unless the scenario overrides
    them explicitly.
    """
    normalized = validate_settings_overrides(overrides)
    if "retain_days" in normalized:
        normalized["retain_days"] = tuple(normalized["retain_days"])
    base = ServiceSettings(
        gfw_filter_deploy_day=config.gfw_filter_deploy_day,
        qname=config.scan_query_domain,
    )
    return dataclasses.replace(base, **normalized)


# ---------------------------------------------------------------------------
# (de)serialization

def artifact_to_dict(expanded: ExpandedScenario) -> Dict[str, Any]:
    """A JSON-serializable artifact document."""
    provenance = dict(expanded.provenance)
    provenance["format"] = ARTIFACT_FORMAT
    provenance.setdefault("expander_version", EXPANDER_VERSION)
    return {
        "provenance": provenance,
        "config": config_to_dict(expanded.config),
        "settings": dict(expanded.settings_overrides),
        "faults": (
            expanded.fault_plan.to_dict()
            if expanded.fault_plan is not None else None
        ),
        "run": dict(expanded.run),
        "invariants": [
            invariant.to_dict() for invariant in expanded.invariants
        ],
    }


def artifact_to_json(expanded: ExpandedScenario) -> str:
    """Canonical (byte-deterministic) artifact serialization."""
    return json.dumps(
        artifact_to_dict(expanded), indent=2, sort_keys=True
    ) + "\n"


def is_expanded_artifact(data: Any) -> bool:
    """True when ``data`` looks like an expanded-scenario document."""
    return (
        isinstance(data, dict)
        and isinstance(data.get("provenance"), dict)
        and data["provenance"].get("format") == ARTIFACT_FORMAT
        and isinstance(data.get("config"), dict)
    )


def artifact_from_dict(data: Mapping[str, Any]) -> ExpandedScenario:
    """Rebuild an :class:`ExpandedScenario` from its JSON document."""
    if not is_expanded_artifact(data):
        raise ValueError(
            "not an expanded scenario artifact (missing provenance header "
            f"with format={ARTIFACT_FORMAT!r})"
        )
    unknown = set(data) - {
        "provenance", "config", "settings", "faults", "run", "invariants",
    }
    if unknown:
        raise ValueError(
            f"unknown artifact section(s): {sorted(unknown)}"
        )
    version = data["provenance"].get("expander_version")
    if version != EXPANDER_VERSION:
        raise ValueError(
            f"unsupported expander_version {version!r}; "
            f"this build reads version {EXPANDER_VERSION}"
        )
    config = config_from_dict(data["config"])
    settings = validate_settings_overrides(data.get("settings") or {})
    faults_data = data.get("faults")
    fault_plan = (
        FaultPlan.from_dict(faults_data) if faults_data is not None else None
    )
    run = validate_run(data.get("run", {}))
    invariants = tuple(
        Invariant.from_dict(entry, where=f"invariants[{index}]")
        for index, entry in enumerate(data.get("invariants") or ())
    )
    return ExpandedScenario(
        provenance=dict(data["provenance"]),
        config=config,
        settings_overrides=settings,
        fault_plan=fault_plan,
        run=run,
        invariants=invariants,
    )


def load_artifact(path: str) -> ExpandedScenario:
    """Read an expanded artifact from a JSON file."""
    with open(path, "r", encoding="ascii") as handle:
        data = json.load(handle)
    return artifact_from_dict(data)
