"""Scenario expansion: parse → expand → resolve → validate → artifact.

The expander compiles a compact scenario source (see
:mod:`repro.scenario.sdl`) into an :class:`ExpandedScenario` artifact:

1. **parse** — the source text becomes plain mappings/lists plus the
   ``auto``/``{A..B}``/stagger tokens;
2. **expand** — list entries with brace ranges multiply into one entry
   per value; ``<field>_stagger: K`` adds ``i*K`` to the i-th entry's
   base value (farm birth cohorts, rotation ladders, fault windows);
3. **resolve** — ``auto`` values are replaced by their derivation rules
   (documented in ``docs/scenarios.md``), computed over the merged
   world;
4. **validate** — the result round-trips through the same strict
   constructors the pipeline uses (:func:`config_from_dict`,
   :meth:`FaultPlan.from_dict`, :class:`Invariant`), so every error
   names its section and entry;
5. **artifact** — the flat result plus a provenance header serializes
   canonically (byte-identical across invocations).

Feeding an already expanded artifact back through :func:`expand_text`
returns it unchanged — expansion is a fixed point.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.runtime.faults import FaultPlan
from repro.scenario import sdl
from repro.scenario.artifact import (
    ARTIFACT_FORMAT,
    EXPANDER_VERSION,
    ExpandedScenario,
    artifact_from_dict,
    is_expanded_artifact,
    validate_run,
    validate_settings_overrides,
)
from repro.scenario.invariants import Invariant
from repro.scenario.sdl import AUTO, Auto, NumberRange, TemplatedString
from repro.simnet.config import ScenarioConfig, default_config, small_config
from repro.simnet.config_io import config_from_dict, config_to_dict

__all__ = [
    "PRESETS",
    "expand_document",
    "expand_entries",
    "expand_path",
    "expand_source",
    "expand_text",
]

PRESETS: Dict[str, Callable[[], ScenarioConfig]] = {
    "small": small_config,
    "default": default_config,
}

#: list-valued ScenarioConfig sections a scenario may replace (``name:``)
#: or extend (``name+:``)
_LIST_SECTIONS = ("farms", "fleets", "gfw_eras")

#: list-valued FaultPlan vocabulary (matches FaultPlan.from_dict)
_FAULT_SECTIONS = frozenset((
    "vantage_outages",
    "vantage_degradations",
    "rate_limits",
    "loss_bursts",
    "source_outages",
))

_TOP_KEYS = frozenset(
    {"title", "description", "base", "seed", "world", "settings", "faults",
     "run", "invariants"}
    | {section for section in _LIST_SECTIONS}
    | {section + "+" for section in _LIST_SECTIONS}
)

_STAGGER_SUFFIX = "_stagger"


# ---------------------------------------------------------------------------
# range / stagger expansion (the reference semantics)

def expand_entries(entries: List[Any], where: str) -> List[Dict[str, Any]]:
    """Expand a list of template entries into flat entries.

    One entry containing brace ranges (in any field values) expands into
    ``len(range)`` entries; every range in the entry must agree on that
    width.  ``<field>_stagger: K`` gives the i-th expanded entry
    ``field + i*K``; staggers require a range in the same entry (the
    range is what defines the group) and a numeric base field.
    """
    expanded: List[Dict[str, Any]] = []
    for index, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(
                f"{where}[{index}]: expected a mapping, "
                f"got {type(entry).__name__}"
            )
        expanded.extend(_expand_entry(entry, f"{where}[{index}]"))
    return expanded


def _expand_entry(entry: Mapping[str, Any], where: str) -> List[Dict[str, Any]]:
    ranged = {
        key: value for key, value in entry.items()
        if isinstance(value, (NumberRange, TemplatedString))
    }
    staggers = {
        key: value for key, value in entry.items()
        if key.endswith(_STAGGER_SUFFIX)
    }
    for key, step in staggers.items():
        base_key = key[: -len(_STAGGER_SUFFIX)]
        if base_key not in entry:
            raise ValueError(
                f"{where}: {key} has no base field {base_key!r}"
            )
        if isinstance(step, bool) or not isinstance(step, (int, float)):
            raise ValueError(
                f"{where}: {key} must be a number, got {step!r}"
            )
        base = entry[base_key]
        if isinstance(base, (NumberRange, TemplatedString)):
            raise ValueError(
                f"{where}: {base_key} cannot combine a range with a stagger"
            )
        if isinstance(base, bool) or not isinstance(base, (int, float)):
            raise ValueError(
                f"{where}: {key} needs a numeric base value for "
                f"{base_key!r}, got {base!r}"
            )
    if not ranged:
        if staggers:
            raise ValueError(
                f"{where}: stagger field(s) {sorted(staggers)} without a "
                f"{{A..B}} range in the same entry (the range defines the "
                f"group to stagger across)"
            )
        return [dict(entry)]
    widths = {key: len(value) for key, value in ranged.items()}
    if len(set(widths.values())) != 1:
        raise ValueError(
            f"{where}: ranges disagree on entry count: "
            + ", ".join(f"{k}={v}" for k, v in sorted(widths.items()))
        )
    count = next(iter(widths.values()))
    result: List[Dict[str, Any]] = []
    for offset in range(count):
        item: Dict[str, Any] = {}
        for key, value in entry.items():
            if key.endswith(_STAGGER_SUFFIX):
                continue
            if isinstance(value, NumberRange):
                item[key] = value.value_at(offset)
            elif isinstance(value, TemplatedString):
                item[key] = value.text_at(offset)
            else:
                item[key] = value
        for key, step in staggers.items():
            base_key = key[: -len(_STAGGER_SUFFIX)]
            item[base_key] = item[base_key] + step * offset
        result.append(item)
    return result


# ---------------------------------------------------------------------------
# auto resolution

def _auto_fleet_daily_observations(entry: Mapping[str, Any]) -> int:
    """``daily_observations: auto`` — one WAN observation per 64 devices
    per day (external platforms sample a thin slice of a fleet)."""
    devices = entry.get("device_count")
    if not isinstance(devices, int) or isinstance(devices, bool):
        raise ValueError(
            "daily_observations: auto needs an integer device_count"
        )
    return max(devices // 64, 1)


def _auto_farm_iid_span(entry: Mapping[str, Any]) -> int:
    """``iid_span: auto`` — 16x the per-subnet host density, floored at
    64, so low-byte farms stay dense enough for pattern mining."""
    assigned = entry.get("assigned_count")
    subnets = entry.get("subnet_count")
    if not isinstance(assigned, int) or not isinstance(subnets, int):
        raise ValueError(
            "iid_span: auto needs integer assigned_count and subnet_count"
        )
    return max((assigned // max(subnets, 1)) * 16, 64)


_ENTRY_AUTO_RULES: Dict[str, Dict[str, Callable[[Mapping[str, Any]], Any]]] = {
    "fleets": {"daily_observations": _auto_fleet_daily_observations},
    "farms": {"iid_span": _auto_farm_iid_span},
}


def _auto_initial_input_size(config: Mapping[str, Any]) -> int:
    """``initial_input_size: auto`` — derived from the host populations:
    twice the day-0 responsive hosts, plus the grown cohort, plus every
    farm assignment, plus a month of fleet observations."""
    farms = config.get("farms", ())
    fleets = config.get("fleets", ())
    return (
        2 * int(config["initial_responsive_hosts"])
        + int(config["grown_responsive_hosts"])
        + sum(int(farm["assigned_count"]) for farm in farms)
        + 30 * sum(int(fleet["daily_observations"]) for fleet in fleets)
    )


_WORLD_AUTO_RULES: Dict[str, Callable[[Mapping[str, Any]], Any]] = {
    "initial_input_size": _auto_initial_input_size,
}


def _resolve_entry_autos(
    section: str, entries: List[Dict[str, Any]], where: str
) -> None:
    rules = _ENTRY_AUTO_RULES.get(section, {})
    for index, entry in enumerate(entries):
        for key, value in list(entry.items()):
            if not isinstance(value, Auto):
                continue
            rule = rules.get(key)
            if rule is None:
                raise ValueError(
                    f"{where}[{index}]: no auto rule for field {key!r} "
                    f"(supported here: {sorted(rules) or 'none'})"
                )
            try:
                entry[key] = rule(entry)
            except ValueError as error:
                raise ValueError(f"{where}[{index}]: {error}") from None


# ---------------------------------------------------------------------------
# document expansion

def _reject_special(value: Any, where: str) -> Any:
    """Recursively forbid range/stagger/auto tokens outside list sections."""
    if isinstance(value, (NumberRange, TemplatedString)):
        raise ValueError(
            f"{where}: {{A..B}} ranges only expand inside list sections "
            f"(farms/fleets/gfw_eras/fault lists)"
        )
    if isinstance(value, Auto):
        raise ValueError(f"{where}: 'auto' is not supported for this field")
    if isinstance(value, dict):
        return {
            key: _reject_special(item, f"{where}.{key}")
            for key, item in value.items()
        }
    if isinstance(value, list):
        return [
            _reject_special(item, f"{where}[{index}]")
            for index, item in enumerate(value)
        ]
    return value


def _plain_scalars(
    entries: List[Dict[str, Any]], where: str, allow_lists: bool = False
) -> None:
    """After expansion no special tokens may remain (except autos, which
    are resolved separately).  ``allow_lists`` admits scalar lists —
    fault entries carry one (``rate_limits[].protocols``)."""
    for index, entry in enumerate(entries):
        for key, value in entry.items():
            if isinstance(value, (NumberRange, TemplatedString)):
                # unreachable via _expand_entry; guards direct callers
                raise ValueError(
                    f"{where}[{index}].{key}: unexpanded range survived"
                )
            if isinstance(value, list) and allow_lists:
                _reject_special(value, f"{where}[{index}].{key}")
                if any(isinstance(item, (dict, list)) for item in value):
                    raise ValueError(
                        f"{where}[{index}].{key}: list values must be "
                        f"plain scalars"
                    )
                continue
            if isinstance(value, (dict, list)):
                raise ValueError(
                    f"{where}[{index}].{key}: entries must be flat "
                    f"scalar mappings"
                )


def expand_document(
    document: Mapping[str, Any],
    *,
    name: str,
    scale: Optional[str] = None,
    seed: Optional[int] = None,
    source_text: Optional[str] = None,
) -> ExpandedScenario:
    """Expand a parsed scenario document into an artifact.

    ``scale`` overrides the source's ``base:`` preset (the CLI's
    ``--scale``); ``seed`` is the post-expansion override (recorded in
    provenance as ``seed_override``).
    """
    unknown = set(document) - _TOP_KEYS
    if unknown:
        raise ValueError(
            f"unknown top-level section(s): {sorted(unknown)}; "
            f"expected {sorted(_TOP_KEYS)}"
        )
    base = document.get("base", "small")
    if base not in PRESETS:
        raise ValueError(
            f"base: unknown preset {base!r}; expected one of {sorted(PRESETS)}"
        )
    effective_base = scale if scale is not None else base
    if effective_base not in PRESETS:
        raise ValueError(
            f"scale: unknown preset {effective_base!r}; "
            f"expected one of {sorted(PRESETS)}"
        )
    merged = config_to_dict(PRESETS[effective_base]())

    # ---- world scalar overrides -------------------------------------
    world = document.get("world", {})
    if not isinstance(world, dict):
        raise ValueError("world: expected a mapping of config overrides")
    for key in sorted(world):
        if key in _LIST_SECTIONS:
            raise ValueError(
                f"world.{key}: use the top-level {key!r} section for "
                f"list-valued config"
            )
        if key not in merged:
            raise ValueError(
                f"world.{key}: unknown ScenarioConfig field; see "
                f"'repro-cli config' for the full list"
            )
        value = world[key]
        if isinstance(value, Auto):
            continue  # resolved below, against the merged world
        merged[key] = _reject_special(value, f"world.{key}")

    # ---- list-template sections -------------------------------------
    for section in _LIST_SECTIONS:
        replace = document.get(section)
        extend = document.get(section + "+")
        if replace is not None and extend is not None:
            raise ValueError(
                f"{section}: declare either {section!r} (replace) or "
                f"'{section}+' (extend), not both"
            )
        if replace is None and extend is None:
            continue
        source_list = replace if replace is not None else extend
        label = section if replace is not None else section + "+"
        if not isinstance(source_list, list):
            raise ValueError(f"{label}: expected a list of entries")
        entries = expand_entries(source_list, label)
        _resolve_entry_autos(section, entries, label)
        _plain_scalars(entries, label)
        if replace is not None:
            merged[section] = entries
        else:
            merged[section] = list(merged[section]) + entries

    # ---- world autos (need the final farm/fleet lists) ---------------
    for key in sorted(world):
        if not isinstance(world[key], Auto):
            continue
        rule = _WORLD_AUTO_RULES.get(key)
        if rule is None:
            raise ValueError(
                f"world.{key}: no auto rule for this field "
                f"(supported: {sorted(_WORLD_AUTO_RULES)})"
            )
        merged[key] = rule(merged)

    # ---- seeds --------------------------------------------------------
    scenario_seed = document.get("seed")
    if scenario_seed is not None:
        if isinstance(scenario_seed, bool) or not isinstance(scenario_seed, int):
            raise ValueError(f"seed: expected an int, got {scenario_seed!r}")
        merged["seed"] = scenario_seed

    config = config_from_dict(merged)

    # ---- settings -----------------------------------------------------
    settings_section = document.get("settings", {})
    if not isinstance(settings_section, dict):
        raise ValueError("settings: expected a mapping")
    settings_overrides = validate_settings_overrides(
        _reject_special(settings_section, "settings")
    )

    # ---- faults -------------------------------------------------------
    fault_plan = _expand_faults(document.get("faults"))

    # ---- run schedule -------------------------------------------------
    run = validate_run(document.get("run", {}))

    # ---- invariants ---------------------------------------------------
    invariants_section = document.get("invariants", [])
    if not isinstance(invariants_section, list):
        raise ValueError("invariants: expected a list of entries")
    invariants = tuple(
        Invariant.from_dict(
            _reject_special(entry, f"invariants[{index}]"),
            where=f"invariants[{index}]",
        )
        for index, entry in enumerate(invariants_section)
    )

    # ---- provenance ---------------------------------------------------
    digest = (
        hashlib.sha256(source_text.encode("utf-8")).hexdigest()
        if source_text is not None else None
    )
    provenance: Dict[str, Any] = {
        "format": ARTIFACT_FORMAT,
        "expander_version": EXPANDER_VERSION,
        "scenario": name,
        "title": str(document.get("title", name)),
        "base": str(base),
        "scale": str(effective_base),
        "seed": config.seed,
        "seed_override": None,
        "source_sha256": digest,
    }
    expanded = ExpandedScenario(
        provenance=provenance,
        config=config,
        settings_overrides=settings_overrides,
        fault_plan=fault_plan,
        run=run,
        invariants=invariants,
    )
    if seed is not None:
        expanded = expanded.with_seed(seed)
    return expanded


def _expand_faults(section: Any) -> Optional[FaultPlan]:
    if section is None:
        return None
    if not isinstance(section, dict):
        raise ValueError("faults: expected a mapping of fault lists")
    unknown = set(section) - _FAULT_SECTIONS - {"seed"}
    if unknown:
        raise ValueError(
            f"faults: unknown section(s) {sorted(unknown)}; "
            f"expected {sorted(_FAULT_SECTIONS | {'seed'})}"
        )
    payload: Dict[str, Any] = {}
    seed = section.get("seed")
    if seed is not None:
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ValueError(f"faults.seed: expected an int, got {seed!r}")
        payload["seed"] = seed
    for key in sorted(_FAULT_SECTIONS):
        entries = section.get(key)
        if entries is None:
            continue
        if not isinstance(entries, list):
            raise ValueError(f"faults.{key}: expected a list of entries")
        expanded = expand_entries(entries, f"faults.{key}")
        _resolve_entry_autos("faults", expanded, f"faults.{key}")
        _plain_scalars(expanded, f"faults.{key}", allow_lists=True)
        payload[key] = expanded
    return FaultPlan.from_dict(payload)


# ---------------------------------------------------------------------------
# entry points

def expand_source(
    text: str,
    *,
    name: str,
    scale: Optional[str] = None,
    seed: Optional[int] = None,
) -> ExpandedScenario:
    """Expand scenario source text (the ``.scn`` format)."""
    document = sdl.parse(text)
    return expand_document(
        document, name=name, scale=scale, seed=seed, source_text=text
    )


def expand_text(
    text: str,
    *,
    name: str,
    scale: Optional[str] = None,
    seed: Optional[int] = None,
) -> ExpandedScenario:
    """Expand either scenario source or an already expanded artifact.

    Already-expanded artifacts pass through unchanged (idempotence) —
    modulo an explicit ``seed`` override, which is re-applied and
    re-recorded in provenance.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ValueError(
                f"input looks like JSON but does not parse: {error}"
            ) from None
        expanded = artifact_from_dict(data)
        if scale is not None and scale != expanded.provenance.get("scale"):
            raise ValueError(
                "cannot re-scale an already expanded artifact; "
                "expand the scenario source with --scale instead"
            )
        if seed is not None:
            expanded = expanded.with_seed(seed)
        return expanded
    return expand_source(text, name=name, scale=scale, seed=seed)


def expand_path(
    path: str,
    *,
    name: Optional[str] = None,
    scale: Optional[str] = None,
    seed: Optional[int] = None,
) -> ExpandedScenario:
    """Expand a scenario file (source or artifact) from disk."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if name is None:
        import pathlib

        name = pathlib.Path(path).stem
    return expand_text(text, name=name, scale=scale, seed=seed)
