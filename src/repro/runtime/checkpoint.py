"""Checkpoint/resume for the hitlist service's multi-year runs.

The paper's pipeline accumulated state for four years; a crash at day
900 must not lose it.  A checkpoint serializes the *complete* live
pipeline state — scan pool, responsiveness bookkeeping, APD probe
history, GFW filter state, per-source counters and cursors, recorded
snapshots and retained scans, plus the remaining schedule — so that a
killed run resumed from disk produces a bit-identical
:class:`~repro.hitlist.service.HitlistHistory`.

On-disk format: one ASCII header line
``REPRO-CKPT <version> <sha256-of-body> <body-bytes>`` followed by a
zlib-compressed JSON body.  The checksum is verified before a single
payload byte is parsed, and files are written atomically (temp file +
rename), so a torn or corrupted checkpoint is rejected with a
:class:`CheckpointError` instead of silently loading garbage.

Everything here is JSON, not pickle: checkpoints stay portable across
Python versions and loading one never executes arbitrary code.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import zlib
from typing import Any, Dict, List, Optional, TYPE_CHECKING

from repro.protocols import ALL_PROTOCOLS
from repro.runtime.faults import FaultPlan
from repro.simnet.config_io import config_from_dict, config_to_dict

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.hitlist.service import HitlistService
    from repro.simnet.internet import SimInternet

_MAGIC = b"REPRO-CKPT"
CHECKPOINT_VERSION = 1
_CHECKPOINT_GLOB_PREFIX = "checkpoint-day"

_LABEL_TO_PROTOCOL = {protocol.label: protocol for protocol in ALL_PROTOCOLS}


class CheckpointError(ValueError):
    """A checkpoint file is missing, corrupted, or unsupported."""


# ---------------------------------------------------------------------------
# low-level container format


def write_checkpoint(path: str, payload: Dict[str, Any]) -> None:
    """Atomically write a payload as an integrity-checked checkpoint."""
    body = zlib.compress(
        json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8"), 6
    )
    digest = hashlib.sha256(body).hexdigest()
    header = b"%s %d %s %d\n" % (
        _MAGIC, CHECKPOINT_VERSION, digest.encode("ascii"), len(body),
    )
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(header)
        handle.write(body)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def _resolve_checkpoint_file(path: str) -> str:
    """Resolve a directory to its newest per-day checkpoint file."""
    if not os.path.isdir(path):
        return path
    candidates = sorted(
        name for name in os.listdir(path)
        if name.startswith(_CHECKPOINT_GLOB_PREFIX) and name.endswith(".ckpt")
    )
    if not candidates:
        raise CheckpointError(f"no checkpoint files in directory {path!r}")
    # zero-padded day numbers make lexicographic order chronological
    return os.path.join(path, candidates[-1])


def read_checkpoint(path: str) -> Dict[str, Any]:
    """Read and verify a checkpoint; raises :class:`CheckpointError`.

    ``path`` may be a checkpoint file or a directory of per-day files
    (the newest is used).
    """
    path = _resolve_checkpoint_file(path)
    try:
        with open(path, "rb") as handle:
            header = handle.readline(256)
            body = handle.read()
    except OSError as error:
        raise CheckpointError(f"cannot read checkpoint {path!r}: {error}") from error
    parts = header.split()
    if len(parts) != 4 or parts[0] != _MAGIC:
        raise CheckpointError(f"{path!r} is not a checkpoint file (bad header)")
    try:
        version = int(parts[1])
        expected_size = int(parts[3])
    except ValueError as error:
        raise CheckpointError(f"{path!r} has a malformed header") from error
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version} in {path!r}; "
            f"this build reads version {CHECKPOINT_VERSION}"
        )
    if len(body) != expected_size:
        raise CheckpointError(
            f"truncated checkpoint {path!r}: header promises {expected_size} "
            f"bytes, found {len(body)}"
        )
    digest = hashlib.sha256(body).hexdigest()
    if digest != parts[2].decode("ascii"):
        raise CheckpointError(
            f"checksum mismatch in {path!r} — the checkpoint is corrupted"
        )
    try:
        return json.loads(zlib.decompress(body))
    except (zlib.error, json.JSONDecodeError) as error:
        raise CheckpointError(
            f"cannot decode checkpoint body of {path!r}: {error}"
        ) from error


# ---------------------------------------------------------------------------
# value codecs


def _encode_addresses(addresses) -> List[int]:
    return sorted(addresses)


def _encode_day_map(mapping: Dict[int, int]) -> List[List[int]]:
    return sorted([key, value] for key, value in mapping.items())


def _encode_by_protocol(mapping) -> Dict[str, List[int]]:
    return {
        protocol.label: sorted(mapping.get(protocol, ()))
        for protocol in ALL_PROTOCOLS
    }


def _decode_by_protocol(data, factory):
    return {
        _LABEL_TO_PROTOCOL[label]: factory(map(int, addresses))
        for label, addresses in data.items()
    }


def _encode_counts(counts) -> Dict[str, int]:
    return {protocol.label: count for protocol, count in counts.items()}


def _decode_counts(data) -> Dict[Any, int]:
    return {_LABEL_TO_PROTOCOL[label]: int(count) for label, count in data.items()}


def _decode_degraded(entries):
    from repro.hitlist.service import DegradedReason

    return tuple(DegradedReason.parse(entry) for entry in entries)


#: ScanSnapshot field -> (encode, decode) for the fields JSON cannot
#: carry as they are; every other field is stored under its own name
_SNAPSHOT_CODECS = {
    "published_counts": (_encode_counts, _decode_counts),
    "cleaned_counts": (_encode_counts, _decode_counts),
    "degraded": (list, _decode_degraded),
}


def _snapshot_to_dict(snapshot) -> Dict[str, Any]:
    data = {}
    for spec in dataclasses.fields(snapshot):
        value = getattr(snapshot, spec.name)
        codec = _SNAPSHOT_CODECS.get(spec.name)
        data[spec.name] = value if codec is None else codec[0](value)
    return data


def _snapshot_from_dict(data: Dict[str, Any]):
    """A snapshot from its checkpoint entry; keys that older checkpoints
    lack keep the dataclass defaults."""
    from repro.hitlist.service import ScanSnapshot

    kwargs = {}
    for spec in dataclasses.fields(ScanSnapshot):
        if spec.name in data:
            value = data[spec.name]
            codec = _SNAPSHOT_CODECS.get(spec.name)
            kwargs[spec.name] = value if codec is None else codec[1](value)
    return ScanSnapshot(**kwargs)


# ---------------------------------------------------------------------------
# full service state capture


def service_state(service: "HitlistService") -> Dict[str, Any]:
    """Capture the complete live pipeline state of a service."""
    from repro.hitlist.apd import encode_aliases

    history = service.history
    apd = service.apd
    gfw = service.gfw_filter
    stash = service._last_scan_full
    last_scan_full = None
    if stash is not None:
        day, responders, injected = stash
        last_scan_full = {
            "day": day,
            "responders": _encode_by_protocol(responders),
            "injected": _encode_addresses(injected),
        }
    return {
        "service": {
            "scan_pool": _encode_addresses(service._scan_pool),
            "pending_apd_input": _encode_addresses(service._pending_apd_input),
            "slash64_members": sorted(
                [slash64, members]
                for slash64, members in service._slash64_members.items()
            ),
            "first_seen": _encode_day_map(service._first_seen),
            "last_responsive": _encode_day_map(service._last_responsive),
            "prev_responsive_any": _encode_addresses(service._prev_responsive_any),
            "gfw_purge_applied": service._gfw_purge_applied,
            "source_cursor": dict(service._source_cursor),
            # member 0's total; a multi-member fleet also records every
            # member's in its own state below
            "probes_sent": service.engine.probes_sent,
            "apd_probes_sent": apd._scanner.probes_sent,
            "last_scan_full": last_scan_full,
            # fleet survival state (retry/backoff bookkeeping and
            # per-vantage probe totals); None for a fleet of one
            "fleet": service.fleet.state_dict(),
            # incremental-scheduler priority + carry state; None for
            # full-mode runs
            "scheduler": (
                service.scheduler.state_dict()
                if service.scheduler is not None else None
            ),
        },
        "history": {
            "snapshots": [_snapshot_to_dict(s) for s in history.snapshots],
            "retained": {
                str(day): {
                    "responders": _encode_by_protocol(scan.responders),
                    "injected": _encode_addresses(scan.injected),
                    "aliased_prefixes": encode_aliases(scan.aliased_prefixes),
                }
                for day, scan in history.retained.items()
            },
            "input_ever": _encode_addresses(history.input_ever),
            "excluded": _encode_addresses(history.excluded),
            "per_source_counts": dict(history.per_source_counts),
            "ever_responsive": _encode_by_protocol(history.ever_responsive),
            "ever_responsive_any": _encode_addresses(history.ever_responsive_any),
        },
        "gfw": {
            "ever_injected": _encode_addresses(gfw.ever_injected),
            "ever_other_protocol": _encode_addresses(gfw.ever_other_protocol),
            "forged_answer_owners": _encode_day_map(gfw.forged_answer_owners),
        },
        # deterministic metric families only: wall-clock timings are
        # volatile by definition and cannot be part of the bit-identical
        # resume contract
        "obs": {"metrics": service.metrics.state_dict(include_volatile=False)},
        "apd": apd.state_dict(),
    }


def restore_service_state(service: "HitlistService", payload: Dict[str, Any]) -> None:
    """Overwrite a freshly constructed service with checkpointed state."""
    from repro.hitlist.apd import decode_aliases
    from repro.hitlist.service import RetainedScan

    state = payload["service"]
    service._scan_pool = set(map(int, state["scan_pool"]))
    service._pending_apd_input = set(map(int, state["pending_apd_input"]))
    service._slash64_members = {
        int(slash64): [int(member) for member in members]
        for slash64, members in state["slash64_members"]
    }
    service._first_seen = {int(a): int(d) for a, d in state["first_seen"]}
    service._last_responsive = {int(a): int(d) for a, d in state["last_responsive"]}
    service._prev_responsive_any = set(map(int, state["prev_responsive_any"]))
    service._gfw_purge_applied = bool(state["gfw_purge_applied"])
    service._source_cursor = {
        str(name): int(day) for name, day in state["source_cursor"].items()
    }
    service.engine.probes_sent = int(state["probes_sent"])
    service.apd._scanner.probes_sent = int(state["apd_probes_sent"])
    fleet_state = state.get("fleet")
    if fleet_state is not None:
        service.fleet.restore_state(fleet_state)
    sched_state = state.get("scheduler")
    if sched_state is not None and service.scheduler is not None:
        service.scheduler.restore_state(sched_state)
    stash = state.get("last_scan_full")
    if stash is not None:
        service._last_scan_full = (
            int(stash["day"]),
            _decode_by_protocol(stash["responders"], frozenset),
            frozenset(map(int, stash["injected"])),
        )

    history = service.history
    hist = payload["history"]
    history.snapshots = [_snapshot_from_dict(s) for s in hist["snapshots"]]
    history.retained = {
        int(day): RetainedScan(
            day=int(day),
            responders=_decode_by_protocol(scan["responders"], frozenset),
            injected=frozenset(map(int, scan["injected"])),
            aliased_prefixes=tuple(decode_aliases(scan["aliased_prefixes"])),
        )
        for day, scan in hist["retained"].items()
    }
    history.input_ever = set(map(int, hist["input_ever"]))
    history.excluded = set(map(int, hist["excluded"]))
    history.per_source_counts = {
        str(name): int(count) for name, count in hist["per_source_counts"].items()
    }
    history.ever_responsive = _decode_by_protocol(hist["ever_responsive"], set)
    history.ever_responsive_any = set(map(int, hist["ever_responsive_any"]))

    gfw_state = payload["gfw"]
    gfw = service.gfw_filter
    gfw.ever_injected = set(map(int, gfw_state["ever_injected"]))
    gfw.ever_other_protocol = set(map(int, gfw_state["ever_other_protocol"]))
    gfw.forged_answer_owners = {
        int(owner): int(count)
        for owner, count in gfw_state["forged_answer_owners"]
    }

    obs_state = payload.get("obs")
    if obs_state is not None:
        service.metrics.restore_state(obs_state.get("metrics", {}))

    service.apd.restore_state(payload["apd"])


# ---------------------------------------------------------------------------
# top-level API used by HitlistService.run / HitlistService.resume


def checkpoint_service(
    service: "HitlistService", path: str, schedule: Dict[str, Any]
) -> str:
    """Write the service's full state plus remaining schedule to disk.

    ``path`` may be a file (overwritten atomically) or an existing
    directory (a ``checkpoint-dayNNNNN.ckpt`` file per checkpoint).
    Returns the path of the written file.
    """
    payload: Dict[str, Any] = {
        # embedded as a string: the checkpoint body is written with
        # sorted keys, but world generation is sensitive to the config's
        # dict *insertion* order (builder iteration), so the config must
        # round-trip order-preservingly
        "config": json.dumps(config_to_dict(service.config)),
        "settings": dataclasses.asdict(service.settings),
        "fault_plan": (
            service.fault_plan.to_dict() if service.fault_plan is not None else None
        ),
        "schedule": dict(schedule),
    }
    payload.update(service_state(service))
    target = path
    if os.path.isdir(path):
        day = max(int(schedule.get("prev_day", 0)), 0)
        target = os.path.join(path, f"{_CHECKPOINT_GLOB_PREFIX}{day:05d}.ckpt")
    write_checkpoint(target, payload)
    return target


def resume_service(
    path: str,
    internet: Optional["SimInternet"] = None,
    sources=None,
    blocklist=None,
) -> "HitlistService":
    """Rebuild a :class:`HitlistService` from a checkpoint.

    The simulated world is reconstructed deterministically from the
    serialized scenario config unless ``internet`` is provided (passing
    the original instance just skips the rebuild — the oracle is a pure
    function of the config).  The returned service continues the stored
    campaign, pacer included, on its next argument-less
    :meth:`HitlistService.run` call.
    """
    from repro.hitlist.service import (
        FixedSchedule, HitlistService, SelfPaced, ServiceSettings,
    )
    from repro.obs.clock import MonotonicClock
    from repro.simnet import build_internet

    clock = MonotonicClock()
    read_start = clock.now()
    payload = read_checkpoint(path)
    for section in ("config", "settings", "schedule", "service", "history"):
        if section not in payload:
            raise CheckpointError(f"checkpoint is missing its {section!r} section")
    config = config_from_dict(json.loads(payload["config"]))
    settings_data = dict(payload["settings"])
    settings_data["retain_days"] = tuple(settings_data.get("retain_days", ()))
    settings = ServiceSettings(**settings_data)
    fault_data = payload.get("fault_plan")
    fault_plan = FaultPlan.from_dict(fault_data) if fault_data is not None else None
    if internet is None:
        internet = build_internet(config)
    service = HitlistService(
        internet, config,
        settings=settings, sources=sources, blocklist=blocklist,
        fault_plan=fault_plan,
    )
    restore_service_state(service, payload)
    schedule = dict(payload["schedule"])
    # only self-paced campaigns store an until_day
    pacer_cls = SelfPaced if "until_day" in schedule else FixedSchedule
    service._resumed = (pacer_cls.from_state(schedule), schedule)
    service._m_ckpt_read.observe(clock.now() - read_start)
    return service
