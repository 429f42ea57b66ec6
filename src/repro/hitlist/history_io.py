"""JSON summaries of a finished run.

Full responder sets are large and reconstructible (the scenario JSON
reproduces the run bit-for-bit); what downstream users archive is the
summary: per-scan counts, churn, retained-day aggregates and per-source
accounting.  This module writes and reads that artefact.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict

from repro._util import day_to_date
from repro.hitlist.service import HitlistHistory, ScanSnapshot
from repro.obs.export import deterministic_metrics, registry_to_dict
from repro.protocols import ALL_PROTOCOLS, Protocol

_FORMAT_VERSION = 1


def history_summary(history: HitlistHistory) -> Dict[str, Any]:
    """A JSON-serializable summary of one run."""
    snapshots = []
    for snapshot in history.snapshots:
        snapshots.append({
            "day": snapshot.day,
            "date": day_to_date(snapshot.day).isoformat(),
            "input_total": snapshot.input_total,
            "scan_targets": snapshot.scan_target_count,
            "aliased_prefixes": snapshot.aliased_prefix_count,
            "published": {p.label: snapshot.published_counts[p] for p in ALL_PROTOCOLS},
            "cleaned": {p.label: snapshot.cleaned_counts[p] for p in ALL_PROTOCOLS},
            "published_total": snapshot.published_total,
            "cleaned_total": snapshot.cleaned_total,
            "injected": snapshot.injected_count,
            "churn": {
                "new": snapshot.churn_new,
                "recurring": snapshot.churn_recurring,
                "gone": snapshot.churn_gone,
            },
            "udp53_hit_rate": snapshot.udp53_hit_rate,
            "degraded": list(snapshot.degraded),
            "metrics": dict(snapshot.metrics),
            # fleet reconciliation block (roster, quorum decisions,
            # per-vantage disagreements); absent for a fleet of one
            **(
                {"vantage": snapshot.vantage}
                if snapshot.vantage is not None else {}
            ),
        })
    retained = {}
    for day, scan in history.retained.items():
        retained[str(day)] = {
            "date": day_to_date(day).isoformat(),
            "responders": {
                p.label: len(scan.cleaned_responders(p)) for p in ALL_PROTOCOLS
            },
            "total": len(scan.cleaned_any()),
            "injected": len(scan.injected),
            "aliased_prefixes": len(scan.aliased_prefixes),
        }
    # only the deterministic view: volatile wall-clock timings would
    # break summary equality between a straight run and a resumed one
    metrics_block: Dict[str, Any] = {}
    if history.metrics is not None:
        metrics_block = deterministic_metrics(registry_to_dict(history.metrics))
    return {
        "format_version": _FORMAT_VERSION,
        "snapshots": snapshots,
        "retained": retained,
        "metrics": metrics_block,
        "input_total": len(history.input_ever),
        "excluded_total": len(history.excluded),
        "gfw_impacted": history.gfw.impacted_count if history.gfw else 0,
        "per_source_counts": dict(history.per_source_counts),
        "ever_responsive": {
            p.label: len(history.ever_responsive.get(p, ())) for p in ALL_PROTOCOLS
        },
        "ever_responsive_total": len(history.ever_responsive_any),
    }


def save_history_summary(history: HitlistHistory, stream: IO[str]) -> None:
    """Write the summary as pretty-printed JSON."""
    json.dump(history_summary(history), stream, indent=2, sort_keys=True)
    stream.write("\n")


def load_history_summary(stream: IO[str]) -> Dict[str, Any]:
    """Read a summary written by :func:`save_history_summary`.

    Raises :class:`ValueError` when the document is not a summary or was
    written by an incompatible format version, instead of failing later
    with an opaque ``KeyError`` deep inside an analysis.
    """
    data = json.load(stream)
    if not isinstance(data, dict):
        raise ValueError(
            f"not a history summary: expected a JSON object, got {type(data).__name__}"
        )
    if "format_version" not in data:
        raise ValueError(
            "not a history summary: missing 'format_version' "
            "(was this file written by save_history_summary?)"
        )
    version = data["format_version"]
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported summary format version {version!r}; "
            f"this build reads version {_FORMAT_VERSION}"
        )
    return data


def rebuild_snapshots(data: Dict[str, Any]) -> list:
    """Reconstruct :class:`ScanSnapshot` objects from a loaded summary.

    Retained responder *sets* are not part of the summary (by design),
    so only snapshot-level analyses (Figs. 3/4) can run on the result.
    """
    label_to_protocol = {p.label: p for p in ALL_PROTOCOLS}
    snapshots = []
    for entry in data["snapshots"]:
        snapshots.append(
            ScanSnapshot(
                day=entry["day"],
                input_total=entry["input_total"],
                scan_target_count=entry["scan_targets"],
                aliased_prefix_count=entry["aliased_prefixes"],
                published_counts={
                    label_to_protocol[label]: count
                    for label, count in entry["published"].items()
                },
                cleaned_counts={
                    label_to_protocol[label]: count
                    for label, count in entry["cleaned"].items()
                },
                published_total=entry["published_total"],
                cleaned_total=entry["cleaned_total"],
                injected_count=entry["injected"],
                churn_new=entry["churn"]["new"],
                churn_recurring=entry["churn"]["recurring"],
                churn_gone=entry["churn"]["gone"],
                udp53_hit_rate=entry.get("udp53_hit_rate", 0.0),
                degraded=tuple(entry.get("degraded", ())),
                metrics={
                    str(key): int(value)
                    for key, value in entry.get("metrics", {}).items()
                },
                vantage=entry.get("vantage"),
            )
        )
    return snapshots
