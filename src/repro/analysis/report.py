"""One-shot full report: every reproduced table/figure as text.

Downstream users (and the CLI) want a single artefact summarizing a
run; this module assembles the individual analysis builders into one
readable report, optionally including the Sec. 6 new-source evaluation.
"""

from __future__ import annotations

from typing import List, Optional

from repro._util import day_to_date
from repro.analysis.aliased import (
    alias_size_histogram,
    aliased_fraction_by_as,
    domains_in_aliased_prefixes,
)
from repro.analysis.coverage import coverage_report
from repro.analysis.distribution import as_distribution
from repro.analysis.formatting import ascii_matrix, ascii_table, si_format
from repro.analysis.overlap import protocol_overlap
from repro.analysis.tables import (
    eui64_report,
    table1_responsiveness,
    table5_gfw_ases,
)
from repro.analysis.timeline import churn_series, responsiveness_series, spike_ratio
from repro.hitlist.service import HitlistHistory
from repro.obs.export import deterministic_metrics, registry_to_dict
from repro.protocols import ALL_PROTOCOLS, Protocol


def _section(title: str, body: str) -> str:
    bar = "=" * len(title)
    return f"{title}\n{bar}\n{body}\n"


def metrics_section(history: HitlistHistory) -> Optional[str]:
    """The run's deterministic counters/gauges as one table.

    Volatile families (wall-clock timings) are excluded so the section
    renders identically for same-seed and resumed runs; ``None`` when
    the history carries no metrics registry.
    """
    if history.metrics is None:
        return None
    document = deterministic_metrics(registry_to_dict(history.metrics))
    rows: List[List[str]] = []
    for name in sorted(document["metrics"]):
        entry = document["metrics"][name]
        if entry["type"] == "histogram":
            continue
        for series in entry["series"]:
            labels = ",".join(
                f"{key}={value}" for key, value in sorted(series["labels"].items())
            )
            rows.append([name, labels or "-", si_format(series["value"])])
    if not rows:
        return None
    return _section(
        "Observability — run counters",
        ascii_table(["metric", "labels", "value"], rows),
    )


def vantage_section(history: HitlistHistory) -> Optional[str]:
    """Fleet roster/quorum accounting, aggregated over the campaign.

    ``None`` when no snapshot carries a fleet block, as for a fleet of
    one.
    """
    blocks = [s.vantage for s in history.snapshots if s.vantage is not None]
    if not blocks:
        return None
    per_vantage: dict = {}
    scans = {"ok": {}, "down": {}, "backoff": {}}
    disagreements: dict = {}
    accepted = rejected = resharded = witness = 0
    for block in blocks:
        for vid in block.get("live", ()):
            scans["ok"][vid] = scans["ok"].get(vid, 0) + 1
        for vid in block.get("down", ()):
            scans["down"][vid] = scans["down"].get(vid, 0) + 1
        for vid in block.get("backoff", ()):
            scans["backoff"][vid] = scans["backoff"].get(vid, 0) + 1
        for vid, stats in block.get("per_vantage", {}).items():
            entry = per_vantage.setdefault(vid, {"targets": 0, "dissent": 0})
            entry["targets"] += stats.get("targets", 0)
            entry["dissent"] += stats.get("dissent", 0)
        for label, count in block.get("disagreements", {}).items():
            disagreements[label] = disagreements.get(label, 0) + count
        quorum = block.get("quorum", {})
        accepted += quorum.get("accepted", 0)
        rejected += quorum.get("rejected", 0)
        resharded += block.get("resharded", 0)
        witness += block.get("witness_targets", 0)
    vids = sorted(set(per_vantage) | set(scans["ok"]) | set(scans["down"])
                  | set(scans["backoff"]))
    rows = [
        [
            vid,
            scans["ok"].get(vid, 0),
            scans["down"].get(vid, 0),
            scans["backoff"].get(vid, 0),
            si_format(per_vantage.get(vid, {}).get("targets", 0)),
            per_vantage.get(vid, {}).get("dissent", 0),
        ]
        for vid in vids
    ]
    body = ascii_table(
        ["vantage", "scans", "down", "backoff", "targets", "dissent"], rows
    )
    split = ", ".join(
        f"{label}: {count}" for label, count in sorted(disagreements.items())
    ) or "none"
    body += (
        f"\nwitness targets probed by a panel: {witness}"
        f"\ntargets re-sharded around failures: {resharded}"
        f"\ndisagreements by protocol: {split}"
        f"\nquorum decisions on split votes: {accepted} accepted, "
        f"{rejected} rejected"
    )
    return _section("Vantage fleet — roster & quorum", body)


def full_report(history: HitlistHistory, evaluation=None) -> str:
    """Render the complete run summary as text."""
    internet = history.internet
    if internet is None:
        raise ValueError("history carries no internet reference")
    final_day = max(history.retained)
    rib = internet.routing.snapshot_at(final_day)
    registry = internet.registry
    sections: List[str] = []

    # --- overview -------------------------------------------------------
    last = history.snapshots[-1]
    degraded_scans = sum(1 for s in history.snapshots if s.degraded)
    overview = ascii_table(
        ["metric", "value"],
        [
            ["scans", len(history.snapshots)],
            ["last scan", day_to_date(last.day).isoformat()],
            ["accumulated input", si_format(last.input_total)],
            ["scan pool", si_format(last.scan_target_count)],
            ["aliased prefixes", last.aliased_prefix_count],
            ["responsive (cleaned)", si_format(last.cleaned_total)],
            ["UDP/53 hit rate (last scan)", f"{last.udp53_hit_rate:.2%}"],
            ["GFW-impacted ever", si_format(history.gfw.impacted_count
                                            if history.gfw else 0)],
            ["excluded (30-day)", si_format(len(history.excluded))],
            ["degraded scans", degraded_scans],
        ],
    )
    sections.append(_section("Run overview", overview))

    fleet = vantage_section(history)
    if fleet is not None:
        sections.append(fleet)

    # --- Table 1 ----------------------------------------------------------
    table1 = table1_responsiveness(history, rib)
    rows = []
    for row in table1.rows:
        cells = [day_to_date(row.day).isoformat()]
        for protocol in ALL_PROTOCOLS:
            addresses, asns = row.per_protocol[protocol]
            cells.append(f"{si_format(addresses)}/{si_format(asns)}")
        cells.append(f"{si_format(row.total[0])}/{si_format(row.total[1])}")
        rows.append(cells)
    rows.append(
        ["cumulative"]
        + [si_format(table1.cumulative[p]) for p in ALL_PROTOCOLS]
        + [si_format(table1.cumulative_total)]
    )
    sections.append(_section(
        "Table 1 — responsiveness over time (addresses/ASes)",
        ascii_table(["snapshot"] + [p.label for p in ALL_PROTOCOLS] + ["total"], rows),
    ))

    # --- Figure 3 ---------------------------------------------------------
    series = responsiveness_series(history)
    sample = series[:: max(len(series) // 16, 1)]
    fig3 = ascii_table(
        ["scan", "UDP/53 published", "UDP/53 cleaned", "total cleaned"],
        [[p.date, si_format(p.published[Protocol.UDP53]),
          si_format(p.cleaned[Protocol.UDP53]), si_format(p.cleaned_total)]
         for p in sample],
    )
    fig3 += f"\nspike/cleaned ratio: {spike_ratio(history):.0f}x"
    sections.append(_section("Figure 3 — published vs. cleaned timeline", fig3))

    # --- Figure 4 ---------------------------------------------------------
    churn = churn_series(history)
    if churn:
        sample = churn[:: max(len(churn) // 12, 1)]
        fig4 = ascii_table(
            ["scan", "new", "recurring", "gone"],
            [[p.date, p.new, p.recurring, p.gone] for p in sample],
        )
        sections.append(_section("Figure 4 — responsive-set churn", fig4))

    # --- Figure 2 ---------------------------------------------------------
    input_dist = as_distribution(history.input_ever, rib, "input")
    responsive_dist = as_distribution(history.final.cleaned_any(), rib, "responsive")
    fig2_rows = []
    for dist in (input_dist, responsive_dist):
        top = dist.describe_top(registry, count=3)
        fig2_rows.append([
            dist.label, si_format(dist.total_addresses), dist.as_count,
            ", ".join(f"{name} {share:.1f}%" for name, _count, share in top),
        ])
    sections.append(_section(
        "Figure 2 — AS concentration",
        ascii_table(["set", "addresses", "ASes", "top ASes"], fig2_rows),
    ))

    # --- Figure 5 / aliased prefixes ---------------------------------------
    histogram = alias_size_histogram(history.final.aliased_prefixes)
    fig5 = ascii_table(
        ["length", "count"],
        [[f"/{length}", count] for length, count in sorted(histogram.items())],
    )
    sections.append(_section("Figure 5 — aliased prefix sizes", fig5))

    fractions = aliased_fraction_by_as(history.final.aliased_prefixes, rib)
    fig6 = ascii_table(
        ["AS", "aliased addresses", "fraction of announced"],
        [[registry.name(row.asn), f"2^{row.log2_aliased}", f"{row.fraction:.1%}"]
         for row in fractions[:8]],
    )
    sections.append(_section("Figure 6 — most aliased ASes", fig6))

    # --- Sec. 5.2 -----------------------------------------------------------
    domains = domains_in_aliased_prefixes(
        internet.zone, history.final.aliased_prefixes, rib
    )
    sec52 = ascii_table(
        ["metric", "value"],
        [
            ["domains in aliased prefixes",
             f"{si_format(domains.domains_in_aliased)} of "
             f"{si_format(domains.domains_total)}"],
            ["prefixes hosting domains", len(domains.prefixes_hit)],
            ["ASes", len(domains.asns_hit)],
        ] + [
            [f"{name} top-list hits", hits]
            for name, hits in sorted(domains.top_list_hits.items())
        ],
    )
    sections.append(_section("Sec. 5.2 — domains in aliased prefixes", sec52))

    # --- Figure 10 -----------------------------------------------------------
    names, matrix = protocol_overlap(history.final)
    sections.append(_section(
        "Figure 10 — protocol overlap (% of row also in column)",
        ascii_matrix(names, matrix),
    ))

    # --- Table 5 --------------------------------------------------------------
    if history.gfw is not None and history.gfw.ever_injected:
        impact = table5_gfw_ases(history, rib, registry)
        table5 = ascii_table(
            ["AS", "# addresses", "%", "CDF"],
            [[row.name, si_format(row.addresses),
              f"{row.share_percent:.2f} %", f"{row.cdf_percent:.2f} %"]
             for row in impact.top(10)],
        )
        table5 += (f"\ntotal impacted: {si_format(impact.total_addresses)} "
                   f"across {impact.total_asns} ASes")
        sections.append(_section("Table 5 — GFW impact by AS", table5))

    # --- Sec. 4.1 ---------------------------------------------------------------
    eui64 = eui64_report(history, internet)
    coverage = coverage_report(history.input_ever, rib)
    sec41 = ascii_table(
        ["metric", "value"],
        [
            ["EUI-64 input addresses", si_format(eui64.eui64_addresses)],
            ["distinct MACs", si_format(eui64.distinct_macs)],
            ["top EUI-64 value in", f"{eui64.top_mac_addresses} addresses"],
            ["top MAC vendor", eui64.top_mac_vendor or "-"],
            ["input covers announcing ASes",
             f"{coverage.asn_share:.0%} (paper: 76 %)"],
            ["input covers announced prefixes",
             f"{coverage.prefix_share:.0%} (paper: 62 %)"],
        ],
    )
    sections.append(_section("Sec. 4.1 — EUI-64 & coverage analysis", sec41))

    # --- Sec. 6 -------------------------------------------------------------------
    if evaluation is not None:
        rows = []
        for name, report in sorted(
            evaluation.reports.items(), key=lambda kv: -len(kv[1].responsive_any)
        ):
            dist = as_distribution(report.responsive_any, rib, name)
            top = dist.describe_top(registry, count=1)
            rows.append([
                name, si_format(report.candidates), si_format(report.scanned),
                si_format(len(report.responsive_any)), f"{report.hit_rate:.1%}",
                f"{top[0][0]} {top[0][2]:.0f}%" if top else "-",
            ])
        combined = evaluation.combined_any()
        hitlist = set(history.final.cleaned_any())
        gain = 100.0 * len(combined - hitlist) / max(len(hitlist), 1)
        sec6 = ascii_table(
            ["source", "candidates", "scanned", "responsive", "hit rate", "top AS"],
            rows,
        )
        sec6 += (f"\nnew responsive: {si_format(len(combined))}; "
                 f"union with hitlist: {si_format(len(combined | hitlist))} "
                 f"(+{gain:.0f} %)")
        sections.append(_section("Sec. 6 / Tables 3-4 — new sources", sec6))

    obs = metrics_section(history)
    if obs is not None:
        sections.append(obs)

    return "\n".join(sections)
