#!/usr/bin/env python3
"""GFW cleaning walkthrough (paper Sec. 4).

Shows the full injection story on a small world:

1. scan a dead Chinese address for a blocked domain and inspect the
   forged responses (A records / Teredo addresses from unrelated orgs);
2. run the pipeline across an injection era and watch the published
   UDP/53 count spike while the cleaned count stays flat;
3. deploy the GFW filter and watch the spike collapse;
4. print the per-AS impact table (the paper's Table 5).

Run:  python examples/gfw_cleaning.py
"""

from repro._util import day_to_date
from repro.analysis import ascii_table, si_format
from repro.analysis.formatting import percent
from repro.gfw import GfwFilter
from repro.gfw.impact import impact_report
from repro.hitlist import HitlistService
from repro.hitlist.service import ServiceSettings
from repro.net.address import format_ipv6
from repro.net.teredo import decode_teredo, is_teredo
from repro.protocols import Protocol, RecordType
from repro.scan.zmap import ZMapScanner
from repro.simnet import build_internet, small_config


def inspect_single_injection(internet, day: int) -> None:
    """Step 1: what a forged response actually looks like."""
    cn_asn = 4134  # China Telecom Backbone
    prefix = internet.routing.base.prefixes_of(cn_asn)[0]
    dead_target = prefix.value | 0xDEAD_BEEF  # no host lives here

    scanner = ZMapScanner(internet, loss_rate=0.0)
    _fast, result = scanner.scan_all_protocols([dead_target], day, "www.google.com")
    responses = result.responses[dead_target]
    print(f"probe to dead address {format_ipv6(dead_target)} "
          f"-> {len(responses)} responses:")
    for response in responses:
        for answer in response.answers:
            if answer.rtype is RecordType.AAAA and is_teredo(answer.address):
                embedded = decode_teredo(answer.address).client_ipv4
                print(f"  AAAA {format_ipv6(answer.address)} "
                      f"(Teredo, embeds IPv4 {embedded >> 24 & 255}."
                      f"{embedded >> 16 & 255}.{embedded >> 8 & 255}."
                      f"{embedded & 255})")
            else:
                print(f"  {answer.rtype.value} answer")
    evidence = GfwFilter().clean_scan(result).evidence_counts
    print("detector evidence:",
          dict(sorted((kind.value, n) for kind, n in evidence.items())))

    # An unblocked domain gets silence — not even a DNS error.
    _fast, silent = scanner.scan_all_protocols(
        [dead_target], day, "definitely-not-blocked.example"
    )
    print(f"same address, unblocked domain -> "
          f"{len(silent.responses.get(dead_target, ()))} responses\n")


def run_pipeline_with_and_without_filter(internet, config) -> None:
    """Steps 2+3: the spike, then the filter deployment."""
    era = internet.gfw.eras[0]
    deploy_day = era.start_day + 49
    scan_days = list(range(era.start_day - 42, era.end_day + 21, 7))

    settings = ServiceSettings(gfw_filter_deploy_day=deploy_day)
    service = HitlistService(internet, config, settings=settings)
    history = service.run(scan_days)

    rows = []
    for snapshot in history.snapshots:
        marker = ""
        if snapshot.day == scan_days[0]:
            marker = "<- start"
        elif era.start_day <= snapshot.day < era.start_day + 7:
            marker = "<- injection era begins"
        elif deploy_day <= snapshot.day < deploy_day + 7:
            marker = "<- GFW filter deployed"
        rows.append([
            day_to_date(snapshot.day).isoformat(),
            si_format(snapshot.published_counts[Protocol.UDP53]),
            si_format(snapshot.cleaned_counts[Protocol.UDP53]),
            marker,
        ])
    print(ascii_table(
        ["scan", "UDP/53 published", "UDP/53 cleaned", ""],
        rows,
        title="Fig. 3 mechanism: published vs. cleaned DNS responsiveness",
    ))

    # Step 4: Table 5 — who the impacted addresses belong to.
    rib = internet.routing.snapshot_at(scan_days[-1])
    report = impact_report(history.gfw.ever_injected, rib, internet.registry)
    print(f"\n{si_format(report.total_addresses)} addresses ever impacted, "
          f"{report.total_asns} ASes")
    table_rows = [
        [row.name, si_format(row.addresses),
         percent(row.share_percent, 2), percent(row.cdf_percent, 2)]
        for row in report.top(10)
    ]
    print(ascii_table(["AS", "# addresses", "%", "CDF"], table_rows,
                      title="\nTable 5: top ASes impacted by the GFW"))


def main() -> None:
    config = small_config(seed=7)
    internet = build_internet(config)
    era_day = internet.gfw.eras[-1].start_day  # Teredo era
    inspect_single_injection(internet, era_day)
    run_pipeline_with_and_without_filter(internet, config)


if __name__ == "__main__":
    main()
