#!/usr/bin/env python3
"""Service maintenance toolbox (paper Secs. 4.3, 5.3, 7).

The paper closes with maintenance recommendations for the IPv6 Hitlist
service.  This example exercises the implemented versions of all three:

1. input hygiene — drop stale EUI-64 rotations (Sec. 4.3);
2. fully-responsive-prefix representatives — keep one address per
   aliased prefix in the hitlist (Sec. 5.3);
3. data publication — the newline formats downstream studies consume.

Run:  python examples/service_maintenance.py
"""

import io

from repro.analysis import si_format
from repro.hitlist import HitlistService, alias_representatives
from repro.hitlist.export import publish, read_address_list
from repro.hitlist.hygiene import stale_eui64_rotations
from repro.protocols import Protocol
from repro.scan.zmap import ZMapScanner
from repro.simnet import build_internet, small_config


def main() -> None:
    config = small_config(seed=23)
    internet = build_internet(config)
    service = HitlistService(internet, config)
    history = service.run(list(range(0, 120, 6)))
    final_day = history.final.day

    # --- 1. input hygiene ------------------------------------------------
    # pretend every input address was last seen the day it could have been
    # discovered; the hygiene pass spots MACs recurring across prefixes
    sightings = [(address, final_day) for address in history.input_ever]
    report = stale_eui64_rotations(sightings)
    print(f"input hygiene: {si_format(report.scanned)} input addresses, "
          f"{si_format(report.eui64_addresses)} EUI-64, "
          f"{report.macs_with_rotations} MACs with rotations, "
          f"{si_format(len(report.stale))} stale rotations removable "
          f"({report.removable_share:.1%} of the input)")

    # --- 2. representatives for fully responsive prefixes -----------------
    representatives = alias_representatives(
        service.apd, known_addresses=history.input_ever
    )
    scanner = ZMapScanner(internet, loss_rate=0.0)
    results, _udp53 = scanner.scan_all_protocols(
        list(representatives.values()), final_day, "www.google.com"
    )
    print(f"\nrepresentatives: {len(representatives)} aliased prefixes get "
          f"one scan target each; {len(results[Protocol.ICMP].responders)} "
          f"answered ICMP — "
          f"kept in the hitlist instead of silently dropping whole CDNs")

    # --- 3. publication ----------------------------------------------------
    streams = {
        "responsive": io.StringIO(),
        "ICMP": io.StringIO(),
        "UDP/53": io.StringIO(),
        "aliased": io.StringIO(),
    }
    written = publish(history, streams)
    print("\npublished files (lines):", written)
    round_trip = read_address_list(io.StringIO(streams["responsive"].getvalue()))
    assert round_trip == set(history.final.cleaned_any())
    print("round-trip parse of the responsive list: OK "
          f"({si_format(len(round_trip))} addresses)")


if __name__ == "__main__":
    main()
