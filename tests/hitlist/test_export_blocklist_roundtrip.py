"""Integration: published aliased prefixes → aggregate → blocklist.

The downstream workflow the publication formats exist for: a consumer
loads the hitlist's aliased prefix list, aggregates it, and configures
their scanner's blocklist with it.  Scans must then avoid exactly the
published space.
"""

import io

from repro.hitlist.export import read_aliased_prefixes, write_aliased_prefixes
from repro.net.aggregate import merge_adjacent
from repro.protocols import Protocol
from repro.scan.blocklist import Blocklist
from repro.scan.zmap import ZMapScanner


def _icmp(scanner, targets, day):
    return scanner.scan_all_protocols(targets, day, "www.google.com")[0][Protocol.ICMP]


def test_published_prefixes_block_scans(small_world, short_history):
    # 1. the service publishes its aliased prefixes
    out = io.StringIO()
    write_aliased_prefixes(
        out, (alias.prefix for alias in short_history.final.aliased_prefixes)
    )

    # 2. a consumer parses and aggregates the list
    prefixes = read_aliased_prefixes(io.StringIO(out.getvalue()))
    aggregated = merge_adjacent(prefixes)
    assert len(aggregated) <= len(prefixes)

    # 3. and loads it into their scanner's blocklist
    blocklist = Blocklist()
    for prefix in aggregated:
        blocklist.add(prefix, reason="published aliased prefix")
    scanner = ZMapScanner(small_world, blocklist=blocklist, loss_rate=0.0)

    # addresses inside any published prefix are never probed …
    inside = [alias.prefix.value | 1 for alias in
              short_history.final.aliased_prefixes[:20]]
    result = _icmp(scanner, inside, 100)
    assert result.targets == 0
    assert not result.responders

    # … while the published responsive addresses still are
    sample = list(short_history.final.cleaned_any())[:50]
    scannable = [a for a in sample if not blocklist.is_blocked(a)]
    assert scannable, "responsive addresses live outside aliased space"
    result = _icmp(scanner, scannable, short_history.final.day)
    assert result.targets == len(scannable)
