"""Multi-level aliased prefix detection (Sec. 3.1 of the paper).

Candidate levels:

* every prefix announced in BGP,
* every /64 with at least one address in the service input,
* prefixes longer than /64 (in 4-bit steps) holding at least 100 input
  addresses.

Per candidate, one pseudo-random address inside each of the 16
next-nibble subprefixes is probed with ICMP and TCP/80; a prefix is
aliased when all 16 spots respond.  Per-spot results are merged across
both protocols and with the previous three detection runs to absorb
probe loss and transient outages.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.asn.rib import RibSnapshot
from repro.net.prefix import IPv6Prefix
from repro.net.random_addr import spread_addresses
from repro.net.trie import PrefixTrie
from repro.obs.metrics import MetricsRegistry
from repro.scan.zmap import ZMapScanner

_PROBE_COUNT = 16
_LONGER_STEP = 4
_LONGER_MAX = 124


@dataclass(frozen=True)
class DetectedAlias:
    """One prefix the detection labels aliased (fully responsive)."""

    prefix: IPv6Prefix
    first_detected_day: int
    level: str  # "bgp", "slash64" or "longer"


class AliasedPrefixDetection:
    """Incremental multi-level APD with per-prefix probe history."""

    def __init__(
        self,
        scanner: ZMapScanner,
        min_longer_addresses: int = 100,
        history_window: int = 3,
        reconfirm_interval: int = 30,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._scanner = scanner
        self._metrics = metrics
        if metrics is not None:
            self._m_tested = metrics.counter(
                "repro_apd_prefixes_tested_total",
                "APD detection rounds run, by candidate level.", ("level",))
            self._m_verdicts = metrics.counter(
                "repro_apd_alias_verdicts_total",
                "Alias state transitions, by verdict and candidate level.",
                ("verdict", "level"))
            self._m_aliased = metrics.gauge(
                "repro_apd_aliased_prefixes",
                "Currently detected aliased prefixes.")
        self._min_longer = min_longer_addresses
        self._window = history_window
        self._reconfirm_interval = reconfirm_interval
        #: per-candidate recent per-spot responsiveness bitmaps
        self._history: Dict[IPv6Prefix, List[int]] = {}
        self._candidate_level: Dict[IPv6Prefix, str] = {}
        self._last_tested: Dict[IPv6Prefix, int] = {}
        self._aliased: Dict[IPv6Prefix, DetectedAlias] = {}
        self._aliased_trie: PrefixTrie[DetectedAlias] = PrefixTrie()
        self._seen_slash64: Set[int] = set()
        #: near-miss candidates queued for re-testing: a single lost probe
        #: must not hide an aliased prefix forever, so mostly-responsive
        #: prefixes are re-probed until the merge window fills
        self._followup: Set[IPv6Prefix] = set()

    # ------------------------------------------------------------------
    # candidate generation

    def candidates_for_new_input(
        self,
        new_addresses: Iterable[int],
        slash64_members: Optional[Dict[int, List[int]]] = None,
    ) -> Set[IPv6Prefix]:
        """Candidates triggered by fresh input addresses.

        New /64s are always candidates.  ``slash64_members`` (maintained
        incrementally by the service: /64 network -> member addresses)
        lets the ≥100-address threshold for longer prefixes be evaluated
        without rescanning the whole input; any /64 whose membership grew
        is re-examined.
        """
        candidates: Set[IPv6Prefix] = set()
        touched_slash64: Set[int] = set()
        for address in new_addresses:
            slash64 = address >> 64
            touched_slash64.add(slash64)
            if slash64 not in self._seen_slash64:
                self._seen_slash64.add(slash64)
                prefix = IPv6Prefix(slash64 << 64, 64)
                candidates.add(prefix)
                self._candidate_level.setdefault(prefix, "slash64")
        if slash64_members:
            for prefix in self._longer_candidates(touched_slash64, slash64_members):
                candidates.add(prefix)
                self._candidate_level.setdefault(prefix, "longer")
        return candidates

    def _longer_candidates(
        self, touched_slash64: Set[int], slash64_members: Dict[int, List[int]]
    ) -> Set[IPv6Prefix]:
        """Longer-than-/64 candidates inside the /64s that changed."""
        candidates: Set[IPv6Prefix] = set()
        min_count = self._min_longer
        for slash64 in touched_slash64:
            members = slash64_members.get(slash64, ())
            if len(members) < min_count:
                continue
            # nibble-wise descent: a /L+4 group can only reach the
            # threshold if its covering /L group does, so sparse subtrees
            # are pruned instead of re-bucketing every member per level
            dense: List[List[int]] = [list(members)]
            for length in range(64 + _LONGER_STEP, _LONGER_MAX + 1, _LONGER_STEP):
                shift = 128 - length
                next_dense: List[List[int]] = []
                for group_members in dense:
                    groups: Dict[int, List[int]] = defaultdict(list)
                    for address in group_members:
                        groups[address >> shift].append(address)
                    for network_bits, sub_members in groups.items():
                        if len(sub_members) >= min_count:
                            candidates.add(IPv6Prefix(network_bits << shift, length))
                            next_dense.append(sub_members)
                dense = next_dense
                if not dense:
                    break
        return candidates

    def bgp_candidates(self, rib: RibSnapshot) -> Set[IPv6Prefix]:
        """All announced prefixes (tested every run)."""
        candidates = set()
        for prefix, _asn in rib.prefixes():
            candidates.add(prefix)
            self._candidate_level.setdefault(prefix, "bgp")
        return candidates

    # ------------------------------------------------------------------
    # probing

    def _batch_bitmaps(self, prefixes: List[IPv6Prefix], day: int) -> List[int]:
        """Per-spot responsiveness bitmaps (bit i = subprefix i answered).

        Each prefix gets 16 probes, one pseudo-random address per
        next-nibble subprefix, each probed with ICMP and TCP/80.  The
        probe nonce mixes the prefix's round count, so repeated rounds
        (even on the same day, e.g. during bootstrap) draw independent
        addresses and therefore independent loss.  All prefixes go
        through the scanner's chunked columnar path in one wave: one
        ground-truth walk and one bulk loss draw per chunk of probes.
        """
        probe_lists = [
            spread_addresses(
                prefix, _PROBE_COUNT,
                nonce=(day << 4) | (len(self._history.get(prefix, ())) & 0xF),
            )
            for prefix in prefixes
        ]
        bitmaps = self._scanner.apd_wave_bitmaps(probe_lists, day)
        full = (1 << _PROBE_COUNT) - 1
        for index, probes in enumerate(probe_lists):
            if len(probes) < _PROBE_COUNT:
                # prefixes near /128: fewer distinct spots, pad as responsive
                bitmaps[index] |= full ^ ((1 << len(probes)) - 1)
        return bitmaps

    def test_prefix(
        self, prefix: IPv6Prefix, day: int, bitmap: Optional[int] = None
    ) -> bool:
        """Run one detection round for one prefix and update state.

        ``bitmap`` lets batched callers inject a probe bitmap computed
        by :meth:`_batch_bitmaps`; without it the prefix is probed as a
        wave of one.
        """
        if bitmap is None:
            bitmap = self._batch_bitmaps([prefix], day)[0]
        level, verdict = self._record(prefix, day, bitmap)
        if self._metrics is not None:
            self._m_tested.labels(level=level).inc()
            if verdict is not None:
                self._m_verdicts.labels(verdict=verdict, level=level).inc()
            self._m_aliased.set(len(self._aliased))
        return prefix in self._aliased

    def _record(
        self, prefix: IPv6Prefix, day: int, bitmap: int
    ) -> Tuple[str, Optional[str]]:
        """Fold one round's bitmap into the prefix's state.

        Returns the candidate level and the alias verdict the round
        produced ("aliased", "delisted", or None when the state held);
        callers account the metrics.
        """
        level = self._candidate_level.get(prefix, "slash64")
        history = self._history.setdefault(prefix, [])
        history.append(bitmap)
        if len(history) > self._window + 1:
            del history[0]
        self._last_tested[prefix] = day
        full = (1 << _PROBE_COUNT) - 1
        if (
            bitmap != full
            and bin(bitmap).count("1") >= _PROBE_COUNT - 3
            and len(history) <= self._window
        ):
            self._followup.add(prefix)
        else:
            self._followup.discard(prefix)
        merged = 0
        for entry in history:
            merged |= entry
        if merged == full:
            if prefix not in self._aliased:
                detected = DetectedAlias(
                    prefix=prefix,
                    first_detected_day=day,
                    level=level,
                )
                self._aliased[prefix] = detected
                self._aliased_trie[prefix] = detected
                return level, "aliased"
        elif prefix in self._aliased and bitmap != full:
            # de-listed only when the *current* round clearly fails
            recent = history[-self._window:]
            merged_recent = 0
            for entry in recent:
                merged_recent |= entry
            if merged_recent != full:
                del self._aliased[prefix]
                self._aliased_trie.remove(prefix)
                return level, "delisted"
        return level, None

    def run(
        self,
        day: int,
        new_input: Iterable[int],
        slash64_members: Optional[Dict[int, List[int]]] = None,
        rib: Optional[RibSnapshot] = None,
    ) -> Set[IPv6Prefix]:
        """One incremental detection round.

        Tests new candidates, re-confirms known aliased prefixes, and
        (cheaply) re-tests announced prefixes whose verdict is stale.
        Returns the prefixes that changed state this round.
        """
        to_test: Set[IPv6Prefix] = set()
        to_test.update(self.candidates_for_new_input(new_input, slash64_members))
        if rib is not None:
            for prefix in self.bgp_candidates(rib):
                last = self._last_tested.get(prefix)
                if last is None or day - last >= self._reconfirm_interval:
                    to_test.add(prefix)
        for prefix in list(self._aliased):
            last = self._last_tested.get(prefix, -(10**9))
            if day - last >= self._reconfirm_interval:
                to_test.add(prefix)
        # near-miss candidates from earlier rounds get their merge window
        to_test.update(
            prefix for prefix in self._followup
            if self._last_tested.get(prefix, -1) < day
        )

        # shortest first: once a covering prefix is aliased, nested
        # candidates are redundant (their space is filtered anyway) and
        # testing them would multiply-count one fully responsive region.
        # Equal-length prefixes cannot cover each other, so each length
        # wave can check coverage once and then probe as a single batch.
        ordered = sorted(to_test, key=lambda p: (p.length, p.value))
        changed: Set[IPv6Prefix] = set()
        start = 0
        while start < len(ordered):
            end = start
            length = ordered[start].length
            while end < len(ordered) and ordered[end].length == length:
                end += 1
            wave = [
                prefix for prefix in ordered[start:end]
                if (covering := self._aliased_trie.covering_prefix(prefix)) is None
                or covering[0] == prefix
            ]
            self._test_wave(wave, day, changed)
            start = end
        return changed

    def _test_wave(
        self, wave: List[IPv6Prefix], day: int, changed: Set[IPv6Prefix]
    ) -> None:
        """Probe one batch of same-length prefixes and update state.

        Metrics are tallied per level and recorded once per wave, with
        the same totals as one :meth:`test_prefix` call per prefix.
        """
        bitmaps = self._batch_bitmaps(wave, day)
        tested: Dict[str, int] = {}
        verdicts: Dict[Tuple[str, str], int] = {}
        for prefix, bitmap in zip(wave, bitmaps):
            level, verdict = self._record(prefix, day, bitmap)
            tested[level] = tested.get(level, 0) + 1
            if verdict is not None:
                changed.add(prefix)
                key = (verdict, level)
                verdicts[key] = verdicts.get(key, 0) + 1
        if self._metrics is None or not tested:
            # an empty wave records nothing, as no test_prefix call would
            return
        for level, count in tested.items():
            self._m_tested.labels(level=level).inc(count)
        for (verdict, level), count in verdicts.items():
            self._m_verdicts.labels(verdict=verdict, level=level).inc(count)
        self._m_aliased.set(len(self._aliased))

    def retest_followups(self, day: int) -> Set[IPv6Prefix]:
        """Immediately re-test queued near-miss candidates.

        Used by the service's bootstrap so the very first published scan
        is not polluted by single-probe losses; attempt-based nonces make
        same-day re-tests draw fresh probes.
        """
        changed: Set[IPv6Prefix] = set()
        ordered = sorted(self._followup, key=lambda p: (p.length, p.value))
        self._test_wave(ordered, day, changed)
        return changed

    # ------------------------------------------------------------------
    # queries

    @property
    def aliased_prefixes(self) -> Tuple[DetectedAlias, ...]:
        """All currently detected aliased prefixes."""
        return tuple(self._aliased.values())

    @property
    def aliased_count(self) -> int:
        """Number of currently detected aliased prefixes."""
        return len(self._aliased)

    def is_aliased_address(self, address: int) -> bool:
        """True when a detected aliased prefix covers the address."""
        return self._aliased_trie.covers(address)

    def covering_alias(self, address: int) -> Optional[DetectedAlias]:
        """The most specific detected alias covering the address."""
        return self._aliased_trie.longest_value(address)
