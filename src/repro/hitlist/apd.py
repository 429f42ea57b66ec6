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

The detector keeps its candidates in one table keyed by an int,
``length << 128 | value`` (:func:`candidate_key`): the level, the
last-tested day, the recent bitmaps, the follow-up queue and the
detected aliases.  Sorting the keys gives the (length, value) order, so
each round's length waves are contiguous runs of one sorted list, and
the coverage check against the aliases runs on the alias trie's
per-length dicts.  :class:`~repro.net.prefix.IPv6Prefix` objects are
built only at the edges: :class:`DetectedAlias`, the ``changed`` set a
round returns and the public candidate queries.  The checkpoint
(:meth:`AliasedPrefixDetection.state_dict`) writes the maps in
insertion order and the follow-up queue in set-iteration order; the
queue holds ``(value, length)`` tuples, which hash as the prefixes do.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Set, Tuple

from repro.asn.rib import RibSnapshot
from repro.net.prefix import IPv6Prefix
from repro.net.random_addr import spread_network
from repro.net.trie import PrefixTrie
from repro.obs.metrics import MetricsRegistry
from repro.scan.zmap import ZMapScanner

_PROBE_COUNT = 16
_FULL = (1 << _PROBE_COUNT) - 1
_LONGER_STEP = 4
_LONGER_MAX = 124
#: the value half of a candidate key
_VALUE_MASK = (1 << 128) - 1


def candidate_key(prefix: IPv6Prefix) -> int:
    """The candidate table's key of ``prefix``: ``length << 128 | value``."""
    return prefix.length << 128 | prefix.value


def _prefix(key: int) -> IPv6Prefix:
    return IPv6Prefix(key & _VALUE_MASK, key >> 128)


@dataclass(frozen=True)
class DetectedAlias:
    """One prefix the detection labels aliased (fully responsive)."""

    prefix: IPv6Prefix
    first_detected_day: int
    level: str  # "bgp", "slash64" or "longer"


def encode_aliases(aliases: Iterable[DetectedAlias]) -> List[List[Any]]:
    """The checkpoint form of ``aliases``: ``[value, length,
    first_detected_day, level]`` per alias."""
    return [
        [alias.prefix.value, alias.prefix.length, alias.first_detected_day, alias.level]
        for alias in aliases
    ]


def decode_aliases(entries: Iterable[List[Any]]) -> List[DetectedAlias]:
    """The aliases :func:`encode_aliases` wrote."""
    return [
        DetectedAlias(
            prefix=IPv6Prefix(int(value), int(length)),
            first_detected_day=int(day),
            level=str(level),
        )
        for value, length, day, level in entries
    ]


class CandidateState(NamedTuple):
    """What the detector holds for one prefix; see
    :meth:`AliasedPrefixDetection.candidate`."""

    level: Optional[str]
    last_tested: Optional[int]
    history: Tuple[int, ...]
    followup: bool


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
        # the candidate table, by candidate_key: the level in generation
        # order, the recent per-spot bitmaps and last-tested day in
        # first-tested order, the detected aliases in detection order
        self._level: Dict[int, str] = {}
        self._history: Dict[int, List[int]] = {}
        self._last_tested: Dict[int, int] = {}
        self._aliased: Dict[int, DetectedAlias] = {}
        self._aliased_trie: PrefixTrie[DetectedAlias] = PrefixTrie()
        self._seen_slash64: Set[int] = set()
        #: near-miss candidates queued for re-testing, as (value, length):
        #: a single lost probe must not hide an aliased prefix forever, so
        #: mostly-responsive prefixes are re-probed until the merge window
        #: fills
        self._followup: Set[Tuple[int, int]] = set()

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
        return set(map(_prefix, self._new_input_keys(new_addresses, slash64_members)))

    def _new_input_keys(
        self,
        new_addresses: Iterable[int],
        slash64_members: Optional[Dict[int, List[int]]],
    ) -> List[int]:
        """:meth:`candidates_for_new_input` as candidate keys."""
        keys: List[int] = []
        levels = self._level
        seen = self._seen_slash64
        touched_slash64: Set[int] = set()
        slash64_base = 64 << 128
        for address in new_addresses:
            slash64 = address >> 64
            touched_slash64.add(slash64)
            if slash64 not in seen:
                seen.add(slash64)
                key = slash64_base | slash64 << 64
                keys.append(key)
                levels.setdefault(key, "slash64")
        if slash64_members:
            # in the iteration order of the (value, length) set, which is
            # the order the levels were first recorded in
            for value, length in self._longer_candidates(
                touched_slash64, slash64_members
            ):
                key = length << 128 | value
                keys.append(key)
                levels.setdefault(key, "longer")
        return keys

    def _longer_candidates(
        self, touched_slash64: Set[int], slash64_members: Dict[int, List[int]]
    ) -> Set[Tuple[int, int]]:
        """Longer-than-/64 candidates inside the /64s that changed, as
        (value, length) pairs."""
        candidates: Set[Tuple[int, int]] = set()
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
                            candidates.add((network_bits << shift, length))
                            next_dense.append(sub_members)
                dense = next_dense
                if not dense:
                    break
        return candidates

    def bgp_candidates(self, rib: RibSnapshot) -> Set[IPv6Prefix]:
        """All announced prefixes (tested every run)."""
        return set(map(_prefix, self._bgp_keys(rib)))

    def _bgp_keys(self, rib: RibSnapshot) -> List[int]:
        """:meth:`bgp_candidates` as candidate keys, in address order."""
        levels = self._level
        keys = [candidate_key(prefix) for prefix, _asn in rib.prefixes()]
        for key in keys:
            levels.setdefault(key, "bgp")
        return keys

    # ------------------------------------------------------------------
    # probing

    def _batch_bitmaps(self, keys: List[int], day: int) -> List[int]:
        """Per-spot responsiveness bitmaps (bit i = subprefix i answered).

        Each candidate gets 16 probes, one pseudo-random address per
        next-nibble subprefix, each probed with ICMP and TCP/80.  The
        probe nonce mixes the candidate's round count, so repeated rounds
        (even on the same day, e.g. during bootstrap) draw independent
        addresses and therefore independent loss.  All candidates go
        through the scanner's chunked columnar path in one wave: one
        ground-truth walk and one bulk loss draw per chunk of probes.
        """
        history = self._history
        day_nonce = day << 4
        probe_lists = []
        for key in keys:
            rounds = history.get(key)
            probe_lists.append(spread_network(
                key & _VALUE_MASK, key >> 128, _PROBE_COUNT,
                day_nonce | (len(rounds) & 0xF if rounds else 0),
            ))
        bitmaps = self._scanner.apd_wave_bitmaps(probe_lists, day)
        for index, probes in enumerate(probe_lists):
            if len(probes) < _PROBE_COUNT:
                # prefixes near /128: fewer distinct spots, pad as responsive
                bitmaps[index] |= _FULL ^ ((1 << len(probes)) - 1)
        return bitmaps

    def test_prefix(
        self, prefix: IPv6Prefix, day: int, bitmap: Optional[int] = None
    ) -> bool:
        """Run one detection round for one prefix and update state.

        ``bitmap`` lets batched callers inject a probe bitmap computed
        by :meth:`_batch_bitmaps`; without it the prefix is probed as a
        wave of one.
        """
        key = candidate_key(prefix)
        if bitmap is None:
            bitmap = self._batch_bitmaps([key], day)[0]
        level, verdict = self._record(key, day, bitmap)
        if self._metrics is not None:
            self._m_tested.labels(level=level).inc()
            if verdict is not None:
                self._m_verdicts.labels(verdict=verdict, level=level).inc()
            self._m_aliased.set(len(self._aliased))
        return key in self._aliased

    def _record(
        self, key: int, day: int, bitmap: int
    ) -> Tuple[str, Optional[str]]:
        """Fold one round's bitmap into the candidate's state.

        Returns the candidate level and the alias verdict the round
        produced ("aliased", "delisted", or None when the state held);
        callers account the metrics.
        """
        level = self._level.get(key, "slash64")
        history = self._history.get(key)
        if history is None:
            history = self._history[key] = []
        history.append(bitmap)
        if len(history) > self._window + 1:
            del history[0]
        self._last_tested[key] = day
        pair = (key & _VALUE_MASK, key >> 128)
        if (
            bitmap != _FULL
            and bitmap.bit_count() >= _PROBE_COUNT - 3
            and len(history) <= self._window
        ):
            self._followup.add(pair)
        else:
            self._followup.discard(pair)
        merged = 0
        for entry in history:
            merged |= entry
        aliased = self._aliased
        if merged == _FULL:
            if key not in aliased:
                detected = DetectedAlias(
                    prefix=IPv6Prefix(*pair),
                    first_detected_day=day,
                    level=level,
                )
                aliased[key] = detected
                self._aliased_trie[detected.prefix] = detected
                return level, "aliased"
        elif key in aliased and bitmap != _FULL:
            # de-listed only when the *current* round clearly fails
            merged_recent = 0
            for entry in history[-self._window:]:
                merged_recent |= entry
            if merged_recent != _FULL:
                self._aliased_trie.remove(aliased.pop(key).prefix)
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
        last_tested = self._last_tested
        interval = self._reconfirm_interval
        to_test: Set[int] = set(self._new_input_keys(new_input, slash64_members))
        if rib is not None:
            for key in self._bgp_keys(rib):
                last = last_tested.get(key)
                if last is None or day - last >= interval:
                    to_test.add(key)
        for key in self._aliased:
            if day - last_tested.get(key, -(10**9)) >= interval:
                to_test.add(key)
        # near-miss candidates from earlier rounds get their merge window
        for value, length in self._followup:
            key = length << 128 | value
            if last_tested.get(key, -1) < day:
                to_test.add(key)

        # shortest first: once a covering prefix is aliased, nested
        # candidates are redundant (their space is filtered anyway) and
        # testing them would multiply-count one fully responsive region.
        # Equal-length prefixes cannot cover each other, so each length
        # wave checks coverage once and then probes as a single batch;
        # a wave's aliases re-index the trie before the next wave reads it.
        ordered = sorted(to_test)
        changed: Set[IPv6Prefix] = set()
        start = 0
        while start < len(ordered):
            length = ordered[start] >> 128
            end = bisect_left(ordered, (length + 1) << 128, start)
            wave = ordered[start:end]
            covered = self._aliased_trie.covered(
                [key & _VALUE_MASK for key in wave], length
            )
            if covered:
                wave = [key for key in wave if key & _VALUE_MASK not in covered]
            self._test_wave(wave, day, changed)
            start = end
        return changed

    def _test_wave(
        self, keys: List[int], day: int, changed: Set[IPv6Prefix]
    ) -> None:
        """Probe one batch of candidates and update state.

        Metrics are tallied per level and recorded once per wave, with
        the same totals as one :meth:`test_prefix` call per candidate.
        """
        bitmaps = self._batch_bitmaps(keys, day)
        tested: Dict[str, int] = {}
        verdicts: Dict[Tuple[str, str], int] = {}
        record = self._record
        for key, bitmap in zip(keys, bitmaps):
            level, verdict = record(key, day, bitmap)
            tested[level] = tested.get(level, 0) + 1
            if verdict is not None:
                changed.add(_prefix(key))
                pair = (verdict, level)
                verdicts[pair] = verdicts.get(pair, 0) + 1
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
        keys = sorted(length << 128 | value for value, length in self._followup)
        self._test_wave(keys, day, changed)
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

    def is_aliased(self, prefix: IPv6Prefix) -> bool:
        """True when ``prefix`` itself is a detected aliased prefix."""
        return candidate_key(prefix) in self._aliased

    def is_aliased_address(self, address: int) -> bool:
        """True when a detected aliased prefix covers the address."""
        return self._aliased_trie.covers(address)

    def covering_alias(self, address: int) -> Optional[DetectedAlias]:
        """The most specific detected alias covering the address."""
        return self._aliased_trie.longest_value(address)

    def candidate(self, prefix: IPv6Prefix) -> CandidateState:
        """What the detector holds for ``prefix``: its level (None when
        never generated), last-tested day (None when never tested),
        recent bitmaps, oldest first, and whether it awaits a follow-up."""
        key = candidate_key(prefix)
        return CandidateState(
            level=self._level.get(key),
            last_tested=self._last_tested.get(key),
            history=tuple(self._history.get(key, ())),
            followup=(prefix.value, prefix.length) in self._followup,
        )

    # ------------------------------------------------------------------
    # checkpoint

    def state_dict(self) -> Dict[str, Any]:
        """Checkpoint payload: every map in insertion order, the
        follow-up queue in set-iteration order."""
        mask = _VALUE_MASK
        history: List[List[Any]] = []
        last_tested: List[List[Any]] = []
        # _record sets both maps at a candidate's first test, so they
        # share keys and order; each value is split off its key once
        for (key, bitmaps), day in zip(
            self._history.items(), self._last_tested.values()
        ):
            value = key & mask
            history.append([value, key >> 128, list(bitmaps)])
            last_tested.append([value, key >> 128, day])
        return {
            "history": history,
            "candidate_level": [
                [key & mask, key >> 128, level] for key, level in self._level.items()
            ],
            "last_tested": last_tested,
            "aliased": encode_aliases(self._aliased.values()),
            "seen_slash64": sorted(self._seen_slash64),
            "followup": [[value, length] for value, length in self._followup],
        }

    def restore_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output after a resume."""
        self._history = {
            int(length) << 128 | int(value): [int(bitmap) for bitmap in bitmaps]
            for value, length, bitmaps in state["history"]
        }
        self._level = {
            int(length) << 128 | int(value): str(level)
            for value, length, level in state["candidate_level"]
        }
        self._last_tested = {
            int(length) << 128 | int(value): int(day)
            for value, length, day in state["last_tested"]
        }
        self._aliased = {}
        self._aliased_trie = PrefixTrie()
        for alias in decode_aliases(state["aliased"]):
            self._aliased[candidate_key(alias.prefix)] = alias
            self._aliased_trie[alias.prefix] = alias
        self._seen_slash64 = set(map(int, state["seen_slash64"]))
        self._followup = {
            (int(value), int(length)) for value, length in state["followup"]
        }
