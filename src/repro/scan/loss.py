"""The scanner's per-probe packet loss, in one place.

A probe of ``target`` on ``day`` survives attempt ``k`` when
``mix64(base ^ inner_k) >= threshold``, where ``base`` folds the 128-bit
address to 64 bits and ``inner_k`` depends only on (day, salt, seed,
k).  The four cheap protocols share one 64-bit draw under
:data:`FAST_SALT` (one 16-bit slice each); every other protocol draws
under its own ``int(Protocol)`` salt.  A loss burst of the fault plan
swallows every probe of a target at once, retries included.

:class:`LossModel` is the one owner of these draws.  The fused scan
chunk, the APD wave and the incremental scheduler's replay each resolve
a day through it and draw whole target lists in lane passes, so they
cannot drift apart.  A scanner builds its model from its own seed, loss
rate, retry attempts and fault plan; the scheduler holds the
coordinator's (see :class:`~repro.scan.scheduler.IncrementalScheduler`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro._util import mix64
from repro.protocols import Protocol
from repro.runtime.faults import RETRY_SALT, FaultPlan
from repro.scan.vecmix import bulk_mix64_xor, lane_kit, pack_lanes, survive16, survive64

_M64 = 0xFFFFFFFFFFFFFFFF

#: salt of the fused fast-protocol draw (ICMP, TCP/80, TCP/443, UDP/443)
FAST_SALT = 0x5CA11

#: a fast nibble -> 1 when all four fast probes are through, else 0
_NIBBLE_THROUGH = bytes(int(value == 0x0F) for value in range(256))


def loss_inners(seed: int, day: int, salt: int, attempts: int) -> Tuple[int, ...]:
    """Per-attempt inner hashes of the loss draw for one scan day."""
    return tuple(
        mix64((day << 8) ^ salt ^ seed ^ ((attempt * RETRY_SALT) & _M64))
        for attempt in range(attempts)
    )


class Lanes:
    """A target list's 64-bit bases, one per 128-bit lane, padded to a
    power-of-two lane count so the ``lane_kit`` memo stays tiny.  Packed
    on the first draw, so a lossless scan packs nothing."""

    __slots__ = ("targets", "n", "kit", "_packed")

    def __init__(self, targets: Sequence[int]) -> None:
        self.targets = targets
        n = self.n = len(targets)
        self.kit = lane_kit(1 << (n - 1).bit_length() if n > 1 else 1)
        self._packed: Optional[int] = None

    def mix(self, inner: int) -> int:
        """Per lane, ``mix64(base ^ inner)``."""
        if self._packed is None:
            bases = [(target & _M64) ^ (target >> 64) for target in self.targets]
            self._packed = pack_lanes(bases + [0] * (self.kit.n - self.n))
        return bulk_mix64_xor(self._packed, inner, self.kit)


class Survivors:
    """One draw's survivors, attempt by attempt: ``attempts[k]`` holds
    one byte per target (a fast nibble, or 0/1).  A target is *through*
    once the OR of its attempts so far equals ``full``."""

    __slots__ = ("attempts", "full")

    def __init__(self, attempts: List[bytes], full: int) -> None:
        self.attempts = attempts
        self.full = full

    def merged(self) -> bytes:
        """Per target, the probes any attempt gets through."""
        merged = 0
        for survived in self.attempts:
            merged |= int.from_bytes(survived, "little")
        return merged.to_bytes(len(self.attempts[0]), "little")

    def first_attempt(self, index: int) -> Optional[int]:
        """The attempt after which target ``index`` is through; None
        when it never is."""
        got = 0
        for attempt, survived in enumerate(self.attempts):
            got |= survived[index]
            if got == self.full:
                return attempt
        return None

    def retries(self, counted: Optional[Sequence[int]] = None) -> int:
        """Loss re-draws the retry policy takes: each target's first
        attempt, ``attempts - 1`` when it never gets through.  Only
        targets flagged in ``counted`` count (None: every target)."""
        last = len(self.attempts) - 1
        if not last:
            return 0
        first = self.attempts[0]
        through = first if self.full == 1 else first.translate(_NIBBLE_THROUGH)
        draws = 0
        index = through.find(0)
        while index >= 0:
            if counted is None or counted[index]:
                attempt = self.first_attempt(index)
                draws += last if attempt is None else attempt
            index = through.find(0, index + 1)
        return draws


@dataclass(frozen=True)
class LossModel:
    """One prober's loss: seed, per-probe loss rate, retry attempts and
    the fault plan whose loss bursts apply.  Equal models draw equal
    losses."""

    seed: int = 0
    loss_rate: float = 0.03
    attempts: int = 1
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"loss rate out of range: {self.loss_rate}")
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")

    def on(self, day: int) -> "LossDay":
        """The model resolved for scan day ``day``."""
        return LossDay(self, day)


class LossDay:
    """A :class:`LossModel` resolved for one day: the survival thresholds
    of a 16-bit slice and a 64-bit draw, every draw's inner constants and
    the burst filter (None on a burst-free day: no per-target call)."""

    __slots__ = ("day", "threshold16", "threshold64", "burst_lost", "_inners")

    def __init__(self, model: LossModel, day: int) -> None:
        self.day = day
        self.threshold16 = int(model.loss_rate * 65536.0)
        self.threshold64 = int(model.loss_rate * float(1 << 64))
        plan = model.fault_plan
        self.burst_lost = plan.bursts_on(day) if plan is not None else None
        self._inners = {
            salt: loss_inners(model.seed, day, salt, model.attempts)
            for salt in (FAST_SALT, *map(int, Protocol))
        }

    def unburst(self, targets: Sequence[int]) -> Sequence[int]:
        """The ``targets`` no burst swallows, in order (``targets`` itself
        on a burst-free day)."""
        lost = self.burst_lost
        if lost is None:
            return targets
        return [target for target in targets if not lost(target)]

    def fast(self, lanes: Lanes) -> Survivors:
        """The fused fast draw: per target, the nibble of surviving
        probes in FAST_PROTOCOLS order."""
        return self._draw(lanes, FAST_SALT, self.threshold16, survive16, 0x0F)

    def draw(self, lanes: Lanes, protocol: Protocol) -> Survivors:
        """The 64-bit draw of ``protocol``: per target, 1 when its probe
        survives."""
        return self._draw(lanes, int(protocol), self.threshold64, survive64, 0x01)

    def _draw(
        self, lanes: Lanes, salt: int, threshold: int, survive: Callable, full: int
    ) -> Survivors:
        if not threshold:  # lossless: nothing to pack or draw
            return Survivors([bytes((full,)) * lanes.n], full)
        return Survivors([
            survive(lanes.mix(inner), threshold, lanes.kit)[:lanes.n]
            for inner in self._inners[salt]
        ], full)
