"""The scanner's per-probe packet-loss draw, in one place.

A probe of ``target`` on ``day`` survives attempt ``k`` when
``mix64(base ^ inner_k) >= threshold``, where ``base`` folds the 128-bit
address to 64 bits and ``inner_k`` depends only on (day, salt, seed,
k).  The four cheap protocols share one 64-bit draw under
:data:`FAST_SALT` (one 16-bit slice each); every other protocol draws
under its own ``int(Protocol)`` salt.

The scan engine's bulk draws, the APD wave pass and the incremental
scheduler's loss replay all take their inner constants from
:func:`loss_inners`, so they cannot drift apart.
"""

from __future__ import annotations

from typing import Tuple

from repro._util import mix64
from repro.runtime.faults import RETRY_SALT

_M64 = 0xFFFFFFFFFFFFFFFF

#: salt of the fused fast-protocol draw (ICMP, TCP/80, TCP/443, UDP/443)
FAST_SALT = 0x5CA11


def loss_inners(seed: int, day: int, salt: int, attempts: int) -> Tuple[int, ...]:
    """Per-attempt inner hashes of the loss draw for one scan day."""
    return tuple(
        mix64((day << 8) ^ salt ^ seed ^ ((attempt * RETRY_SALT) & _M64))
        for attempt in range(attempts)
    )
