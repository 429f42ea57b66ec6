"""Deterministic pseudo-random address selection inside prefixes.

The multi-level aliased prefix detection probes one pseudo-random address
inside each of the 16 next-nibble subprefixes of a candidate prefix
(Sec. 3.1 of the paper).  The choices must be deterministic per (prefix,
nonce) so repeated detections are comparable across scans, yet spread
evenly across the block.  We derive host bits from SHA-256, which is both
stable and statistically uniform.
"""

from __future__ import annotations

import hashlib
from typing import List

from repro.net.prefix import IPv6Prefix

#: the digits ``f"{value:032x}"`` prints, indexed by value
_HEX_DIGITS = b"0123456789abcdef"


def pseudo_random_address(prefix: IPv6Prefix, nonce: int = 0) -> int:
    """A deterministic, uniformly spread address inside ``prefix``.

    >>> p = IPv6Prefix.from_string("2001:db8::/32")
    >>> p.contains(pseudo_random_address(p))
    True
    >>> pseudo_random_address(p, 1) != pseudo_random_address(p, 2)
    True
    """
    host_bits = 128 - prefix.length
    if host_bits == 0:
        return prefix.value
    digest = hashlib.sha256(
        f"{prefix.value:032x}/{prefix.length}#{nonce}".encode("ascii")
    ).digest()
    host = int.from_bytes(digest, "big") & ((1 << host_bits) - 1)
    return prefix.value | host


def spread_addresses(prefix: IPv6Prefix, count: int = 16, nonce: int = 0) -> List[int]:
    """Pick one pseudo-random address per next-level subprefix.

    With the default ``count=16`` this reproduces the paper's detection
    probe generation: one address within each ``prefix[0-f]...`` nibble
    subprefix, so probes are distributed evenly across the block.

    >>> p = IPv6Prefix.from_string("2001:db8::/32")
    >>> probes = spread_addresses(p)
    >>> len(probes)
    16
    >>> sorted({(a >> (128 - 36)) & 0xF for a in probes})
    [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15]
    """
    if count < 1:
        raise ValueError("count must be positive")
    sub_bits = (count - 1).bit_length()
    if (1 << sub_bits) != count:
        raise ValueError(f"count must be a power of two, got {count}")
    new_length = min(prefix.length + sub_bits, 128)
    # inlined pseudo_random_address over each nth_subprefix: identical
    # digests, but pure int arithmetic instead of per-subprefix objects
    # (this runs 16x per APD candidate, every detection round)
    host_bits = 128 - new_length
    step = 1 << host_bits
    host_mask = step - 1
    value = prefix.value
    span = 1 << (new_length - prefix.length)
    if host_bits == 0:
        return [value + index for index in range(span)]
    sha256 = hashlib.sha256
    addresses = []
    if new_length % 4 == 0 and new_length and span <= 16:
        # the subprefix index only fills the low bits of one hex digit of
        # the hash input (the prefix zeroes them): format the input once
        # and swap that one digit per subprefix
        text = f"{value:032x}"
        position = new_length // 4 - 1
        digit = int(text[position], 16)
        message = bytearray(f"{text}/{new_length}#{nonce}".encode("ascii"))
        from_bytes = int.from_bytes
        for index in range(span):
            message[position] = _HEX_DIGITS[digit | index]
            host = from_bytes(sha256(message).digest(), "big") & host_mask
            addresses.append((value + index * step) | host)
        return addresses
    for index in range(span):
        sub_value = value + index * step
        digest = sha256(
            f"{sub_value:032x}/{new_length}#{nonce}".encode("ascii")
        ).digest()
        addresses.append(sub_value | (int.from_bytes(digest, "big") & host_mask))
    return addresses
