"""Property test: a response table built chunk by chunk equals one built at once.

The scan engine adds each chunk's UDP/53 hits to the scan's
``ResponseTable`` with one ``extend`` call, and the table assigns every
forged-answer row its payload offset as it goes.  Over random row
streams (A-record and Teredo-wide eras; rows with and without forged
answers, with and without a genuine variant) cut into random chunks,
empty ones included, the chunked table must hold the same rows, in the
same order, as a table built by a single ``extend``: ``columns()``,
``table[responder]`` and the rows a later ``take`` copies all agree,
and ``columns()`` returns exactly the generated stream, also for a
chosen subset of rows and after ``drop`` and ``take`` leave slots
behind.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.protocols import DnsAnswer, RecordType
from repro.scan.responses import FLAG_INJECTED, GENUINE_NOERROR, ResponseTable

QNAME = "www.google.com"
RESOLVED = (DnsAnswer(rtype=RecordType.AAAA, address=42 << 64),)

_M64 = 0xFFFFFFFFFFFFFFFF
_VARIANTS = st.integers(0, GENUINE_NOERROR)


def _stream(wide: bool):
    """Unique responders, each with ``(variant, forged addresses)``."""
    top = (1 << 128) - 1 if wide else (1 << 32) - 1
    forged = st.lists(st.integers(0, top), max_size=4) | st.lists(
        st.integers(0, top), min_size=64, max_size=80)
    return st.dictionaries(
        st.integers(0, (1 << 128) - 1),
        st.tuples(_VARIANTS, forged),
        max_size=30,
    )


def _columns(rows, wide: bool):
    """What one engine chunk passes to ``extend`` for ``rows``."""
    responders, metas, counts, payloads = [], bytearray(), [], []
    for responder, (variant, forged) in rows:
        meta = variant
        if forged:
            meta |= FLAG_INJECTED
            counts.append(len(forged))
            for address in forged:
                if wide:
                    payloads.extend((address & _M64, address >> 64))
                else:
                    payloads.append(address)
        responders.append(responder)
        metas.append(meta)
    return responders, metas, counts, payloads


def _table(wide: bool) -> ResponseTable:
    return ResponseTable(QNAME, RESOLVED, wide=wide)


def _observed(table: ResponseTable, chosen=None):
    """``(responder, variant, forged addresses)`` per row, from the columns."""
    rows = table.columns(chosen)
    if table.wide:
        lows, highs = rows.answers
        addresses = [lo | hi << 64 for lo, hi in zip(lows, highs)]
    else:
        (addresses,) = rows.answers
    assert len(addresses) == sum(rows.counts)
    answers = iter(addresses)
    return [
        (responder, variant, [next(answers) for _ in range(count)])
        for responder, variant, count in zip(rows.responders, rows.variants, rows.counts)
    ]


def _same(left: ResponseTable, right: ResponseTable) -> None:
    assert list(left) == list(right)
    assert _observed(left) == _observed(right)
    for responder in left:
        assert left[responder] == right[responder]


@settings(deadline=None)
@given(data=st.data(), wide=st.booleans())
def test_chunked_extend_matches_single_extend(data, wide):
    stream = list(data.draw(_stream(wide)).items())
    cuts = sorted(data.draw(st.lists(st.integers(0, len(stream)), max_size=8)))
    bounds = [0, *cuts, len(stream)]

    whole = _table(wide)
    whole.extend(*_columns(stream, wide))
    chunked = _table(wide)
    for start, stop in zip(bounds, bounds[1:]):
        chunked.extend(*_columns(stream[start:stop], wide))

    assert _observed(whole) == [
        (responder, variant, forged) for responder, (variant, forged) in stream
    ]
    _same(chunked, whole)
    for responder, (variant, forged) in stream:
        responses = chunked[responder]
        assert len(responses) == len(forged) + (variant != 0)
        assert [r.answers[0].address for r in responses[:len(forged)]] == forged

    # a later take (the fleet merge) copies the same rows from either
    # table, also onto a target that already holds another table's payloads
    prior = _table(wide)
    prior.extend(*_columns(data.draw(_stream(wide)).items(), wide))
    responders = [responder for responder, _ in stream]
    picked = data.draw(st.lists(st.sampled_from(responders), unique=True)) if stream else []
    kept = [responder for responder in picked if responder not in prior]
    merged = []
    for source in (whole, chunked):
        target = source.empty_copy()
        target.take(prior, list(prior))
        target.take(source, kept)
        merged.append(target)
    _same(merged[1], merged[0])
    assert list(merged[0]) == list(prior) + kept
    before = _observed(merged[0])
    by_responder = {responder: (variant, forged) for responder, (variant, forged) in stream}
    assert before == _observed(prior) + [
        (responder, *by_responder[responder]) for responder in kept
    ]

    # dropped rows leave their payload slots behind, and a chosen subset
    # reads only its own rows: neither may show up in the columns
    target = merged[0]
    dropped = set(data.draw(st.lists(st.sampled_from(list(target)), unique=True))
                  if len(target) else [])
    for responder in dropped:
        target.drop(responder)
    live = [row for row in before if row[0] not in dropped]
    assert _observed(target) == live
    chosen = set(data.draw(st.lists(st.sampled_from([row[0] for row in before])))
                 if before else [])
    assert _observed(target, chosen) == [row for row in live if row[0] in chosen]
