"""Differential: column-wise GFW cleaning against the per-response reference.

``GfwFilter.clean_scan`` reads a scan's ``ResponseTable`` by column: one
evidence test per distinct Teredo high word (or one per A-record table),
counts from the answer counts, attribution from the low-word column.
``tests/gfw/_cleaning_reference.py::clean_mapping`` builds every response
and classifies each one.  Over generated scans both must give the same
verdicts, evidence, owner attribution (insertion order included, since
it reaches checkpoint bytes), ``ever_injected`` and deterministic
metrics.

The generated tables cover both payload widths; every genuine variant,
with ``resolved`` answer sets that carry evidence themselves (an A
record, a Teredo AAAA); Teredo-width tables whose forged AAAA answers
are not Teredo; rows that are not responders and responders without
rows; tables built chunk by chunk, with dropped rows, and merged from
two sources by ``take``.  Each case cleans two scans with one filter, so
owners first seen in the second scan append in order and the owner memo
is warm.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gfw.filter import GfwFilter
from repro.net.teredo import encode_teredo
from repro.obs import deterministic_metrics, registry_to_dict
from repro.obs.metrics import MetricsRegistry
from repro.protocols import DnsAnswer, RecordType
from repro.scan.responses import FLAG_INJECTED, GENUINE_NOERROR, ResponseTable
from repro.scan.zmap import Udp53Result
from tests.gfw._cleaning_reference import clean_mapping

QNAME = "www.google.com"
_M64 = 0xFFFFFFFFFFFFFFFF

#: IPv4s inside each DEFAULT_WHOIS range (Facebook, Microsoft, Dropbox)
#: and anywhere (mostly unowned); few distinct values, so they recur
owned_ipv4s = st.one_of(
    st.integers(0x1F0D5800, 0x1F0D5807),
    st.integers(0x0D6B4000, 0x0D6B4007),
    st.integers(0xA27D0000, 0xA27D0007),
    st.integers(0, (1 << 32) - 1),
)
#: a handful of Teredo servers: few distinct high words per scan
teredo_answers = st.builds(
    encode_teredo, st.sampled_from([0x41D0E5F0, 0x5EF5A8C7, 0x01020304]),
    owned_ipv4s, st.integers(0, 0xFFFF), st.sampled_from([0, 0x8000]),
)
#: AAAA answers outside 2001::/32 whose low word still decodes to an
#: owned IPv4: only the high word may tell them from Teredo answers
plain_aaaa = st.builds(
    lambda answer, high: answer & _M64 | high << 64, teredo_answers,
    st.sampled_from([0x2A001450_40010000, 0x20010DB8_00000000, 0x20020000_00000001]),
)


def forged_answers(wide: bool):
    """A row's forged answers: IPv4s, or AAAA payloads that are mostly
    Teredo, sometimes not."""
    if not wide:
        answer = owned_ipv4s
    else:
        answer = st.one_of(teredo_answers, teredo_answers, plain_aaaa)
    return st.lists(answer, max_size=4)


#: what an open resolver answers: plain AAAA, or sets that carry forgery
#: evidence themselves
resolved_sets = st.lists(
    st.one_of(
        st.builds(DnsAnswer, rtype=st.just(RecordType.AAAA), address=plain_aaaa),
        st.builds(DnsAnswer, rtype=st.just(RecordType.AAAA), address=teredo_answers),
        st.builds(DnsAnswer, rtype=st.just(RecordType.A), address=owned_ipv4s),
    ),
    max_size=2,
).map(tuple)


def stream(wide: bool):
    """Unique responders, each with ``(variant, forged answers)``."""
    return st.dictionaries(
        st.integers(0, (1 << 128) - 1),
        st.tuples(
            st.integers(0, GENUINE_NOERROR) | st.just(GENUINE_NOERROR),
            forged_answers(wide),
        ),
        max_size=25,
    )


def _extend(table: ResponseTable, rows) -> None:
    """One engine chunk's ``extend`` call for ``rows``."""
    responders, metas, counts, payloads = [], [], [], []
    for responder, (variant, forged) in rows:
        meta = variant
        if forged:
            meta |= FLAG_INJECTED
            counts.append(len(forged))
            for address in forged:
                if table.wide:
                    payloads.extend((address & _M64, address >> 64))
                else:
                    payloads.append(address)
        responders.append(responder)
        metas.append(meta)
    table.extend(responders, metas, counts, payloads)


@st.composite
def scans(draw, wide: bool, resolved):
    """One scan's result: a table built in chunks, with dropped rows and
    a take-merge, and a responder set that differs from its rows."""
    rows = list(draw(stream(wide)).items())
    cuts = sorted(draw(st.lists(st.integers(0, len(rows)), max_size=4)))
    bounds = [0, *cuts, len(rows)]
    table = ResponseTable(QNAME, resolved, wide=wide)
    for start, stop in zip(bounds, bounds[1:]):
        _extend(table, rows[start:stop])
    keys = [responder for responder, _ in rows]
    if keys and draw(st.booleans()):
        # a fleet merge: rows of another source first, then a subset of
        # this table's rows, in another order
        other = ResponseTable(QNAME, resolved, wide=wide)
        _extend(other, [item for item in draw(stream(wide)).items()
                        if item[0] not in table])
        merged = table.empty_copy()
        picked = draw(st.permutations(keys))[:draw(st.integers(0, len(keys)))]
        merged.take(other, draw(st.permutations(list(other))))
        merged.take(table, picked)
        table = merged
    live = list(table)
    for responder in draw(st.lists(st.sampled_from(live), unique=True)) if live else ():
        table.drop(responder)  # rate limiting
    everyone = live + draw(st.lists(st.integers(0, (1 << 128) - 1), max_size=5))
    responders = set(draw(st.lists(st.sampled_from(everyone), unique=True))
                     if everyone else ())
    return Udp53Result(day=draw(st.integers(0, 2000)), qname=QNAME, targets=len(everyone),
                       responders=responders, responses=table)


@st.composite
def campaigns(draw):
    """Two scans of one era (same width), each with its own resolved set."""
    wide = draw(st.booleans())
    return [draw(scans(wide, draw(resolved_sets))) for _ in range(2)]


def _clean(results, reference: bool):
    registry = MetricsRegistry()
    gfw = GfwFilter(metrics=registry)
    views = []
    for result in results:
        if reference:
            cleaning = clean_mapping(gfw, result, dict(result.responses.items()))
        else:
            cleaning = gfw.clean_scan(result)
        views.append((
            cleaning.clean_responders,
            cleaning.injected_responders,
            cleaning.evidence_counts,
            list(gfw.forged_answer_owners.items()),
        ))
    return views, gfw.ever_injected, deterministic_metrics(registry_to_dict(registry))


@settings(deadline=None)
@given(campaigns())
def test_column_cleaning_matches_reference(results):
    assert _clean(results, reference=False) == _clean(results, reference=True)
