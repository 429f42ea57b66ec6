"""Property tests for the GFW filter over synthetic response batches.

Each example draws one injection era: a scan's forged answers are all
A records or all Teredo AAAA records (``ResponseTable.forged_rtype``).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gfw.filter import GfwFilter
from repro.net.teredo import encode_teredo
from tests.gfw._tables import NOERROR, NONE, scan_result

FORGED_A = 0x1F0D5801  # Facebook
FORGED_TEREDO = encode_teredo(1, 0x0D6B4001, 53)  # embeds a Microsoft IPv4
#: owner ASN of each era's forged answer
OWNER = {False: 32934, True: 8075}

era_strategy = st.booleans()  # True: Teredo era
#: (forged-answer count, genuine response heard), at least one response
row_strategy = st.tuples(
    st.integers(min_value=0, max_value=4), st.booleans()
).filter(lambda row: row[0] or row[1])
targets = st.integers(min_value=1, max_value=10**30)


def build_result(day, teredo, target_rows):
    """One scan: ``target_rows`` maps target -> (forged count, genuine)."""
    forged = FORGED_TEREDO if teredo else FORGED_A
    return scan_result(day, {
        target: ((forged,) * count, NOERROR if genuine else NONE)
        for target, (count, genuine) in target_rows.items()
    }, teredo=teredo)


@settings(max_examples=60, deadline=None)
@given(era_strategy, st.dictionaries(targets, row_strategy, min_size=1, max_size=20))
def test_partition_is_exact(teredo, target_rows):
    """Every responder lands in exactly one of {clean, injected}."""
    f = GfwFilter()
    cleaning = f.clean_scan(build_result(1, teredo, target_rows))
    responders = set(target_rows)
    assert cleaning.clean_responders | cleaning.injected_responders == responders
    assert not cleaning.clean_responders & cleaning.injected_responders
    # classification matches forged-evidence presence per target
    for target, (count, _genuine) in target_rows.items():
        assert (target in cleaning.injected_responders) == (count > 0)


@settings(max_examples=40, deadline=None)
@given(
    era_strategy,
    st.dictionaries(targets, row_strategy, min_size=1, max_size=12),
    st.sets(targets, max_size=12),
)
def test_historical_filter_monotone(teredo, target_rows, other_protocol):
    """The purge set never contains other-protocol responders and only
    grows with more injected evidence."""
    f = GfwFilter()
    f.clean_scan(build_result(1, teredo, target_rows))
    before = set(f.historical_filter_set())
    f.note_other_protocol_responders(other_protocol)
    after = f.historical_filter_set()
    assert after == before - other_protocol
    assert after <= f.ever_injected
    # a second scan can only extend the injected set
    f.clean_scan(build_result(2, teredo, target_rows))
    assert f.historical_filter_set() >= after - other_protocol


@settings(max_examples=40, deadline=None)
@given(era_strategy, st.dictionaries(
    targets, st.tuples(st.integers(min_value=1, max_value=3), st.booleans()),
    min_size=1, max_size=10,
))
def test_attribution_counts_every_forged_answer(teredo, target_rows):
    f = GfwFilter()
    f.clean_scan(build_result(1, teredo, target_rows))
    forged_total = sum(count for count, _genuine in target_rows.values())
    assert sum(f.forged_answer_owners.values()) == forged_total
    assert set(f.forged_answer_owners) == {OWNER[teredo]}
