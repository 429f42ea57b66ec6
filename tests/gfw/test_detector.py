"""Tests for the GFW response classifier (observable evidence only)."""

import pytest

from repro.gfw.detector import (
    DEFAULT_WHOIS,
    InjectionEvidence,
    Ipv4Whois,
    answer_evidence,
    classify_response,
)
from repro.net.teredo import encode_teredo
from repro.protocols import DnsAnswer, DnsResponse, DnsStatus, RecordType
from tests.gfw._cleaning_reference import classify_target, is_injected_target


def response(*answers, status=DnsStatus.NOERROR, responder=1):
    return DnsResponse(
        responder=responder, qname="www.google.com", status=status, answers=answers
    )


GOOGLE_AAAA = DnsAnswer(rtype=RecordType.AAAA, address=0x2A00145040070801 << 64)
FACEBOOK_A = DnsAnswer(rtype=RecordType.A, address=0x1F0D5801)  # inside 31.13.88.0/21
TEREDO_AAAA = DnsAnswer(
    rtype=RecordType.AAAA, address=encode_teredo(0x41EA9E00, 0x1F0D5801, 4444)
)
NS_REFERRAL = DnsAnswer(rtype=RecordType.NS, target="a.root-servers.net")
GOOGLE_A = DnsAnswer(rtype=RecordType.A, address=0x08080808)
#: DEFAULT_WHOIS plus Google's 8.8.0.0/16, the queried domain's owner
WHOIS_WITH_GOOGLE = Ipv4Whois(ranges=DEFAULT_WHOIS.ranges + ((0x08080000, 16, 15169),))


class TestClassifyResponse:
    def test_genuine_aaaa_not_flagged(self):
        assert classify_response(response(GOOGLE_AAAA)) is None

    def test_a_record_for_aaaa_query(self):
        assert (
            classify_response(response(FACEBOOK_A)) is InjectionEvidence.A_FOR_AAAA
        )

    def test_teredo_answer(self):
        assert (
            classify_response(response(TEREDO_AAAA)) is InjectionEvidence.TEREDO_ANSWER
        )

    def test_unrelated_owner_when_a_expected(self):
        evidence = classify_response(response(FACEBOOK_A), expected_rtype=RecordType.A)
        assert evidence is InjectionEvidence.UNRELATED_OWNER

    def test_error_status_never_flagged(self):
        assert classify_response(response(status=DnsStatus.REFUSED)) is None

    def test_empty_answers_not_flagged(self):
        assert classify_response(response()) is None


class TestAnswerEvidence:
    def test_a_for_aaaa(self):
        assert (
            answer_evidence(RecordType.A, FACEBOOK_A.address)
            is InjectionEvidence.A_FOR_AAAA
        )

    def test_teredo_aaaa(self):
        assert (
            answer_evidence(RecordType.AAAA, TEREDO_AAAA.address)
            is InjectionEvidence.TEREDO_ANSWER
        )

    def test_plain_aaaa(self):
        assert answer_evidence(RecordType.AAAA, GOOGLE_AAAA.address) is None

    def test_unrelated_owner_when_a_expected(self):
        assert (
            answer_evidence(RecordType.A, FACEBOOK_A.address,
                            expected_rtype=RecordType.A)
            is InjectionEvidence.UNRELATED_OWNER
        )

    def test_domain_owner_when_a_expected(self):
        assert answer_evidence(
            RecordType.A, GOOGLE_A.address, expected_rtype=RecordType.A,
            whois=WHOIS_WITH_GOOGLE,
        ) is None

    def test_ns_referral(self):
        assert answer_evidence(RecordType.NS, NS_REFERRAL.address) is None

    def test_error_status_through_classify_response(self):
        # the answer alone is evidence; a non-NOERROR response never is
        assert answer_evidence(RecordType.A, FACEBOOK_A.address) is not None
        assert classify_response(response(FACEBOOK_A, status=DnsStatus.SERVFAIL)) is None

    @pytest.mark.parametrize("expected", [RecordType.AAAA, RecordType.A])
    @pytest.mark.parametrize("answer", [
        GOOGLE_AAAA, FACEBOOK_A, TEREDO_AAAA, NS_REFERRAL, GOOGLE_A,
    ])
    def test_classify_response_agrees_on_single_answers(self, answer, expected):
        assert classify_response(
            response(answer), expected_rtype=expected, whois=WHOIS_WITH_GOOGLE
        ) is answer_evidence(
            answer.rtype, answer.address, expected_rtype=expected,
            whois=WHOIS_WITH_GOOGLE,
        )


class TestClassifyTarget:
    def test_multiple_responses_recorded(self):
        evidence = classify_target([response(GOOGLE_AAAA), response(GOOGLE_AAAA)])
        assert evidence == {InjectionEvidence.MULTIPLE_RESPONSES: 2}

    def test_mixed_evidence(self):
        evidence = classify_target([response(FACEBOOK_A), response(TEREDO_AAAA)])
        assert evidence[InjectionEvidence.A_FOR_AAAA] == 1
        assert evidence[InjectionEvidence.TEREDO_ANSWER] == 1
        assert evidence[InjectionEvidence.MULTIPLE_RESPONSES] == 2

    def test_clean_single_response(self):
        assert classify_target([response(GOOGLE_AAAA)]) == {}


class TestIsInjectedTarget:
    def test_record_level_evidence_required(self):
        # duplicates alone are not sufficient (could be retransmissions)
        assert not is_injected_target([response(GOOGLE_AAAA), response(GOOGLE_AAAA)])

    def test_teredo_flags(self):
        assert is_injected_target([response(GOOGLE_AAAA), response(TEREDO_AAAA)])

    def test_a_for_aaaa_flags(self):
        assert is_injected_target([response(FACEBOOK_A)])


class TestWhois:
    def test_known_ranges(self):
        assert DEFAULT_WHOIS.owner_of(0x1F0D5801) == 32934
        assert DEFAULT_WHOIS.owner_of(0x0D6B4001) == 8075
        assert DEFAULT_WHOIS.owner_of(0xA27D0001) == 19679
        assert DEFAULT_WHOIS.owner_of(0x01010101) is None
