import json

import pytest

from polystrata.verify import (
    Case,
    SUITES,
    VerificationReport,
    d_squared_suite,
    hook_suite,
    partitions_of,
    quotient_suite,
)


class TestPartitionsOf:
    def test_counts(self):
        # partition numbers p(0)..p(8)
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
        for n, count in enumerate(expected):
            assert len(partitions_of(n)) == count

    def test_ascending_tuples(self):
        for partition in partitions_of(6):
            assert list(partition) == sorted(partition)
            assert sum(partition) == 6

    def test_max_part(self):
        assert partitions_of(4, max_part=2) == [(1, 1, 1, 1), (1, 1, 2), (2, 2)]


class TestReports:
    def test_case_match(self):
        assert Case("x", 1, 1).match
        assert not Case("x", 1, 2).match

    def test_report_passed(self):
        good = VerificationReport("s", (Case("a", 1, 1),))
        bad = VerificationReport("s", (Case("a", 1, 2),))
        assert good.passed and not bad.passed

    def test_text_shows_failures(self):
        bad = VerificationReport("s", (Case("a", 1, 2),))
        text = bad.to_text()
        assert "FAIL a" in text
        assert "expected: 1" in text
        assert "0/1 cases passed" in text

    def test_json_round_trip(self):
        report = hook_suite(n_range=(2, 3), k_range=(2, 3))
        data = json.loads(report.to_json())
        assert data["suite"] == "hook"
        assert data["passed"] is True

    def test_suite_registry(self):
        assert set(SUITES) == {
            "hook",
            "resonance-free",
            "prop-3-7",
            "prop-3-11",
            "paper-table",
            "d-squared",
        }

    def test_d_squared_regression_case_present(self):
        report = d_squared_suite(max_weight=2, max_ambient=4)
        labels = [c.label for c in report.cases]
        assert "literal-parity regression" in labels
        assert report.passed

    def test_resonant_exemplar_refused(self):
        with pytest.raises(ValueError, match=r"\(1, 2, 3\)"):
            quotient_suite(max_weight=3, exemplars=((1, 2, 3),))
