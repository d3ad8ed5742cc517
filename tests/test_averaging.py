"""Addresses, Catalan weights, and the consistency diagnostic."""

from fractions import Fraction as F

import pytest
from reference.resummation import half_half_weight

from tsr.errors import DomainError
from tsr.resummation import (
    Address,
    all_addresses,
    average_consistency_check,
    catalan_weight,
    catalan_weight_literal,
)


class TestAddress:
    def test_blocks(self):
        assert Address.parse("++-+++").blocks() == (2, 1, 3)
        assert Address.parse("+").blocks() == (1,)
        assert Address(()).blocks() == ()

    def test_parse_rejects_garbage(self):
        with pytest.raises(DomainError):
            Address.parse("+x-")


class TestWeights:
    def test_empty_address(self):
        assert catalan_weight(Address(())) == 1
        assert catalan_weight_literal(Address(())) == 1

    def test_literal_formula_values(self):
        # direct evaluation of the printed formula
        assert catalan_weight_literal(Address.parse("+")) == F(1, 4)
        assert catalan_weight_literal(Address.parse("++-")) == F(1, 32)

    def test_consistent_family_values(self):
        assert catalan_weight(Address.parse("+")) == F(1, 2)
        assert catalan_weight(Address.parse("++")) == F(3, 8)
        assert catalan_weight(Address.parse("+-")) == F(1, 8)
        assert catalan_weight(Address.parse("++-")) == F(1, 16)

    def test_sign_flip_symmetry(self):
        for n in range(5):
            for a in all_addresses(n):
                flipped = Address(tuple(-e for e in a.eps))
                assert catalan_weight(a) == catalan_weight(flipped)


class TestConsistency:
    def test_half_half_passes(self):
        assert average_consistency_check(8, half_half_weight, "half-half").passed

    def test_literal_fails_at_n1(self):
        report = average_consistency_check(4, catalan_weight_literal, "literal")
        assert not report.passed
        assert report.first_failure == "(empty)"
        assert report.lhs == F(1, 2)
        assert report.rhs == 1

    def test_catalan_passes_to_10(self):
        report = average_consistency_check(10)
        assert report.passed
        assert all(mass == 1 for mass in report.total_mass.values())
