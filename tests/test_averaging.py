"""Addresses, Catalan weights, and the consistency diagnostic."""

import itertools
from fractions import Fraction as F

import pytest
from reference.resummation import half_half_weight

from tsr.errors import DomainError
from tsr.resummation import (
    average_consistency_check,
    catalan_number,
    catalan_weight,
    catalan_weight_literal,
    parse_address,
)


class TestAddress:
    def test_blocks(self):
        # the literal weight is 4^-n times the Catalan numbers of the runs
        runs = catalan_number(2) * catalan_number(1) * catalan_number(3)
        assert catalan_weight_literal("++-+++") == runs / 4**6
        assert parse_address("++-+++") == "++-+++"

    def test_parse_rejects_garbage(self):
        for weight in (parse_address, catalan_weight, catalan_weight_literal):
            with pytest.raises(DomainError):
                weight("+x-")


class TestWeights:
    def test_empty_address(self):
        assert catalan_weight("") == 1
        assert catalan_weight_literal("") == 1

    def test_literal_formula_values(self):
        # direct evaluation of the printed formula
        assert catalan_weight_literal("+") == F(1, 4)
        assert catalan_weight_literal("++-") == F(1, 32)

    def test_consistent_family_values(self):
        assert catalan_weight("+") == F(1, 2)
        assert catalan_weight("++") == F(3, 8)
        assert catalan_weight("+-") == F(1, 8)
        assert catalan_weight("++-") == F(1, 16)

    def test_sign_flip_symmetry(self):
        for n in range(5):
            for a in map("".join, itertools.product("+-", repeat=n)):
                flipped = a.translate(str.maketrans("+-", "-+"))
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
