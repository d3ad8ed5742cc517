"""The text scanner shared by the normal-form and transseries grammars, and
the number reader shared by the CLI's points and the JSON input."""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError, ExpressionSyntaxError

#: the deepest parentheses either grammar reads; its recursion stays far
#: below Python's limit
MAX_NESTING = 100

#: the largest decimal exponent ``fraction`` reads: ``Fraction`` builds 10^e
#: exactly, in time that grows faster than e (seconds for e = 10^7)
MAX_EXPONENT = 10_000

_EXPONENT = re.compile(r"\s*[-+]?[\d_.]*[eE][-+]?([\d_]*)\s*")


def fraction(text: str) -> Fraction:
    """``Fraction(text)``: an integer, a decimal or a ratio, exactly.  A
    decimal exponent beyond MAX_EXPONENT in size is a DomainError, raised
    before 10^e is built; text that is no number is a ValueError."""
    match = _EXPONENT.fullmatch(text)
    digits = match[1].replace("_", "").lstrip("0") if match else ""
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
        raise DomainError(f"decimal exponents are limited to {MAX_EXPONENT} in size, got {text.strip()!r}")
    return Fraction(text)


class Scanner:
    """A cursor over ``text`` that skips whitespace before every token."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def skip(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        """The next character, or "" at the end of the text."""
        self.skip()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def startswith(self, word: str) -> bool:
        self.skip()
        return self.text.startswith(word, self.pos)

    def take(self, word: str) -> bool:
        if self.startswith(word):
            self.pos += len(word)
            return True
        return False

    def expect(self, word: str):
        if not self.take(word):
            raise ExpressionSyntaxError(f"expected {word!r}", self.pos)

    def parenthesized(self, parse):
        """``parse(self)`` between parentheses, refused at an opening one
        nested more than MAX_NESTING deep."""
        self.skip()
        if self.depth == MAX_NESTING:
            raise ExpressionSyntaxError(f"parentheses nested more than {MAX_NESTING} deep", self.pos)
        self.expect("(")
        self.depth += 1
        value = parse(self)
        self.depth -= 1
        self.expect(")")
        return value

    def rational(self) -> Fraction:
        """An optionally signed integer, or n/d when a digit follows the slash."""
        self.skip()
        start = self.pos
        if self.text.startswith(("+", "-"), self.pos):
            self.pos += 1
        digits = self.pos
        self._skip_digits()
        if self.pos == digits:
            raise ExpressionSyntaxError("expected number", self.pos)
        num = int(self.text[start : self.pos])
        slash = self.pos
        if self.text.startswith("/", slash):
            self.pos += 1
            self._skip_digits()
            if self.pos > slash + 1:
                den = int(self.text[slash + 1 : self.pos])
                if not den:
                    raise ExpressionSyntaxError("zero denominator", slash + 1)
                return Fraction(num, den)
            self.pos = slash  # a division, not part of the number
        return Fraction(num)

    def finish(self):
        """Raise unless only whitespace is left."""
        self.skip()
        if self.pos != len(self.text):
            raise ExpressionSyntaxError("trailing input", self.pos)

    def _skip_digits(self):
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
