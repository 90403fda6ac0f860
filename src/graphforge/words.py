"""Words over signed generator alphabets.

A word is an immutable sequence of letters ``(name, sign)`` with sign in
{+1, -1}.  Exponents are kept expanded so that equality of canonical forms
is plain tuple equality.  Parsing accepts whitespace-separated letters with
optional ``^k`` exponents, e.g. ``"a b^-2 c"``; ``"1"`` or ``""`` is the
empty word.
"""

from __future__ import annotations


class Word(tuple):
    """An immutable sequence of ``(generator_name, sign)`` letters."""

    __slots__ = ()

    @classmethod
    def parse(cls, text: str) -> "Word":
        text = text.strip()
        if text in ("", "1"):
            return cls()
        letters = []
        for chunk in text.split():
            if "^" in chunk:
                name, exp_s = chunk.split("^", 1)
                try:
                    exp = int(exp_s)
                except ValueError:
                    raise ValueError(f"bad exponent in {chunk!r}") from None
            else:
                name, exp = chunk, 1
            if not name:
                raise ValueError(f"empty generator name in {text!r}")
            sign = 1 if exp > 0 else -1
            letters.extend((name, sign) for _ in range(abs(exp)))
        return cls(letters)

    def __mul__(self, other) -> "Word":
        if not isinstance(other, tuple):
            other = Word.coerce(other)
        return Word(tuple.__add__(self, other))

    def __rmul__(self, other) -> "Word":
        return Word(tuple.__add__(Word.coerce(other), self))

    def inverse(self) -> "Word":
        return Word((name, -sign) for name, sign in reversed(self))

    def __invert__(self) -> "Word":
        return self.inverse()

    def power(self, k: int) -> "Word":
        base = self if k >= 0 else self.inverse()
        return Word(tuple(base) * abs(k))

    @staticmethod
    def coerce(value) -> "Word":
        if isinstance(value, Word):
            return value
        if isinstance(value, str):
            return Word.parse(value)
        return Word(value)

    def __str__(self) -> str:
        if not self:
            return "1"
        out = []
        i = 0
        while i < len(self):
            name, sign = self[i]
            j = i
            while j < len(self) and self[j] == (name, sign):
                j += 1
            exp = (j - i) * sign
            out.append(name if exp == 1 else f"{name}^{exp}")
            i = j
        return " ".join(out)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


class NormalForm(Word):
    """A canonical word, as returned by ``Group.normalize``.

    Equality and hashing are those of the underlying letter tuple: two
    group elements are equal iff their normal forms are identical letter
    sequences, and a normal form equals the plain ``Word`` it spells.
    """

    __slots__ = ()


def free_reduce(letters) -> Word:
    """Cancel adjacent inverse pairs until none remain."""
    out = []
    for letter in letters:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return Word(out)
