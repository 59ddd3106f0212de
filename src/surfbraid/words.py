"""Free-group words over indexed generator symbols."""

from __future__ import annotations

import re
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple


class UnmappedSymbol(KeyError):
    """A substitution was asked to map a symbol it has no image for."""


class Overflow(RuntimeError):
    """A computation passed one of its stated work bounds."""


_SYM_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_SYMS: Dict[Tuple[str, Tuple[int, ...]], "Sym"] = {}


class Sym(tuple):
    """A generator symbol: a short name plus up to three integer indices.

    Symbols are interned: ``Sym(name, indices)`` returns the one object
    registered for ``(name, tuple(indices))``, so equality is identity,
    while hash and order are those of the tuple ``(name, indices)``. A Sym
    never equals a plain tuple. The registry holds strong references (a
    tuple subclass cannot carry ``__weakref__``), so a symbol lives as long
    as the process once built."""

    __slots__ = ()

    def __new__(cls, name: str, indices: Iterable[int] = ()):
        key = (name, tuple(indices))
        sym = _SYMS.get(key)
        if sym is None:
            if not name or not _SYM_NAME.fullmatch(name):
                raise ValueError(f"bad symbol name {name!r}")
            if len(key[1]) > 3:
                raise ValueError(f"too many indices on {name!r}: {key[1]}")
            # setdefault: two threads building one key get one object
            sym = _SYMS.setdefault(key, tuple.__new__(cls, key))
        return sym

    name = property(itemgetter(0))
    indices = property(itemgetter(1))

    __hash__ = tuple.__hash__

    def __eq__(self, other) -> bool:
        return self is other

    def __ne__(self, other) -> bool:
        return self is not other

    def __reduce__(self):
        # through the constructor, so pickle (every protocol), copy and
        # deepcopy return the registered object
        return Sym, tuple(self)

    def __repr__(self) -> str:
        return f"Sym(name={self.name!r}, indices={self.indices!r})"

    def __str__(self) -> str:
        if not self.indices:
            return self.name
        return f"{self.name}[{','.join(str(i) for i in self.indices)}]"


Letter = Tuple[Sym, int]  # (symbol, +1 or -1)


def _reduce_letters(letters: Iterable[Letter]) -> Tuple[Letter, ...]:
    """Freely reduce letters already checked by ``Word``."""
    out: List[Letter] = []
    append, pop = out.append, out.pop
    last = None
    for letter in letters:
        # symbols are interned, so identity is equality
        if last is not None and last[0] is letter[0] and last[1] != letter[1]:
            pop()
            last = out[-1] if out else None
        else:
            append(letter)
            last = letter
    return tuple(out)


class Word:
    """An immutable, freely reduced sequence of letters: the constructor
    reduces, so equality and hashing are equality in the free group."""

    __slots__ = ("letters",)

    def __init__(self, letters: Iterable[Letter] = ()):
        letters = tuple(letters)
        for sym, exp in letters:
            if not isinstance(sym, Sym) or exp not in (1, -1):
                raise ValueError(f"bad letter ({sym!r}, {exp!r})")
        object.__setattr__(self, "letters", _reduce_letters(letters))

    def __setattr__(self, *a):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        # the default would restore the slot through __setattr__
        return Word._trusted, (self.letters,)

    @classmethod
    def _trusted(cls, letters: Tuple[Letter, ...]) -> "Word":
        """Wrap letters that are already freely reduced, skipping the
        checks and the reduction."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_syms(*syms: Sym) -> "Word":
        return Word((s, 1) for s in syms)

    # -- basics --------------------------------------------------------
    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Word({print_word(self)!r})"

    def is_identity(self) -> bool:
        return not self.letters

    # -- group operations ---------------------------------------------
    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        # both operands are reduced, so letters cancel only across the seam
        a, b = self.letters, other.letters
        k, m = 0, min(len(a), len(b))
        while k < m:
            sym, exp = a[-1 - k]
            other_sym, other_exp = b[k]
            if exp == other_exp or sym is not other_sym:
                break
            k += 1
        return Word._trusted(a[:len(a) - k] + b[k:])

    def __invert__(self) -> "Word":
        return Word._trusted(
            tuple((sym, -exp) for sym, exp in reversed(self.letters)))

    def __pow__(self, n: int) -> "Word":
        if n == 0:
            return Word()
        acc = self if n > 0 else ~self
        out = Word()
        k = abs(n)
        while k:
            if k & 1:
                out = out * acc
            acc = acc * acc
            k >>= 1
        return out

    def syms(self) -> set:
        return {sym for sym, _ in self.letters}


IDENTITY = Word()


def commutator(g: Word, h: Word) -> Word:
    """[g, h] = g h g^-1 h^-1."""
    return g * h * ~g * ~h


def left_normed(args: Sequence[Word]) -> Word:
    """[x1, x2, ..., xn] = [x1, [x2, [..., xn]]]."""
    if not args:
        raise ValueError("left_normed needs at least one word")
    out = args[-1]
    for x in reversed(args[:-1]):
        out = commutator(x, out)
    return out


def substitute(w: Word, images: Mapping[Sym, Word]) -> Word:
    """Apply the homomorphism determined by symbol images; reduces."""
    out: List[Letter] = []
    letter_images = {}  # letter -> letters of its image
    for letter in w.letters:
        img = letter_images.get(letter)
        if img is None:
            sym, exp = letter
            if sym not in images:
                raise UnmappedSymbol(f"no image for symbol {sym}")
            img = images[sym] if exp == 1 else ~images[sym]
            letter_images[letter] = img = img.letters
        out.extend(img)
    return Word._trusted(_reduce_letters(out))


def colchete_rhs(x: Word, y: Word, n: int) -> Word:
    """Expansion of [x^(2^n), y] as a product of left-normed commutators.

    [x^(2^n), y] = [x, x, x^2, ..., x^(2^(n-1)), y]
                   * [x, x^2, ..., x^(2^(n-1)), y]^2
                   * ... * [x^(2^(n-1)), y]^2
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    powers = [x ** (2 ** i) for i in range(n)]
    factors = [left_normed([x] + powers + [y])]
    for j in range(n):
        factors.append(left_normed(powers[j:] + [y]) ** 2)
    out = Word()
    for f in factors:
        out = out * f
    return out


# -- text format -------------------------------------------------------
#   word     := term ('*' term)*          (empty input -> identity)
#   term     := symbol ('^' int)?
#   symbol   := name ('[' int (',' int)* ']')?

_TOKEN = re.compile(
    r"\s*(?:(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"(?:\[(?P<idx>\s*-?\d+(?:\s*,\s*-?\d+)*\s*)\])?"
    r"|(?P<op>[*^])"
    r"|(?P<int>-?\d+))"
)


class WordSyntaxError(ValueError):
    pass


# parse_word refuses a text that expands to more letters than this, before
# it builds them: "a^1000000000" would otherwise take about 90 GB
MAX_PARSED_LETTERS = 100_000


def parse_word(text: str) -> Word:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise WordSyntaxError(f"bad word syntax at offset {pos}: {text[pos:pos+12]!r}")
        pos = m.end()
        if m.group("name"):
            idx = m.group("idx")
            indices = tuple(int(s) for s in idx.split(",")) if idx else ()
            tokens.append(Sym(m.group("name"), indices))
        elif m.group("op"):
            tokens.append(m.group("op"))
        else:
            tokens.append(int(m.group("int")))
    if text.strip() == "" or text.strip() == "1":
        return Word()

    letters: List[Letter] = []
    i = 0
    expect_term = True
    while i < len(tokens):
        tok = tokens[i]
        if expect_term:
            if not isinstance(tok, Sym):
                raise WordSyntaxError(f"expected a generator, got {tok!r}")
            exp = 1
            if i + 1 < len(tokens) and tokens[i + 1] == "^":
                if i + 2 >= len(tokens) or not isinstance(tokens[i + 2], int):
                    raise WordSyntaxError("'^' must be followed by an integer")
                exp = tokens[i + 2]
                i += 2
            if len(letters) + abs(exp) > MAX_PARSED_LETTERS:
                raise WordSyntaxError(
                    f"word has more than {MAX_PARSED_LETTERS} letters")
            sign = 1 if exp >= 0 else -1
            letters.extend((tok, sign) for _ in range(abs(exp)))
            expect_term = False
        else:
            if tok != "*":
                raise WordSyntaxError(f"expected '*', got {tok!r}")
            expect_term = True
        i += 1
    if expect_term:
        raise WordSyntaxError("trailing '*'")
    return Word(letters)


def print_word(w: Word) -> str:
    if not w.letters:
        return "1"
    runs: List[Tuple[Sym, int]] = []
    for sym, exp in w.letters:
        if runs and runs[-1][0] == sym and (runs[-1][1] > 0) == (exp > 0):
            runs[-1] = (sym, runs[-1][1] + exp)
        else:
            runs.append((sym, exp))
    parts = []
    for sym, exp in runs:
        parts.append(str(sym) if exp == 1 else f"{sym}^{exp}")
    return "*".join(parts)
