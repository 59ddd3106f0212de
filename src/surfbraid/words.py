"""Free-group words over indexed generator symbols."""

from __future__ import annotations

import re
import threading
from itertools import chain, repeat
from operator import itemgetter, xor
from typing import Dict, Iterable, Iterator, List, Mapping, Sequence, Tuple


class UnmappedSymbol(KeyError):
    """A substitution was asked to map a symbol it has no image for."""


class Overflow(RuntimeError):
    """A computation passed one of its stated work bounds."""


class ClassUnsupported(ValueError):
    """A nilpotency class bound outside 1..MAX_CLASS."""


# the largest class bound `nilpotent.NilpotentImage` accepts; defined here,
# beside Overflow, so that the command line checks it without loading the
# nilpotent layer
MAX_CLASS = 4


_SYM_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_SYMS: Dict[Tuple[str, Tuple[int, ...]], "Sym"] = {}
# the registry's numbering: symbol i has the letter codes 2i and 2i + 1
_SYM_LIST: List["Sym"] = []
_SYM_IDS: Dict["Sym", int] = {}
_REGISTER = threading.Lock()


class Sym(tuple):
    """A generator symbol: a short name plus up to three integer indices.

    Symbols are interned: ``Sym(name, indices)`` returns the one object
    registered for ``(name, tuple(indices))``, so equality is identity,
    while hash and order are those of the tuple ``(name, indices)``. A Sym
    never equals a plain tuple. The registry holds strong references (a
    tuple subclass cannot carry ``__weakref__``), so a symbol lives as long
    as the process once built. It also numbers the symbols in the order the
    process built them; ``code`` is twice that number (see ``Word``)."""

    __slots__ = ()

    def __new__(cls, name: str, indices: Iterable[int] = ()):
        key = (name, tuple(indices))
        sym = _SYMS.get(key)
        if sym is None:
            if not name or not _SYM_NAME.fullmatch(name):
                raise ValueError(f"bad symbol name {name!r}")
            if len(key[1]) > 3:
                raise ValueError(f"too many indices on {name!r}: {key[1]}")
            # two threads building one key get one object and one number
            with _REGISTER:
                sym = _SYMS.get(key)
                if sym is None:
                    sym = tuple.__new__(cls, key)
                    _SYM_IDS[sym] = len(_SYM_LIST)
                    _SYM_LIST.append(sym)
                    _SYMS[key] = sym
        return sym

    name = property(itemgetter(0))
    indices = property(itemgetter(1))

    @property
    def code(self) -> int:
        """The letter code of the symbol; ``code ^ 1`` is its inverse's."""
        return 2 * _SYM_IDS[self]

    @classmethod
    def from_code(cls, code: int) -> "Sym":
        """The symbol of a letter code of this process."""
        return _SYM_LIST[code >> 1]

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


def _join(pieces: Iterable[Tuple[int, ...]]) -> Tuple[int, ...]:
    """The freely reduced product of freely reduced code tuples: letters
    cancel only across the seam between the output so far and the next
    piece, so no unreduced letter is ever kept."""
    out = [-1]  # a sentinel: -1 ^ c is negative, so it cancels no code c
    for piece in pieces:
        if piece and out[-1] ^ piece[0] == 1:
            k, m = 1, len(piece)
            while k < m and out[-1 - k] ^ piece[k] == 1:
                k += 1
            del out[-k:]
            out.extend(piece[k:])
        else:
            out.extend(piece)
    del out[0]
    return tuple(out)


class Word:
    """An immutable, freely reduced word, stored as a tuple of letter codes:
    a symbol's letter is its ``Sym.code`` 2i and the inverse letter 2i + 1,
    so inverting a letter is ``c ^ 1`` and two letters cancel when
    ``a ^ b == 1``. The constructor reduces, so equality and hashing are
    equality in the free group. Codes hold within one process; ``letters``
    decodes them to ``(Sym, ±1)`` pairs, and pickles carry those."""

    __slots__ = ("codes",)

    def __init__(self, letters: Iterable[Letter] = ()):
        codes = []
        ids = _SYM_IDS
        for sym, exp in letters:
            if not isinstance(sym, Sym) or exp not in (1, -1):
                raise ValueError(f"bad letter ({sym!r}, {exp!r})")
            codes.append(2 * ids[sym] + (exp < 0))
        object.__setattr__(self, "codes", _join(zip(codes)))

    def __setattr__(self, *a):
        raise AttributeError("Word is immutable")

    def __reduce__(self):
        # through the symbols: another process numbers them differently
        return Word, (self.letters,)

    @classmethod
    def _trusted(cls, codes: Tuple[int, ...]) -> "Word":
        """Wrap codes that are already freely reduced, skipping the checks
        and the reduction."""
        w = object.__new__(cls)
        object.__setattr__(w, "codes", codes)
        return w

    # -- constructors -------------------------------------------------
    @staticmethod
    def from_syms(*syms: Sym) -> "Word":
        return Word((s, 1) for s in syms)

    # -- basics --------------------------------------------------------
    @property
    def letters(self) -> Tuple[Letter, ...]:
        """The letters as ``(Sym, ±1)`` pairs, decoded on each read."""
        syms = _SYM_LIST
        return tuple((syms[c >> 1], -1 if c & 1 else 1) for c in self.codes)

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[Letter]:
        return iter(self.letters)

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.codes == other.codes

    def __hash__(self) -> int:
        return hash(self.codes)

    def __repr__(self) -> str:
        return f"Word({print_word(self)!r})"

    def is_identity(self) -> bool:
        return not self.codes

    # -- group operations ---------------------------------------------
    def __mul__(self, other: "Word") -> "Word":
        if not isinstance(other, Word):
            return NotImplemented
        return Word._trusted(_join((self.codes, other.codes)))

    def __invert__(self) -> "Word":
        return Word._trusted(tuple(map(xor, reversed(self.codes), repeat(1))))

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
        syms = _SYM_LIST
        return {syms[c >> 1] for c in set(self.codes)}


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


class _Blocks(dict):
    """The reduced images of blocks of one to three letter codes, keyed by
    the block's code tuple and filled on first use from the letter table.
    Two threads that fill one block store equal tuples, so it needs no
    lock."""

    __slots__ = ("_letter",)

    def __init__(self, letter):
        super().__init__()
        self._letter = letter  # the letter table's __getitem__

    def __missing__(self, block: Tuple[int, ...]) -> Tuple[int, ...]:
        # an unmapped letter raises KeyError here, before the block is stored
        img = self[block] = _join(map(self._letter, block))
        return img


class ImageTable(dict):
    """The images of a substitution by letter code: a symbol's code maps to
    the codes of its image word, and the inverse code to those of the
    image's inverse. Build one once to pass to ``substitute`` many times.

    ``blocks`` keeps the reduced image of each block of one to three codes
    that ``substitute`` has met, so the seams inside a block cancel once per
    table rather than once per call. Blocks are subwords of reduced words,
    so with 2m letter codes it holds at most 2m + 2m(2m-1) + 2m(2m-1)^2
    entries. It starts empty and is not pickled: codes are per-process."""

    __slots__ = ("blocks",)

    def __init__(self, images: Mapping[Sym, Word]):
        super().__init__()
        for sym, img in images.items():
            code = sym.code
            self[code] = img.codes
            self[code ^ 1] = (~img).codes
        self.blocks = _Blocks(self.__getitem__)

    def __reduce__(self):
        # through the symbols: another process numbers them differently
        return ImageTable, ({Sym.from_code(c): Word._trusted(img)
                             for c, img in self.items() if not c & 1},)


def _block_images(codes: Tuple[int, ...],
                  table: ImageTable) -> Iterator[Tuple[int, ...]]:
    """The images of a code tuple read three letters at a time, plus a
    shorter tail block, through the table's block images: lazily, so an
    unmapped letter raises KeyError as ``_join`` reaches it."""
    blocks = zip(*[iter(codes)] * 3)
    tail = len(codes) % 3
    if tail:
        blocks = chain(blocks, (codes[-tail:],))
    return map(table.blocks.__getitem__, blocks)


def substitute(w: Word, images: Mapping[Sym, Word]) -> Word:
    """Apply the homomorphism determined by symbol images (a mapping or an
    ``ImageTable``). Every image is reduced, so the product reduces at the
    seams between images only, which ``_block_images`` cuts to the seams
    between blocks of three letters."""
    table = images if isinstance(images, ImageTable) else ImageTable(images)
    try:
        return Word._trusted(_join(_block_images(w.codes, table)))
    except KeyError as e:
        raise UnmappedSymbol(
            f"no image for symbol {Sym.from_code(e.args[0])}") from None


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
    written = []  # each token as the text has it, for error messages
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            raise WordSyntaxError(f"bad word syntax at offset {pos}: {text[pos:pos+12]!r}")
        pos = m.end()
        written.append(m.group(0).strip())
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
                raise WordSyntaxError(f"expected a generator, got {written[i]!r}")
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
                raise WordSyntaxError(f"expected '*', got {written[i]!r}")
            expect_term = True
        i += 1
    if expect_term:
        raise WordSyntaxError("trailing '*'")
    return Word(letters)


def print_word(w: Word) -> str:
    letters = w.letters
    if not letters:
        return "1"
    runs: List[Tuple[Sym, int]] = []
    for sym, exp in letters:
        if runs and runs[-1][0] == sym and (runs[-1][1] > 0) == (exp > 0):
            runs[-1] = (sym, runs[-1][1] + exp)
        else:
            runs.append((sym, exp))
    parts = []
    for sym, exp in runs:
        parts.append(str(sym) if exp == 1 else f"{sym}^{exp}")
    return "*".join(parts)
