"""Exact word-problem solver for the pure braid groups of the Klein bottle,
via the iterated semidirect splitting over a punctured-surface free group,
with the explicit section and conjugation action; includes the centre
verification."""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from .words import (IDENTITY, ImageTable, Overflow, Sym, Word, commutator,
                    substitute)
from .presentations import catalog


DEFAULT_MAX_LEVEL = 5

# normal_form raises Overflow once any level's fiber passes this many
# letters: the largest fiber over perfbench's wordproblem seeds 1-10 is
# 139,995, while a 37-letter word at n=5 reaches tens of millions
MAX_FIBER_LETTERS = 2_000_000


class BadLevel(ValueError):
    pass


def _a(i: int) -> Sym:
    return Sym("a", (i,))


def _b(i: int) -> Sym:
    return Sym("b", (i,))


def _c(i: int, j: int) -> Sym:
    return Sym("C", (i, j))


def _d(j: int, level: int) -> Sym:
    return Sym("D", (j, level))


def _wa(i: int) -> Word:
    return Word.from_syms(_a(i))


def _wb(i: int) -> Word:
    return Word.from_syms(_b(i))


def fiber_basis(level: int) -> List[Sym]:
    """Free basis of the fiber at the given level: a, b and the first
    level-2 puncture loops (the last one is eliminated by the surface
    relation)."""
    if level < 2:
        raise BadLevel(f"fiber exists for level >= 2, got {level}")
    return [_a(level), _b(level), *(_d(j, level) for j in range(1, level - 1))]


def _c_fiber(i: int, level: int) -> Word:
    """C_{i,level} over {a, b, D_1..D_{level-1}} (pre-elimination)."""
    if i >= level:
        return IDENTITY
    out: List[Tuple[Sym, int]] = [(_d(j, level), -1)
                                  for j in range(level - 1, i - 1, -1)]
    return Word(out)


@lru_cache(maxsize=None)
def _top_d_expansion(level: int) -> Word:
    """The eliminated letter D_{level-1}: its inverse is C_{1,level} times
    the product of the remaining puncture loops, with C_{1,level} rewritten
    through the surface relation as b^-1 a b a."""
    c1 = ~_wb(level) * _wa(level) * _wb(level) * _wa(level)
    prod = c1
    for j in range(1, level - 1):
        prod = prod * Word.from_syms(_d(j, level))
    return ~prod


@lru_cache(maxsize=None)
def _elimination_images(level: int) -> ImageTable:
    images: Dict[Sym, Word] = {s: Word.from_syms(s) for s in fiber_basis(level)}
    images[_d(level - 1, level)] = _top_d_expansion(level)
    return ImageTable(images)


def _eliminate(w: Word, level: int) -> Word:
    return substitute(w, _elimination_images(level))


def section_images(n: int) -> Dict[Sym, Word]:
    """Generator images of the section from the n-strand into the
    (n+1)-strand pure braid group of the Klein bottle."""
    if n < 1:
        raise BadLevel(f"need n >= 1, got {n}")
    images: Dict[Sym, Word] = {}
    for i in range(1, n):
        images[_a(i)] = _wa(i)
        images[_b(i)] = _wb(i)
    for i in range(1, n):
        for j in range(i + 1, n):
            images[_c(i, j)] = Word.from_syms(_c(i, j))
    for i in range(1, n):
        images[_c(i, n)] = (Word.from_syms(_c(i, n))
                            * Word.from_syms(_c(i, n + 1))
                            * ~Word.from_syms(_c(n, n + 1)))
    images[_a(n)] = _wa(n) * _wa(n + 1)
    images[_b(n)] = _wb(n + 1) * _wb(n)
    return images


def base_generators(n: int) -> List[Sym]:
    gens = []
    for i in range(1, n + 1):
        gens.append(_a(i))
        gens.append(_b(i))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            gens.append(_c(i, j))
    return gens


class ActionTable:
    """Conjugation action of the sectioned base group on the free fiber at
    one level: for each base generator z, the automorphism h -> s(z)^-1 h s(z)
    (phi) and its inverse h -> s(z) h s(z)^-1 (psi), both over the free
    fiber basis."""

    __slots__ = ("level", "phi", "psi", "_tables")

    def __init__(self, level: int, phi: Dict[Sym, Dict[Sym, Word]],
                 psi: Dict[Sym, Dict[Sym, Word]]):
        self.level = level
        self.phi = phi
        self.psi = psi
        # the automorphism of each base letter by its code: z acts by
        # phi[z], and z^-1 by psi[z]
        self._tables: Dict[int, ImageTable] = {}
        for z in phi:
            self._tables[z.code] = ImageTable(phi[z])
            self._tables[z.code ^ 1] = ImageTable(psi[z])

    def __reduce__(self):
        # the tables hold codes, which another process numbers differently
        return ActionTable, (self.level, self.phi, self.psi)

    def apply_phi(self, z: Sym, w: Word) -> Word:
        return substitute(w, self._tables[z.code])

    def apply_psi(self, z: Sym, w: Word) -> Word:
        return substitute(w, self._tables[z.code ^ 1])

    def apply_base_word(self, base_word: Word, w: Word) -> Word:
        """s(u)^-1 w s(u) for a base word u, letter by letter."""
        out = w
        tables = self._tables
        for code in base_word.codes:
            out = substitute(out, tables[code])
        return out


def _raw_action_rows(level: int) -> Dict[Sym, Dict[Sym, Word]]:
    """The action on {a, b, D_1..D_{n}} at level n+1, before eliminating
    the last puncture loop."""
    n = level - 1
    a, b = _wa(level), _wb(level)

    def D(j: int) -> Word:
        return Word.from_syms(_d(j, level))

    def C(j: int) -> Word:
        return _c_fiber(j, level)

    def alpha(i: int, j: int) -> Word:
        if i < j:
            return IDENTITY
        if i == j:
            return ~C(j + 1) * a
        return ~C(i + 1) * C(i)

    def beta(i: int, j: int) -> Word:
        if i < j:
            return IDENTITY
        if i == j:
            return b * C(i)
        return b * C(i) * ~C(i + 1) * ~b

    def delta(i: int, j: int, k: int) -> Word:
        if k < j or i > j:
            return IDENTITY
        if k == j:
            return ~C(j + 1) * C(i)
        return ~C(k + 1) * C(k)

    rows: Dict[Sym, Dict[Sym, Word]] = {}
    for i in range(1, n):
        rows[_a(i)] = {
            _a(level): a,
            _b(level): b * a * D(i) * ~a,
            **{_d(j, level): alpha(i, j) * D(j) * ~alpha(i, j)
               for j in range(1, n + 1)},
        }
        rows[_b(i)] = {
            _a(level): a * b * C(i) * D(i) * ~C(i) * ~b,
            _b(level): b * C(i) * ~D(i) * ~C(i),
            **{_d(j, level): (beta(i, j) * (~D(j) if j == i else D(j))
                              * ~beta(i, j))
               for j in range(1, n + 1)},
        }
        for k in range(i + 1, n):
            rows[_c(i, k)] = {
                _a(level): a,
                _b(level): b,
                **{_d(j, level): delta(i, j, k) * D(j) * ~delta(i, j, k)
                   for j in range(1, n + 1)},
            }
    alpha_t = {j: ~a * alpha(n, j) for j in range(1, n + 1)}
    rows[_a(n)] = {
        _a(level): a,
        _b(level): ~a * b * a * D(n),
        **{_d(j, level): alpha_t[j] * D(j) * ~alpha_t[j]
           for j in range(1, n + 1)},
    }
    rows[_b(n)] = {
        _a(level): D(n) * ~b * a * b,
        _b(level): b * ~D(n),
        **{_d(j, level): (~D(n) if j == n else ~b * D(j) * b)
           for j in range(1, n + 1)},
    }
    for i in range(1, n):
        conj = C(n) * ~C(i)
        delta_t = {j: C(n) * ~C(i) * delta(i, j, n) for j in range(1, n + 1)}
        rows[_c(i, n)] = {
            _a(level): conj * a * ~conj,
            _b(level): conj * b * ~conj,
            **{_d(j, level): delta_t[j] * D(j) * ~delta_t[j]
               for j in range(1, n + 1)},
        }
    return rows


# Reachable only through `action_table`, whose levels are fixed (1-5): it
# would mean a bug, not a bad input, so `cli.main` maps it to no exit code.
class NotInvertible(RuntimeError):
    pass


def invert_automorphism(basis: Sequence[Sym],
                        images: Mapping[Sym, Word]) -> Dict[Sym, Word]:
    """Invert a free-group automorphism phi given on a basis, by Nielsen
    descent (Lyndon-Schupp, Combinatorial Group Theory, ch. I.2).

    Pairs (u, v) with u = phi(v) start as (phi(x), x). A move replaces u_i
    by u_i u_j^e or u_j^e u_i (e = +-1), and v_i by the matching product,
    when that lowers u_i's key (length, codes). Each length holds finitely
    many words, so the loop ends. Once every u is a letter x^e, its v is
    psi(x)^e; the inverse is unique, so what it returns does not depend on how
    the process numbers the symbols. Where no move descends and the u are
    not all letters, the descent is stuck and raises NotInvertible."""
    us = [images[x] for x in basis]
    vs = [Word.from_syms(x) for x in basis]
    moved = True
    while moved:
        moved = False
        for i, j in permutations(range(len(us)), 2):
            for e in (1, -1):
                uj = us[j] if e == 1 else ~us[j]
                for left in (False, True):
                    u = uj * us[i] if left else us[i] * uj
                    if (len(u), u.codes) < (len(us[i]), us[i].codes):
                        vj = vs[j] if e == 1 else ~vs[j]
                        vs[i] = vj * vs[i] if left else vs[i] * vj
                        us[i] = u
                        moved = True
    out: Dict[Sym, Word] = {}
    for u, v in zip(us, vs):
        if len(u) != 1:
            raise NotInvertible("Nielsen descent did not reach a basis")
        code, = u.codes
        out[Sym.from_code(code)] = ~v if code & 1 else v
    if set(out) != set(basis):
        raise NotInvertible("reduced tuple is not the free basis")
    return out


@lru_cache(maxsize=None)
def action_table(n: int) -> ActionTable:
    """The action of the n-strand base on the fiber at level n+1, with the
    inverse automorphisms derived and certified by composition."""
    if n < 1:
        raise BadLevel(f"need n >= 1, got {n}")
    level = n + 1
    basis = fiber_basis(level)
    raw = _raw_action_rows(level)
    phi: Dict[Sym, Dict[Sym, Word]] = {}
    psi: Dict[Sym, Dict[Sym, Word]] = {}
    for z, row in raw.items():
        phi_z = {y: _eliminate(row[y], level) for y in basis}
        # consistency: the eliminated letter's row must match the elimination
        expected = substitute(_top_d_expansion(level), phi_z)
        stated = _eliminate(row[_d(level - 1, level)], level)
        if expected != stated:
            raise AssertionError(f"action row for {z} is inconsistent")
        psi_z = invert_automorphism(basis, phi_z)
        for y in basis:
            back = substitute(psi_z[y], phi_z)
            there = substitute(phi_z[y], psi_z)
            if back != Word.from_syms(y) or there != Word.from_syms(y):
                raise AssertionError(f"inverse action for {z} fails on {y}")
        phi[z] = phi_z
        psi[z] = psi_z
    return ActionTable(level, phi, psi)


class SemidirectElement:
    """Nested normal form: fiber word times the sectioned base element; at
    level 1 just the pair (k, l) with the element b_1^k a_1^l."""

    __slots__ = ("level", "fiber", "base")

    def __init__(self, level: int, fiber: Word, base):
        self.level = level
        self.fiber = fiber
        self.base = base
        if level == 1:
            if fiber.codes or not isinstance(base, tuple):
                raise BadLevel("level-1 elements carry only the pair (k, l)")
        elif not isinstance(base, SemidirectElement) or base.level != level - 1:
            raise BadLevel(f"level-{level} element needs a level-{level - 1} base")

    @staticmethod
    def identity(level: int) -> "SemidirectElement":
        if level == 1:
            return SemidirectElement(1, IDENTITY, (0, 0))
        return SemidirectElement(level, IDENTITY,
                                 SemidirectElement.identity(level - 1))

    def is_identity(self) -> bool:
        if self.level == 1:
            return self.base == (0, 0)
        return not self.fiber.codes and self.base.is_identity()

    def __eq__(self, other) -> bool:
        return (isinstance(other, SemidirectElement)
                and self.level == other.level
                and self.fiber == other.fiber
                and self.base == other.base)

    def __hash__(self) -> int:
        return hash((self.level, self.fiber, self.base))

    def __repr__(self) -> str:
        if self.level == 1:
            k, l = self.base
            return f"(b[1]^{k} a[1]^{l})"
        return f"({self.fiber} | {self.base!r})"

    def to_word(self) -> Word:
        """A canonical word over the pure braid generators of this level."""
        if self.level == 1:
            k, l = self.base
            return _wb(1) ** k * _wa(1) ** l
        fiber_as_gens = substitute(self.fiber, _generator_images(self.level))
        sect = substitute(self.base.to_word(), section_images(self.level - 1))
        return fiber_as_gens * sect

    def __mul__(self, other: "SemidirectElement") -> "SemidirectElement":
        if not isinstance(other, SemidirectElement) or other.level != self.level:
            return NotImplemented
        if self.level == 1:
            k1, l1 = self.base
            k2, l2 = other.base
            sign = 1 if k2 % 2 == 0 else -1
            return SemidirectElement(1, IDENTITY, (k1 + k2, sign * l1 + l2))
        table = action_table(self.level - 1)
        moved = table.apply_base_word(~self.base.to_word(), other.fiber)
        return SemidirectElement(self.level, self.fiber * moved,
                                 self.base * other.base)

    def __invert__(self) -> "SemidirectElement":
        return normal_form(~self.to_word(), self.level)


@lru_cache(maxsize=None)
def _generator_images(level: int) -> ImageTable:
    """Fiber basis letters as words over the pure braid generators."""
    images: Dict[Sym, Word] = {_a(level): _wa(level), _b(level): _wb(level)}
    for j in range(1, level - 1):
        images[_d(j, level)] = ~Word.from_syms(_c(j, level)) * (
            Word.from_syms(_c(j + 1, level)) if j + 1 < level else IDENTITY)
    return ImageTable(images)


@lru_cache(maxsize=None)
def _moves(level: int) -> Dict[int, Tuple[Word, Optional[ImageTable]]]:
    """How each generator letter of a level >= 2 is prepended to an
    element F s(E), by letter code; the keys are the level's generators
    and their inverses. A fiber letter (a, b or C_{i,level}) maps to
    (f, None), its fiber word: x F s(E) = (f F) s(E). A base letter
    z = f_z s(z) maps to (f_z, psi_z), and z^-1 to (phi_z(f_z^-1), phi_z):
    x F s(E) = (f A(F)) s(x E) for the pair (f, A)."""
    n = level - 1
    table = action_table(n)
    fibers = {_a(level): _wa(level), _b(level): _wb(level)}
    for i in range(1, level):
        fibers[_c(i, level)] = _eliminate(_c_fiber(i, level), level)
    # f_z for the base letters that move the new strand; the others are
    # their own sections
    pair = {_a(n): table.apply_psi(_a(n), ~_wa(level)), _b(n): ~_wb(level)}
    for i in range(1, n):
        raw = _c_fiber(n, level) * ~_c_fiber(i, level)
        pair[_c(i, n)] = table.apply_psi(_c(i, n), _eliminate(raw, level))
    moves: Dict[int, Tuple[Word, Optional[ImageTable]]] = {}
    for x, f in fibers.items():
        moves[x.code] = (f, None)
        moves[x.code ^ 1] = (~f, None)
    for z in base_generators(n):
        f = pair.get(z, IDENTITY)
        phi, psi = table._tables[z.code], table._tables[z.code ^ 1]
        moves[z.code] = (f, psi)
        moves[z.code ^ 1] = (substitute(~f, phi), phi)
    return moves


@lru_cache(maxsize=None)
def _letter_codes(level: int) -> FrozenSet[int]:
    """The letter codes of a level's generators and their inverses, the
    keys of `_moves(level)`, read without building any table, so that a
    foreign letter is refused first."""
    return frozenset(c for z in base_generators(level) for c in (z.code, z.code ^ 1))


def _prepend(e: SemidirectElement, code: int) -> SemidirectElement:
    level = e.level
    if level == 1:
        k, l = e.base
        exp = -1 if code & 1 else 1
        if code >> 1 == _a(1).code >> 1:
            sign = 1 if k % 2 == 0 else -1
            return SemidirectElement(1, IDENTITY, (k, l + exp * sign))
        return SemidirectElement(1, IDENTITY, (k + exp, l))
    f, act = _moves(level)[code]
    if act is None:
        return SemidirectElement(level, _bounded(f * e.fiber, level), e.base)
    return SemidirectElement(level, _bounded(f * substitute(e.fiber, act), level),
                             _prepend(e.base, code))


def _bounded(fiber: Word, level: int) -> Word:
    if len(fiber.codes) > MAX_FIBER_LETTERS:
        raise Overflow(f"level-{level} fiber passed {MAX_FIBER_LETTERS} letters")
    return fiber


def normal_form(w: Word, n: Optional[int] = None) -> SemidirectElement:
    """Solve the word problem: two words are equal in the n-strand pure
    braid group of the Klein bottle iff their normal forms coincide.

    Raises Overflow once the fiber of any level passes MAX_FIBER_LETTERS.
    The bound is on the work, not on the answer: a short word whose normal
    form is small can still be refused, as (a4*C[1,4])^8 conjugating a5
    peaks at about 1.7 million letters and ends with a one-letter fiber."""
    if n is None:
        n = max([1] + [i for sym in w.syms() for i in sym.indices])
    if n < 1:
        raise BadLevel(f"need n >= 1, got {n}")
    if n > DEFAULT_MAX_LEVEL:
        raise BadLevel(f"level {n} exceeds the supported bound {DEFAULT_MAX_LEVEL}")
    generators = _letter_codes(n)
    for code in w.codes:
        if code not in generators:
            raise BadLevel(f"{Sym.from_code(code)} is not a pure braid "
                           f"generator for n={n}")
    e = SemidirectElement.identity(n)
    for code in reversed(w.codes):
        e = _prepend(e, code)
    return e


def center_witness(n: int) -> Word:
    """The square of the full twist b_n...b_1, generating the centre."""
    if n < 1:
        raise BadLevel(f"need n >= 1, got {n}")
    beta = IDENTITY
    for i in range(n, 0, -1):
        beta = beta * _wb(i)
    return beta * beta


def verify_section(n: int, corrupted: bool = False) -> List[Tuple[str, bool]]:
    """Check the section on every defining relation of the n-strand group:
    each relator's image must normalize to the identity one level up. The
    `corrupted` flag drops the second factor of the a_n image, which must
    break at least one relation (negative control)."""
    images = section_images(n)
    if corrupted:
        images = dict(images)
        images[_a(n)] = _wa(n)
    p = catalog("PnK", n)
    report = []
    for idx, r in enumerate(p.relators):
        image = substitute(r, images)
        ok = normal_form(image, n + 1).is_identity()
        report.append((f"relation-{idx + 1}", ok))
    return report


def verify_action(n: int) -> List[Tuple[str, bool]]:
    """Certify the action: every table automorphism inverts, and conjugation
    along any defining relation of the base group fixes the fiber basis."""
    table = action_table(n)
    basis = fiber_basis(n + 1)
    report = []
    for z in table.phi:
        ok = all(substitute(table.phi[z][y], table.psi[z]) == Word.from_syms(y)
                 and substitute(table.psi[z][y], table.phi[z]) == Word.from_syms(y)
                 for y in basis)
        report.append((f"invertible-{z}", ok))
    p = catalog("PnK", n)
    for idx, r in enumerate(p.relators):
        ok = True
        for y in basis:
            if table.apply_base_word(r, Word.from_syms(y)) != Word.from_syms(y):
                ok = False
        report.append((f"respects-relation-{idx + 1}", ok))
    return report


def verify_central(n: int) -> List[Tuple[str, bool]]:
    """The centre witness commutes with every generator, and the helper
    identities used in the centrality proof hold as stated."""
    w = center_witness(n)
    report = []
    for g in base_generators(n):
        c = commutator(w, Word.from_syms(g))
        report.append((f"central-{g}", normal_form(c, n).is_identity()))
    for i in range(1, n):
        lhs = (Word.from_syms(_c(1, n)) * ~_wa(n) * _wb(i))
        rhs = (Word.from_syms(_c(i + 1, n)) if i + 1 < n else IDENTITY)
        rhs = rhs * _wb(i) * ~Word.from_syms(_c(i, n)) \
            * Word.from_syms(_c(1, n)) * ~_wa(n)
        report.append((f"helper-Cab-{i}",
                       normal_form(lhs * ~rhs, n).is_identity()))
        lhs2 = _wb(n) * (Word.from_syms(_c(i + 1, n)) if i + 1 < n
                         else IDENTITY) * _wb(i)
        rhs2 = _wb(i) * _wb(n) * Word.from_syms(_c(i, n))
        report.append((f"helper-bCb-{i}",
                       normal_form(lhs2 * ~rhs2, n).is_identity()))
    return report
