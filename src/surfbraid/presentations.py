"""Finitely presented groups: a catalog of surface braid presentations,
normal-closure subgroup descriptions, abelianization via Smith normal form,
relation checking, and the derived-subgroup generator expansion for torus
braid groups."""

from __future__ import annotations

import math
from functools import partial
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

from .words import (
    IDENTITY,
    ImageTable,
    Overflow,
    Sym,
    Word,
    substitute,
)

class BadParameters(ValueError):
    pass


class Presentation:
    """Generators plus relators (relations lhs=rhs stored as lhs*rhs^-1).
    `paths` holds each relator's letter codes (`codes`), encoded once."""

    __slots__ = ("label", "generators", "relators", "paths", "_local")

    def __init__(self, label: str, generators: Sequence[Sym], relators: Sequence[Word]):
        self.label = label
        self.generators = tuple(generators)
        # registry letter code -> this presentation's letter code
        self._local: Dict[int, int] = {}
        for i, g in enumerate(self.generators):
            self._local[g.code] = 2 * i
            self._local[g.code ^ 1] = 2 * i + 1
        if len(self._local) != 2 * len(self.generators):
            raise ValueError(f"duplicate generators in {label!r}")
        self.relators = tuple(relators)
        # encoding refuses a relator symbol that is not a generator
        self.paths = tuple(tuple(self.codes(r)) for r in self.relators)

    def codes(self, w: Word) -> List[int]:
        """The word as letter codes: 2i for generator i, 2i+1 for its
        inverse. Finite models read these as coset-table columns and
        nilpotent images as indices into their letter series."""
        try:
            return list(map(self._local.__getitem__, w.codes))
        except KeyError as e:
            raise BadParameters(
                f"symbol {Sym.from_code(e.args[0])} is not among the generators "
                f"of {self.label!r}") from None

    def __reduce__(self):
        # the local table holds codes, which another process numbers
        # differently
        return Presentation, (self.label, self.generators, self.relators)

    def __repr__(self) -> str:
        return (f"Presentation({self.label!r}, {len(self.generators)} generators, "
                f"{len(self.relators)} relators)")


class SubgroupDescription:
    """The normal closure of some words in the group an ambient
    presentation presents."""

    __slots__ = ("ambient", "normal_generators", "label")

    def __init__(self, ambient: Presentation, normal_generators: Sequence[Word],
                 label: str = ""):
        self.ambient = ambient
        self.normal_generators = tuple(normal_generators)
        self.label = label

    def __repr__(self) -> str:
        return (f"SubgroupDescription({self.label or self.ambient.label}, "
                f"{len(self.normal_generators)} normal generators)")


class AbelianInvariants:
    """Invariant factors of a finitely generated abelian group."""

    __slots__ = ("free_rank", "torsion")

    def __init__(self, free_rank: int, torsion: Sequence[int]):
        self.free_rank = free_rank
        self.torsion = tuple(torsion)
        for d in self.torsion:
            if d < 2:
                raise ValueError(f"torsion coefficients must be >= 2, got {d}")
        for d, e in zip(self.torsion, self.torsion[1:]):
            if e % d:
                raise ValueError(f"torsion chain broken: {d} does not divide {e}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, AbelianInvariants)
                and self.free_rank == other.free_rank
                and self.torsion == other.torsion)

    def __hash__(self) -> int:
        return hash((self.free_rank, self.torsion))

    def __repr__(self) -> str:
        return f"AbelianInvariants(free_rank={self.free_rank}, torsion={list(self.torsion)})"


# Bound on the entries one `smith_normal_form` call searches or rewrites:
# each pass counts the entries it searches for a pivot, and each row or
# column operation the pivot row's entries it applies. The largest count a
# tier-1 test makes is 0.81 M (layer 4 of P_2(K) at class 4, 150 rows), a
# CI call 3.56 M (layer 4 of `nq BnT 5 4`) and a `verify` suite 184; the
# largest call that must finish, layer 4 of `nq BnK 5 4` (315 rows), makes
# 3.71 M in about 0.25 s, and the bound is 2.3 times that. `abelianize PnK
# 20` passes the 590 distinct nonzero exponent rows of 24,815 and makes 0.15 M.
MAX_SMITH_ENTRIES = 1 << 23


def smith_normal_form(rows: Iterable[Mapping[Hashable, int]]) -> List[int]:
    """The invariant factors d1 | d2 | ... | dr > 0 over the integers of the
    lattice these sparse rows (column key -> entry) span, r its rank.
    Each pass pivots on an entry x of least absolute value, ties going to
    the shortest row, and reduces x's column mod x by row operations. Once
    that column is clear, column operations change only the pivot row, so
    it is reduced mod x: if nothing is left, |x| splits off and the row is
    dropped; otherwise a remainder smaller than x is the next pivot. Then
    diag(a, b) ~ diag(gcd, lcm) turns the split factors into a chain.
    Raises Overflow before a pass whose search would take the entries
    searched or rewritten past MAX_SMITH_ENTRIES."""
    a = [r for r in ({j: x for j, x in row.items() if x} for row in rows) if r]
    count = len(a)
    split = []
    work = 0
    while a:
        work += sum(map(len, a))
        if work > MAX_SMITH_ENTRIES:
            raise Overflow(f"Smith form of {count} rows passed "
                           f"{MAX_SMITH_ENTRIES} entries")
        _, _, i = min((min(map(abs, r.values())), len(r), i)
                      for i, r in enumerate(a))
        p = a.pop(i)
        j = min(p, key=lambda k: abs(p[k]))
        x = p[j]
        for r in a:
            if j in r:
                q = r[j] // x
                for k, y in p.items():
                    v = r.get(k, 0) - q * y
                    if v:
                        r[k] = v
                    else:  # q * y != 0, so r held an entry here
                        del r[k]
                work += len(p)
        a = [r for r in a if r]
        if any(j in r for r in a):
            a.append(p)
            continue
        rest = {k: y % x for k, y in p.items() if y % x}
        work += len(p)
        if rest:
            rest[j] = x
            a.append(rest)
        else:
            split.append(abs(x))
    units = split.count(1)
    d = [x for x in split if x > 1]
    for s in range(len(d)):
        for t in range(s + 1, len(d)):
            d[s], d[t] = math.gcd(d[s], d[t]), math.lcm(d[s], d[t])
    return [1] * units + d


# -- presentation catalog ----------------------------------------------

def _a(i: int) -> Sym:
    return Sym("a", (i,))


def _b(i: int) -> Sym:
    return Sym("b", (i,))


def _s(i: int) -> Sym:
    return Sym("s", (i,))


def _relator(lhs: Word, rhs: Word) -> Word:
    return lhs * ~rhs


# what a builder returns, for parameters `catalog` has checked
_Built = Tuple[str, List[Sym], List[Word]]


def _pure_surface(n: int, klein: bool) -> _Built:
    def C(i: int, j: int) -> Word:
        if i == j:
            return IDENTITY
        if not 1 <= i < j <= n:
            raise BadParameters(f"no generator C[{i},{j}] for n={n}")
        return Word.from_syms(Sym("C", (i, j)))

    def A(i: int) -> Word:
        return Word.from_syms(_a(i))

    def B(i: int) -> Word:
        return Word.from_syms(_b(i))

    rels: List[Word] = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            # (1)  a_i a_j = a_j a_i
            rels.append(_relator(A(i) * A(j), A(j) * A(i)))
            # (2)  a_i^-1 b_j a_i = b_j a_j C_{i,j}^-1 C_{i+1,j} a_j^-1
            rels.append(_relator(~A(i) * B(j) * A(i),
                                 B(j) * A(j) * ~C(i, j) * C(i + 1, j) * ~A(j)))
            # (6)  b_j b_i = b_i b_j           (torus)
            #      b_j b_i = b_i b_j C_{i,j} C_{i+1,j}^-1   (Klein bottle)
            tail = C(i, j) * ~C(i + 1, j) if klein else IDENTITY
            rels.append(_relator(B(j) * B(i), B(i) * B(j) * tail))
            # (7)  b_i^-1 a_j b_i = a_j b_j (C_{i,j} C_{i+1,j}^-1)^(+-1) b_j^-1
            mid = C(i, j) * ~C(i + 1, j)
            if klein:
                mid = ~mid
            rels.append(_relator(~B(i) * A(j) * B(i), A(j) * B(j) * mid * ~B(j)))
    # (3) and (8): conjugation of C_{j,k} by a_i and b_i
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                if i < j or k < i:
                    rels.append(_relator(~A(i) * C(j, k) * A(i), C(j, k)))
                    rels.append(_relator(~B(i) * C(j, k) * B(i), C(j, k)))
                elif j <= i < k:
                    rels.append(_relator(
                        ~A(i) * C(j, k) * A(i),
                        A(k) * ~C(i + 1, k) * C(i, k) * ~A(k)
                        * C(j, k) * ~C(i, k) * C(i + 1, k)))
                    swap = C(i, k) * ~C(i + 1, k)
                    if klein:
                        swap = ~swap
                    rels.append(_relator(
                        ~B(i) * C(j, k) * B(i),
                        C(i + 1, k) * ~C(i, k) * C(j, k) * B(k) * swap * ~B(k)))
    # (4): conjugation of C_{j,k} by C_{i,l}
    for i in range(1, n + 1):
        for l in range(i + 1, n + 1):
            for j in range(1, n + 1):
                for k in range(j + 1, n + 1):
                    if (i < l < j < k) or (j <= i < l < k):
                        rels.append(_relator(~C(i, l) * C(j, k) * C(i, l), C(j, k)))
                    elif i < j <= l < k:
                        rels.append(_relator(
                            ~C(i, l) * C(j, k) * C(i, l),
                            C(i, k) * ~C(l + 1, k) * C(l, k) * ~C(i, k)
                            * C(j, k) * ~C(l, k) * C(l + 1, k)))
    # (5): the surface relation, one per strand
    for i in range(1, n + 1):
        prod = IDENTITY
        for j in range(i + 1, n + 1):
            if klein:
                prod = prod * C(i, j) * ~C(i + 1, j)
            else:
                prod = prod * ~C(i, j) * C(i + 1, j)
        if klein:
            rhs = B(i) * C(1, i) * ~A(i) * ~B(i) * ~A(i)
        else:
            rhs = A(i) * B(i) * C(1, i) * ~A(i) * ~B(i)
        rels.append(_relator(prod, rhs))

    gens = [_a(i) for i in range(1, n + 1)] + [_b(i) for i in range(1, n + 1)]
    gens += [Sym("C", (i, j)) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return (f"P{n}K" if klein else f"P{n}T"), gens, rels


def _artin_relations(S: Sequence[Word]) -> List[Word]:
    """The Artin relations among sigma_1 .. sigma_{n-1}, given as
    S[i-1] = sigma_i with n = len(S) + 1."""
    n = len(S) + 1
    rels: List[Word] = []
    for i in range(n - 2):
        rels.append(_relator(S[i] * S[i + 1] * S[i], S[i + 1] * S[i] * S[i + 1]))
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            rels.append(_relator(S[j] * S[i], S[i] * S[j]))
    return rels


def _twist_chain(S: Sequence[Word]) -> Word:
    """sigma_1 ... sigma_{n-2} sigma_{n-1}^2 sigma_{n-2} ... sigma_1 for
    S[i-1] = sigma_i, n = len(S) + 1 (the identity when n = 1)."""
    n = len(S) + 1
    chain = IDENTITY
    for i in range(n - 2):
        chain = chain * S[i]
    if n >= 2:
        chain = chain * S[n - 2] * S[n - 2]
    for i in reversed(range(n - 2)):
        chain = chain * S[i]
    return chain


def _full_surface(n: int, klein: bool) -> _Built:
    a, b = Sym("a"), Sym("b")
    A, B = Word.from_syms(a), Word.from_syms(b)
    S = [Word.from_syms(_s(i)) for i in range(1, n)]  # S[i-1] = sigma_i
    rels = _artin_relations(S)
    for j in range(1, n - 1):
        rels.append(_relator(A * S[j], S[j] * A))
        rels.append(_relator(B * S[j], S[j] * B))
    if n >= 2:
        rels.append(_relator(~B * S[0] * A, S[0] * A * S[0] * ~B * S[0]))
        rels.append(_relator(A * S[0] * A * S[0], S[0] * A * S[0] * A))
        if klein:
            rels.append(_relator(B * ~S[0] * B * S[0], ~S[0] * B * ~S[0] * B))
        else:
            rels.append(_relator(B * ~S[0] * B * ~S[0], ~S[0] * B * ~S[0] * B))
    chain = _twist_chain(S)
    if klein:
        rels.append(_relator(chain, B * ~A * ~B * ~A))
    else:
        rels.append(_relator(chain, B * A * ~B * ~A))
    gens = [a, b] + [_s(i) for i in range(1, n)]
    return (f"B{n}K" if klein else f"B{n}T"), gens, rels


def _nonorientable(n: int, g: int) -> _Built:
    A = [Word.from_syms(_a(r)) for r in range(1, g + 1)]  # A[r-1] = a_r
    S = [Word.from_syms(_s(i)) for i in range(1, n)]
    rels = _artin_relations(S)
    for r in range(g):
        for i in range(1, n - 1):
            rels.append(_relator(A[r] * S[i], S[i] * A[r]))
    if n >= 2:
        for r in range(g):
            rels.append(_relator(~S[0] * A[r] * ~S[0] * A[r],
                                 A[r] * ~S[0] * A[r] * S[0]))
        for s in range(g):
            for r in range(s + 1, g):
                rels.append(_relator(~S[0] * A[s] * S[0] * A[r],
                                     A[r] * ~S[0] * A[s] * S[0]))
    lhs = IDENTITY
    for r in range(g):
        lhs = lhs * A[r] * A[r]
    chain = _twist_chain(S)
    rels.append(_relator(lhs, chain))
    gens = [_s(i) for i in range(1, n)] + [_a(r) for r in range(1, g + 1)]
    return f"B{n}N{g}", gens, rels


def _p2k_reduced() -> _Built:
    a1, a2 = Word.from_syms(_a(1)), Word.from_syms(_a(2))
    b1, b2 = Word.from_syms(_b(1)), Word.from_syms(_b(2))
    rels = [
        _relator(~a1 * a2 * a1, a2),
        _relator(~a1 * b2 * a1, ~a2 * b2 * ~a2),
        _relator(~b1 * a2 * b1, a2 * b2 * ~a2 * ~b2 * ~a2),
        _relator(~b1 * b2 * b1, a2 * b2 * a2),
        _relator(~b2 * a2 * b2 * a2, b1 * ~a1 * ~b1 * ~a1),
    ]
    return "P2K_reduced", [_a(1), _a(2), _b(1), _b(2)], rels


def _pi1k() -> _Built:
    a1, b1 = Word.from_syms(_a(1)), Word.from_syms(_b(1))
    return "Pi1K", [_a(1), _b(1)], [_relator(a1 * b1, b1 * ~a1)]


def _torus_metabelian(n: int) -> _Built:
    sg, a, b = Sym("s"), Sym("a"), Sym("b")
    S, A, B = Word.from_syms(sg), Word.from_syms(a), Word.from_syms(b)
    rels = [
        _relator(A * S, S * A),
        _relator(B * S, S * B),
        S ** (2 * n),
        _relator(B * A * ~B * ~A, ~S * ~S),
    ]
    return f"TorusMetabelian{n}", [sg, a, b], rels


# family -> (its builder of (n, g), least n, only n or None, least genus or
# None when it takes no genus)
_FAMILIES = {
    "PnT": (lambda n, g: _pure_surface(n, klein=False), 1, None, None),
    "PnK": (lambda n, g: _pure_surface(n, klein=True), 1, None, None),
    "BnT": (lambda n, g: _full_surface(n, klein=False), 1, None, None),
    "BnK": (lambda n, g: _full_surface(n, klein=True), 1, None, None),
    "BnNg": (_nonorientable, 1, None, 3),
    "P2K_reduced": (lambda n, g: _p2k_reduced(), 2, 2, None),
    "Pi1K": (lambda n, g: _pi1k(), 1, 1, None),
    "TorusMetabelian": (lambda n, g: _torus_metabelian(n), 2, None, None),
}


# Bounds on the catalog's parameters, checked before anything is built. A
# presentation grows with n (PnK and PnT as about n^4: 24,815 relators at
# n = 20, built in 0.6 s, and 117,335 at n = 30) and BnNg with g (about g^2/2
# relators), and `abelianize` or `nq` on the largest one stops at its own
# work bound. The tests, CI, `verify` and the benchmark use n <= 5 and
# g <= 6.
MAX_CATALOG_N = 20
MAX_CATALOG_GENUS = 20


def catalog(family: str, n: int, g: Optional[int] = None) -> Presentation:
    """The family's presentation with its identity relators dropped;
    parameters outside its domain raise BadParameters before any build."""
    if n > MAX_CATALOG_N:
        raise BadParameters(f"n must be <= {MAX_CATALOG_N}, got {n}")
    if g is not None and g > MAX_CATALOG_GENUS:
        raise BadParameters(f"genus must be <= {MAX_CATALOG_GENUS}, got {g}")
    if family not in _FAMILIES:
        raise BadParameters(f"unknown family {family!r}; choose from {sorted(_FAMILIES)}")
    build, least_n, only_n, least_genus = _FAMILIES[family]
    if only_n is not None and n != only_n:
        raise BadParameters(f"{family} is only defined for n={only_n}, got {n}")
    if least_genus is None:
        if g is not None:
            raise BadParameters("genus parameter is only meaningful for BnNg")
    elif g is None:
        raise BadParameters(f"{family} needs a genus argument g >= {least_genus}")
    elif g < least_genus:
        raise BadParameters(f"genus must be >= {least_genus}, got {g}")
    if n < least_n:
        raise BadParameters(f"need n >= {least_n}, got {n}")
    label, gens, rels = build(n, g)
    return Presentation(label, gens, [r for r in rels if not r.is_identity()])


# -- abelianization -----------------------------------------------------

def exponent_matrix(p: Presentation) -> List[Dict[int, int]]:
    """The relators' rows of exponent sums, sparse: each maps a generator's
    column to its nonzero exponent sum, in increasing column order. Zero
    and repeated rows change neither the row lattice nor its invariants, so
    only the distinct nonzero rows are kept, in the order relators first
    give them."""
    rows: Dict[Tuple[Tuple[int, int], ...], None] = {}
    for path in p.paths:
        counts: Dict[int, int] = {}
        for code in path:
            counts[code >> 1] = counts.get(code >> 1, 0) + (-1 if code & 1 else 1)
        key = tuple(sorted((j, x) for j, x in counts.items() if x))
        if key:
            rows[key] = None
    return [dict(key) for key in rows]


def abelianization(p: Presentation) -> AbelianInvariants:
    factors = smith_normal_form(exponent_matrix(p))
    return AbelianInvariants(len(p.generators) - len(factors),
                             [d for d in factors if d > 1])


# -- homomorphism checking ----------------------------------------------

def check_homomorphism(
    src: Presentation,
    images: Mapping[Sym, Word],
    is_trivial: Callable[[Word], bool],
) -> List[Word]:
    """The relators of src whose image under the candidate images is not
    trivial. With the `contains_word` of the class-2 image of the
    TorusMetabelian group (`cli._torus_quotient`) as `is_trivial`, it is the
    route by which the torus-derived suite checks that the relators of
    B_n(T) die in the metabelian quotient."""
    table = ImageTable(images)
    return [r for r in src.relators if not is_trivial(substitute(r, table))]


# -- derived subgroup of the torus braid group ---------------------------

_DERIVED_ARITY = {"b": 2, "d": 2, "a": 2, "th": 3, "rh": 3}


def expand_derived_generator(sym: Sym, n: int) -> Word:
    """Expand one of the coset generators b/d/a/th/rh of the commutator
    subgroup of the n-strand torus braid group into a word over a, b, s[i]."""
    if sym.name not in _DERIVED_ARITY:
        raise BadParameters(f"unknown derived generator {sym}")
    if len(sym.indices) != _DERIVED_ARITY[sym.name]:
        raise BadParameters(f"{sym.name} needs {_DERIVED_ARITY[sym.name]} indices, got {sym}")
    A, B = Word.from_syms(Sym("a")), Word.from_syms(Sym("b"))
    if sym.name in ("th", "rh"):
        i, k, m = sym.indices
        if not 1 <= i <= n - 1:
            raise BadParameters(f"strand index {i} out of range for n={n}")
    else:
        k, m = sym.indices
        i = None
    prefix = B ** k * A ** m
    if sym.name == "b":
        core, suffix = B, ~B * ~(B ** k)
    elif sym.name == "d":
        S1 = Word.from_syms(_s(1))
        core, suffix = S1 * B * ~S1, ~B * ~(B ** k)
    elif sym.name == "a":
        S1 = Word.from_syms(_s(1))
        core, suffix = S1 * A * ~S1 * ~A, ~(B ** k)
    elif sym.name == "th":
        Si, S1 = Word.from_syms(_s(i)), Word.from_syms(_s(1))
        core, suffix = Si * ~S1, ~(B ** k)
    else:  # rh
        Si, S1 = Word.from_syms(_s(i)), Word.from_syms(_s(1))
        core, suffix = S1 * Si, ~(B ** k)
    return prefix * core * ~(A ** m) * suffix


def derived_relation_instances(n: int, k_range: Sequence[int],
                               m_range: Sequence[int]) -> List[Word]:
    """Instantiate the identities satisfied by the coset generators of the
    commutator subgroup of the n-strand torus braid group, expanded to words
    over a, b, s[i]."""
    if n < 3:
        raise BadParameters(f"need n >= 3, got {n}")

    # the identities meet each generator many times: expand it once
    expanded: Dict[Sym, Word] = {}

    def gen(name: str, *indices: int) -> Word:
        sym = Sym(name, indices)
        if sym not in expanded:
            expanded[sym] = expand_derived_generator(sym, n)
        return expanded[sym]

    th, rh, bb, dd, aa = (partial(gen, name) for name in ("th", "rh", "b", "d", "a"))

    out: List[Word] = []
    for k in k_range:
        for m in m_range:
            # (1) braid-type relations between adjacent th/rh pairs
            for i in range(1, n - 1):
                out.append(_relator(th(i, k, m) * rh(i + 1, k, m) * th(i, k, m),
                                    th(i + 1, k, m) * rh(i, k, m) * th(i + 1, k, m)))
                out.append(_relator(rh(i, k, m) * th(i + 1, k, m) * rh(i, k, m),
                                    rh(i + 1, k, m) * th(i, k, m) * rh(i + 1, k, m)))
            # (2) distant pairs interchange
            for i in range(1, n - 1):
                for j in range(i + 2, n):
                    out.append(_relator(th(i, k, m) * rh(j, k, m),
                                        th(j, k, m) * rh(i, k, m)))
                    out.append(_relator(rh(i, k, m) * th(j, k, m),
                                        rh(j, k, m) * th(i, k, m)))
            # (3) a in terms of th/rh shifts in m
            for j in range(2, n):
                out.append(_relator(aa(k, m), ~th(j, k, m) * th(j, k, m + 1)))
                out.append(_relator(aa(k, m), rh(j, k, m) * ~rh(j, k, m + 1)))
            # (4) b/d intertwine th/rh shifts in k
            for j in range(2, n):
                out.append(_relator(bb(k, m) * th(j, k + 1, m),
                                    th(j, k, m) * dd(k, m)))
                out.append(_relator(dd(k, m) * rh(j, k + 1, m),
                                    rh(j, k, m) * bb(k, m)))
            # (5)
            out.append(~bb(k - 1, m) * aa(k - 1, m) * bb(k - 1, m + 1)
                       * ~rh(1, k, m + 1) * ~aa(k, m))
            out.append(~dd(k - 1, m) * rh(1, k - 1, m) * ~rh(1, k - 1, m + 1)
                       * dd(k - 1, m + 1) * ~rh(1, k, m))
            # (6)
            out.append(_relator(aa(k, m + 1) * rh(1, k, m + 2),
                                aa(k, m) * rh(1, k, m + 1)))
            out.append(_relator(rh(1, k, m) * aa(k, m + 1),
                                aa(k, m) * rh(1, k, m + 1)))
            # (7)
            out.append(_relator(bb(k, m) * ~rh(1, k + 1, m) * dd(k + 1, m),
                                ~rh(1, k, m) * dd(k, m) * bb(k + 1, m)))
            out.append(_relator(bb(k, m) * ~rh(1, k + 1, m) * dd(k + 1, m),
                                dd(k, m) * bb(k + 1, m) * ~rh(1, k + 2, m)))
            # (8)/(9) the full-twist chain, alternating th (odd strand) and
            # rh (even strand) on the way up and the opposite on the way down
            asc1 = asc2 = desc1 = desc2 = IDENTITY
            for i in range(1, n):
                if i % 2:
                    asc1, asc2 = asc1 * th(i, k, m), asc2 * rh(i, k, m)
                else:
                    asc1, asc2 = asc1 * rh(i, k, m), asc2 * th(i, k, m)
            for i in range(n - 1, 0, -1):
                if i % 2:
                    desc1, desc2 = desc1 * rh(i, k, m), desc2 * th(i, k, m)
                else:
                    desc1, desc2 = desc1 * th(i, k, m), desc2 * rh(i, k, m)
            out.append(_relator(asc1 * desc1, bb(k, m) * ~bb(k, m + 1)))
            out.append(_relator(asc2 * desc2,
                                dd(k, m) * aa(k + 1, m) * ~dd(k, m + 1) * ~aa(k, m)))
    return out
