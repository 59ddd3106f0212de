"""Exact arithmetic in free nilpotent groups of bounded class, and
class-bounded nilpotent quotients of finitely presented groups.

Group elements are embedded in the ring of truncated power series over the
integers (each generator maps to 1 + X_i); for free groups this embedding
separates the lower central series exactly, so weight and coordinate
computations are exact. Coordinates are the monomial coefficients of these
series; the Hall basis of basic commutators only supplies the words of the
closed forms in `series.wn_tilde`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .presentations import (
    AbelianInvariants,
    BadParameters,
    Presentation,
    smith_normal_form,
)
from .words import MAX_CLASS, ClassUnsupported, Overflow, Sym, Word

Monomial = Tuple[int, ...]
Series = Dict[Monomial, int]  # truncated: keys of length <= class bound


# NilpotentImage.add_words raises Overflow once it has sifted this many
# elements. Over the catalog's PnT, PnK, BnT and BnK (n <= 5), BnNg (n <= 3,
# g <= 4), TorusMetabelian and Pi1K at classes 3 and 4, the largest closure
# of an `nq` call that finishes is BnK n=5 at class 4: 4,636 sifts, 24 s on a
# 2-core VM. PnK n=3 and PnT n=3 at class 4 pass 10,000 sifts within about a
# second, where their closure or layer 4 would run for minutes.
MAX_SIFTS = 10_000


# -- truncated series ----------------------------------------------------

def series_one() -> Series:
    return {(): 1}


def series_mul(s1: Series, s2: Series, c: int) -> Series:
    """Product truncated at degree c. The right factor's terms are grouped
    by degree once, so each left term only meets the terms that fit in the
    degree it leaves over."""
    fits: List[List[Tuple[Monomial, int]]] = [[] for _ in range(c + 1)]
    for m2, c2 in s2.items():
        d = len(m2)
        if d <= c:
            fits[d].append((m2, c2))
    for d in range(1, c + 1):
        fits[d] = fits[d - 1] + fits[d]  # terms of degree <= d
    out: Series = {}
    get = out.get
    for m1, c1 in s1.items():
        room = c - len(m1)
        if room < 0:
            continue
        for m2, c2 in fits[room]:
            key = m1 + m2
            out[key] = get(key, 0) + c1 * c2
    return {m: v for m, v in out.items() if v}


@lru_cache(maxsize=None)
def generator_series(code: int, c: int) -> Series:
    """Series of the letter with this `Presentation.codes` code: x_i for
    2i, x_i^-1 for 2i+1, truncated at degree c. Cached, so every caller
    shares one dict and must not change it."""
    i = code >> 1
    if not code & 1:
        return {(): 1, (i,): 1}
    # (1 + X)^-1 = 1 - X + X^2 - ...
    return {(i,) * k: (-1) ** k for k in range(c + 1)}


def word_series(codes: Sequence[int], c: int) -> Series:
    """Series of the word with these letter codes."""
    out = series_one()
    for code in codes:
        out = series_mul(out, generator_series(code, c), c)
    return out


def series_powers(s: Series, c: int) -> List[Series]:
    """[U, U^2, ...] for U = s - 1, up to the last nonzero power: U has no
    constant term, so a weight-w U keeps at most c // w of them."""
    u = {m: v for m, v in s.items() if m}
    powers: List[Series] = []
    power = u
    while power:
        powers.append(power)
        power = series_mul(power, u, c)
    return powers


def series_pow(powers: Sequence[Series], n: int) -> Series:
    """(1 + U)^n for any integer n, given the `series_powers` of 1 + U.
    U^(c+1) vanishes, so (1 + U)^n = sum_k C(n, k) U^k, with no product."""
    out = series_one()
    b = 1
    for k, power in enumerate(powers, start=1):
        b = b * (n - k + 1) // k  # C(n, k), exact for negative n too
        if not b:
            break
        for m, v in power.items():
            out[m] = out.get(m, 0) + b * v
    return {m: v for m, v in out.items() if v}


def series_component(s: Series, k: int) -> Dict[Monomial, int]:
    return {m: v for m, v in s.items() if len(m) == k and v}


# -- Hall basis of basic commutators -------------------------------------

class HallElement:
    """A basic commutator: either a generator index or a bracket [u, v]
    of earlier basis elements."""

    __slots__ = ("index", "weight", "left", "right")

    def __init__(self, index: int, weight: int,
                 left: Optional[int] = None, right: Optional[int] = None):
        self.index = index      # position in the global basis order
        self.weight = weight
        self.left = left        # basis positions, None for generators
        self.right = right


@lru_cache(maxsize=None)
def hall_basis(rank: int, c: int) -> Tuple[HallElement, ...]:
    """Basic commutators of weight <= c, ordered by weight then creation.

    [u, v] is basic iff u > v (by position) and, when u = [x, y], y <= v.
    """
    if rank < 1 or c < 1:
        raise BadParameters(f"need rank >= 1 and c >= 1, got {rank}, {c}")
    basis: List[HallElement] = [HallElement(i, 1) for i in range(rank)]
    start_of_weight = {1: 0}
    for w in range(2, c + 1):
        start_of_weight[w] = len(basis)
        new: List[HallElement] = []
        for wu in range(1, w):
            wv = w - wu
            for u in range(len(basis)):
                if basis[u].weight != wu:
                    continue
                for v in range(len(basis)):
                    if basis[v].weight != wv:
                        continue
                    if u <= v:
                        continue
                    if basis[u].left is not None and basis[u].right > v:
                        continue
                    new.append((u, v))
        new.sort()
        for u, v in new:
            basis.append(HallElement(len(basis), w, u, v))
    return tuple(basis)


def witt_rank(rank: int, k: int) -> int:
    """Number of basic commutators of weight k on `rank` generators."""
    total = 0
    d = 1
    while d * d <= k:
        if k % d == 0:
            total += _moebius(d) * rank ** (k // d)
            if d != k // d:
                total += _moebius(k // d) * rank ** d
        d += 1
    return total // k


def _moebius(n: int) -> int:
    result = 1
    p = 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    if n > 1:
        result = -result
    return result


def hall_word(rank: int, c: int, position: int, gens: Sequence[Sym]) -> Word:
    """The group word realizing basis element `position` over the symbols."""
    basis = hall_basis(rank, c)
    el = basis[position]
    if el.left is None:
        return Word.from_syms(gens[el.index])
    first = hall_word(rank, c, el.right, gens)
    second = hall_word(rank, c, el.left, gens)
    return first * second * ~first * ~second


# -- nilpotent quotients --------------------------------------------------

def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) > 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def nilpotent_quotient(p: Presentation, c: int) -> List[AbelianInvariants]:
    """Invariants of the graded layers 1..c of G modulo its (c+1)-st lower
    central term, for G given by the presentation."""
    img = NilpotentImage.of(p, c)
    return [img.layer(k) for k in range(1, c + 1)]


class NilpotentImage:
    """Normal closure of a set of words, seen inside the free nilpotent
    group of class c on the presentation's generators, with a membership
    test at that resolution.

    The closure is kept as echelonized lattices, one per weight k, spanned
    by the weight-k components of the Magnus series of its elements in
    monomial coordinates: `_pivots[k]` maps a leading (least) monomial to
    the pivot element p = 1 + U, whose coefficient there is positive, kept
    as its list of powers [U, U^2, ...]. U has no constant term, so
    U^(c+1) = 0 and p^n = sum_k C(n, k) U^k for every integer n: a power
    or an inverse of a pivot needs no series product. Row reduction over
    the integers is carried out on the series themselves, so each pivot's
    component is read off U, the first entry, since k >= 1.

    Monomial coordinates give the same answers as basic-commutator ones:
    the leading component of an element of gamma_k is a degree-k Lie
    element, and over the integers the free Lie ring is a direct summand of
    the tensor ring (the Lyndon basis is unitriangular over the monomials).
    So membership, divisibility and the torsion of each layer are the same
    in either coordinate system.

    `add_words` closes the words under conjugation by the generators only:
    each new or replaced pivot p queues g p g^-1 for every generator g, and
    products of pivots are never queued. This gives the normal closure N
    exactly, because the queue is a stack. Let p be a pivot of weight k.
    Each of its conjugates is p modulo gamma_{k+1}, so it reduces by p once
    and leaves p^-1 g p g^-1, of weight above k. What is pushed after them
    comes from pivots that the same sift made later, of weight >= k, and
    reduces the same way, or from pivots of weight above k. So no pivot of
    weight <= k changes before p's conjugates are popped, and each is
    sifted while p is still the pivot at its monomial.

    Write T_k for the elements that sift to the identity from weight >= k,
    and go down from T_{c+1} = 1:
      - assume T_{k+1} = M is a normal subgroup that holds everything ever
        sifted from weight > k;
      - then p^-1 g p g^-1 lies in M for every weight-k pivot p ever made
        and every generator g, so each such pivot is central modulo M;
      - so each weight-k sifting step is a unimodular change of a pair
        (pivot, element) that commutes modulo M, i.e. row reduction in an
        abelian group: T_k = <weight-k pivots> M is again normal, and it
        holds everything ever sifted from weight >= k.
    At k = 1, T_1 is normal, holds the words and lies inside N, so T_1 = N.
    A product of pivots would add nothing. Popping the queue in another
    order could sift a conjugate after its pivot was replaced, and breaks
    the argument."""

    def __init__(self, p: Presentation, c: int):
        if not 1 <= c <= MAX_CLASS:
            raise ClassUnsupported(
                f"class bound {c} unsupported (use 1..{MAX_CLASS})")
        self.presentation = p
        self.c = c
        self._pivots: Dict[int, Dict[Monomial, List[Series]]] = {
            k: {} for k in range(1, c + 1)}
        self.sifts = 0  # elements sifted by add_words, bounded by MAX_SIFTS
        self.idle_sifts = 0  # of those, the sifts that made or replaced no pivot

    @classmethod
    def of(cls, p: Presentation, c: int,
           words: Sequence[Word] = ()) -> "NilpotentImage":
        """The image of the normal closure of the relators and `words`.
        Raises Overflow once the closure sifts more than MAX_SIFTS elements."""
        img = cls(p, c)
        img.add_words(list(p.relators) + list(words))
        return img

    def _reduce(self, s: Series) -> Optional[Tuple[Series, Monomial,
                                                   Optional[List[Series]]]]:
        """Divide s by the pivots while each leading (least nonzero, of least
        positive degree) coefficient is a multiple of its pivot's. None once
        s is the identity; else (s, lead, pivot or None) at the first lead
        that does not divide."""
        c = self.c
        while True:
            lead = min((m for m, v in s.items() if m and v),
                       key=lambda m: (len(m), m), default=None)
            if lead is None:
                return None
            p = self._pivots[len(lead)].get(lead)
            if p is None or s[lead] % p[0][lead]:
                return s, lead, p
            s = series_mul(series_pow(p, -(s[lead] // p[0][lead])), s, c)

    def _sift(self, s: Series) -> List[Series]:
        """Insert a subgroup element; returns every pivot series that was
        newly created or replaced."""
        c = self.c
        changed: List[Series] = []
        while True:
            reduced = self._reduce(s)
            if reduced is None:
                return changed
            s, lead, p = reduced
            row = self._pivots[len(lead)]
            if p is None:
                if s[lead] < 0:
                    s = series_pow(series_powers(s, c), -1)
                row[lead] = series_powers(s, c)
                changed.append(s)
                return changed
            a, b = p[0][lead], s[lead]  # a > 0 by the insertion convention
            g, sa, sb = _xgcd(a, b)
            # unimodular basis change of the pair (pivot, element):
            #   new pivot = p^sa * s^sb   (leading coefficient gcd > 0)
            #   residual  = p^(-b/g) * s^(a/g)   (leading coefficient 0)
            t = series_powers(s, c)
            new = series_mul(series_pow(p, sa), series_pow(t, sb), c)
            row[lead] = series_powers(new, c)
            changed.append(new)
            s = series_mul(series_pow(p, -b // g), series_pow(t, a // g), c)

    def add_words(self, words: Sequence[Word]) -> None:
        p, c = self.presentation, self.c
        queue = [word_series(p.codes(w), c) for w in words]
        conjugators = [(generator_series(2 * g, c),
                        generator_series(2 * g + 1, c))
                       for g in range(len(p.generators))]
        while queue:
            s = queue.pop()  # a stack: the class docstring says why
            self.sifts += 1
            if self.sifts > MAX_SIFTS:
                raise Overflow(f"normal closure passed {MAX_SIFTS} sifts "
                               f"at class {c}")
            changed = self._sift(s)
            if not changed:
                self.idle_sifts += 1
            for ser in changed:
                for g, gi in conjugators:
                    queue.append(series_mul(series_mul(g, ser, c), gi, c))

    def contains_word(self, w: Word) -> bool:
        s = word_series(self.presentation.codes(w), self.c)
        return self._reduce(s) is None

    def layer(self, k: int) -> AbelianInvariants:
        """Invariants of layer k, gamma_k / (N cap gamma_k) gamma_{k+1}: the
        torsion is the weight-k pivot components' invariant factors above 1, and
        the free rank is the basic commutators of weight k less the pivots."""
        if not 1 <= k <= self.c:
            raise BadParameters(f"layer {k} is outside 1..{self.c} at class {self.c}")
        comps = [series_component(p[0], k) for p in self._pivots[k].values()]
        return AbelianInvariants(witt_rank(len(self.presentation.generators), k)
                                 - len(comps),
                                 [d for d in smith_normal_form(comps) if d > 1])
