import itertools
import time
from copy import deepcopy

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfbraid.nilpotent import (MAX_SIFTS, ClassUnsupported, NilpotentImage,
                                 generator_series, hall_basis, hall_word,
                                 nilpotent_quotient, series_component,
                                 series_mul, series_one, series_pow,
                                 series_powers, witt_rank, word_series)
from surfbraid.presentations import (BadParameters, Presentation,
                                     abelianization, catalog,
                                     smith_normal_form)
from surfbraid.words import Overflow, Sym, Word, commutator

A, B = Sym("a"), Sym("b")
WA, WB = Word.from_syms(A), Word.from_syms(B)
F2 = Presentation("F2", [A, B], [])


def series_leading_weight(s):
    """Smallest positive degree with a nonzero coefficient of a series, or
    None when there is none below its truncation."""
    return min((len(m) for m, v in s.items() if m and v), default=None)


def lcs_weight(w, cmax, gens):
    """Largest k <= cmax with w in the k-th lower central term of the free
    group on `gens`, or None when all coordinates vanish up to cmax: the
    independent weight check of the Hall basis."""
    codes = Presentation("free", gens, []).codes(w)
    return series_leading_weight(word_series(codes, cmax))


# -- an independent truncated-series oracle --------------------------------
# Multiplies group words directly in the truncated tensor algebra, storing
# coefficients per weight in nested dictionaries keyed by index tuples.
# Written against the same mathematical definition but sharing no code with
# the implementation under test.

def _oracle_one(c):
    return [{} for _ in range(c + 1)]


def _oracle_gen(i, exp, c):
    """(1 + X_i)^exp truncated at weight c, exp = +-1."""
    out = _oracle_one(c)
    if exp == 1:
        out[1][(i,)] = 1
    else:
        sign = -1
        for k in range(1, c + 1):
            out[k][(i,) * k] = sign
            sign = -sign
    return out


def _oracle_mul(s, t, c):
    out = _oracle_one(c)
    for k in range(1, c + 1):
        acc = dict(s[k])
        for m, v in t[k].items():
            acc[m] = acc.get(m, 0) + v
        for i in range(1, k):
            for m1, v1 in s[i].items():
                for m2, v2 in t[k - i].items():
                    m = m1 + m2
                    acc[m] = acc.get(m, 0) + v1 * v2
        out[k] = {m: v for m, v in acc.items() if v}
    return out


def _oracle_word(codes, c):
    """The word with these letter codes: 2i is x_i, 2i+1 its inverse."""
    out = _oracle_one(c)
    for x in codes:
        out = _oracle_mul(out, _oracle_gen(x >> 1, -1 if x & 1 else 1, c), c)
    return out


def _all_pairs_mul(s1, s2, c):
    """Truncated product that forms every pair of terms."""
    out = {}
    for m1, v1 in s1.items():
        for m2, v2 in s2.items():
            if len(m1) + len(m2) <= c:
                out[m1 + m2] = out.get(m1 + m2, 0) + v1 * v2
    return {m: v for m, v in out.items() if v}


@st.composite
def _series_pairs(draw):
    """Two integer series on rank 3 and a class bound; the terms reach
    degree c + 1, so some of them and many products must be dropped."""
    c = draw(st.integers(1, 4))
    monomials = st.lists(st.integers(0, 2), max_size=c + 1).map(tuple)
    series = st.dictionaries(monomials, st.integers(-3, 3).filter(bool),
                             max_size=10)
    return draw(series), draw(series), c


def _series_to_layers(s, c):
    out = [{} for _ in range(c + 1)]
    for m, v in s.items():
        if m and v and len(m) <= c:
            out[len(m)][m] = v
    return out


class TestSeriesArithmetic:
    @given(st.lists(st.integers(0, 5), max_size=8))
    @settings(max_examples=120)
    def test_matches_independent_oracle(self, codes):
        c = 3
        mine = _series_to_layers(word_series(codes, c), c)
        theirs = _oracle_word(codes, c)
        assert mine == theirs

    @given(st.lists(st.integers(0, 3), max_size=6))
    @settings(max_examples=80)
    def test_inverse(self, codes):
        c = 3
        s = word_series(codes, c)
        assert series_mul(s, series_pow(series_powers(s, c), -1), c) \
            == series_one()

    @given(_series_pairs())
    @example(({(): 1, (0,): 1}, {(): 1, (0,): -1}, 1))  # 1 - X^2: X cancels
    @example(({(0,): 1, (1,): 1}, {(1,): 1, (0,): -1}, 2))
    @example(({(0, 1): 2}, {(2,): 5}, 2))  # every product above c
    @settings(max_examples=300)
    def test_mul_matches_all_pairs(self, pair):
        s1, s2, c = pair
        assert series_mul(s1, s2, c) == _all_pairs_mul(s1, s2, c)

    @given(_series_pairs())
    @settings(max_examples=200)
    def test_inverse_on_both_sides(self, pair):
        s, _, c = pair
        s = {m: v for m, v in s.items() if 0 < len(m) <= c}
        s[()] = 1
        inv = series_pow(series_powers(s, c), -1)
        assert series_mul(s, inv, c) == series_one()
        assert series_mul(inv, s, c) == series_one()

    @given(st.lists(st.integers(0, 5), max_size=6),
           st.integers(1, 4), st.integers(-7, 7), st.integers(-7, 7))
    @example([0, 2, 1, 3], 4, -3, 2)  # weight 2
    @settings(max_examples=150, deadline=None)
    def test_powers_by_the_binomial_series(self, codes, c, a, b):
        s = word_series(codes, c)
        powers = series_powers(s, c)
        weight = series_leading_weight(s)
        assert len(powers) <= (c // weight if weight else 0)
        assert series_mul(series_pow(powers, a), series_pow(powers, b), c) \
            == series_pow(powers, a + b)
        inverse = [x ^ 1 for x in reversed(codes)]
        assert series_pow(powers, a) == word_series(
            (codes if a >= 0 else inverse) * abs(a), c)

    def test_leading_weight(self):
        c = 3
        s = word_series([0, 2, 1, 3], c)
        assert series_leading_weight(s) == 2
        assert series_leading_weight(series_one()) is None

    def test_generator_series(self):
        c = 2
        assert generator_series(0, c) == word_series([0], c)
        assert generator_series(3, c) == word_series([3], c)
        assert _series_to_layers(generator_series(3, c), c) \
            == _oracle_gen(1, -1, c)


class TestHallBasis:
    @pytest.mark.parametrize("rank,c,counts", [
        (2, 3, [2, 1, 2]),
        (2, 4, [2, 1, 2, 3]),
        (3, 3, [3, 3, 8]),
    ])
    def test_witt_counts(self, rank, c, counts):
        basis = hall_basis(rank, c)
        for k, expected in enumerate(counts, start=1):
            assert witt_rank(rank, k) == expected
            assert sum(1 for e in basis if e.weight == k) == expected

    def test_hall_words_are_brackets(self):
        basis = hall_basis(2, 3)
        gens = [A, B]
        for pos, e in enumerate(basis):
            w = hall_word(2, 3, pos, gens)
            if e.weight == 1:
                assert len(w.letters) == 1
            else:
                # a genuine commutator: zero exponent sum on every letter
                for s in (A, B):
                    assert sum(exp for sym, exp in w.letters if sym == s) == 0

    @pytest.mark.parametrize("rank,c", [(2, 3), (2, 4), (3, 3), (3, 4)])
    def test_hall_words_are_a_basis_of_each_layer(self, rank, c):
        """The weight-k Hall words lie in gamma_k, and the degree-k parts of
        their series span a direct summand of the degree-k tensors of rank
        witt_rank(rank, k). That summand lies in the free Lie ring's degree-k
        part, which has the same rank, so the two are equal: the Hall words
        are a Z-basis of gamma_k / gamma_{k+1}."""
        gens = [A, B, Sym("c")][:rank]
        basis = hall_basis(rank, c)
        for k in range(1, c + 1):
            comps = []
            for pos, e in enumerate(basis):
                if e.weight != k:
                    continue
                w = hall_word(rank, c, pos, gens)
                assert lcs_weight(w, c, gens) == k
                comps.append(series_component(word_series(
                    [2 * gens.index(s) + (x < 0) for s, x in w.letters], c), k))
            assert smith_normal_form(comps) == [1] * witt_rank(rank, k)

    def test_identity_weight_above_bound(self):
        assert lcs_weight(Word(), 3, [A, B]) is None


_GENS = [A, B, Sym("c")]


def _random_words(rank, max_size):
    letter = st.tuples(st.sampled_from(_GENS[:rank]), st.sampled_from([1, -1]))
    return st.lists(letter, max_size=max_size).map(Word)


def _relators(rank):
    """Words, powers of words and powers of commutators, so that sifting
    meets leading coefficients that only a gcd step combines."""
    word = _random_words(rank, 5)
    power = st.integers(2, 6)
    return st.one_of(
        word,
        st.builds(lambda w, e: w ** e, word, power),
        st.builds(lambda u, v, e: commutator(u, v) ** e, word, word, power))


@st.composite
def _presentations(draw):
    rank = draw(st.integers(2, 3))
    relators = draw(st.lists(_relators(rank), max_size=3))
    return Presentation("random", _GENS[:rank], relators)


def _layer(layers, k):
    lay = layers[k - 1]
    return (lay.free_rank, lay.torsion)


class TestNilpotentQuotients:
    def test_free_rank2(self):
        rep = nilpotent_quotient(Presentation("F2", [A, B], []), 3)
        assert [_layer(rep, k) for k in (1, 2, 3)] == [(2, ()), (1, ()), (2, ())]

    def test_one_strand_klein(self):
        rep = nilpotent_quotient(catalog("Pi1K", 1), 3)
        assert [_layer(rep, k) for k in (1, 2, 3)] == [
            (1, (2,)), (0, (2,)), (0, (2,))]

    def test_two_strand_klein_braid(self):
        rep = nilpotent_quotient(catalog("BnK", 2), 3)
        assert [_layer(rep, k) for k in (1, 2, 3)] == [
            (1, (2, 2)), (0, (2, 2)), (0, (2, 2, 2))]

    @pytest.mark.parametrize("n", [3, 4])
    def test_klein_collapse(self, n):
        rep = nilpotent_quotient(catalog("BnK", n), 3)
        assert _layer(rep, 2) == (0, ())
        assert _layer(rep, 3) == (0, ())

    def test_torus_second_layer(self):
        rep = nilpotent_quotient(catalog("BnT", 3), 2)
        assert _layer(rep, 2) == (0, (3,))

    def test_two_strand_klein_pure(self):
        rep = nilpotent_quotient(catalog("P2K_reduced", 2), 2)
        assert _layer(rep, 2) == (0, (2, 2, 2))

    def test_nonorientable_collapse(self):
        rep = nilpotent_quotient(catalog("BnNg", 3, g=3), 3)
        assert _layer(rep, 1) == (2, (2, 2))
        assert _layer(rep, 2) == (0, ())
        assert _layer(rep, 3) == (0, ())

    @pytest.mark.parametrize("family, n, c, layers", [
        ("PnT", 2, 3, [(4, ()), (1, ()), (2, ())]),
        ("BnT", 2, 4, [(2, (2,)), (0, (2,) * 3), (0, (2,) * 5), (0, (2,) * 8)]),
        ("PnK", 2, 3, [(2, (2, 2)), (0, (2,) * 3), (0, (2,) * 5)]),
        ("BnK", 4, 3, [(1, (2, 2)), (0, ()), (0, ())]),
        ("P2K_reduced", 2, 4,
         [(2, (2, 2)), (0, (2,) * 3), (0, (2,) * 5), (0, (2,) * 8)]),
    ])
    def test_presented_layers(self, family, n, c, layers):
        rep = nilpotent_quotient(catalog(family, n), c)
        assert [_layer(rep, k) for k in range(1, c + 1)] == layers

    @given(_presentations())
    @example(catalog("BnK", 3))
    @example(catalog("BnT", 4))
    @example(catalog("BnNg", 2, 3))
    @settings(max_examples=60, deadline=None)
    def test_layers_do_not_depend_on_the_class_bound(self, p):
        """Layer k of the class-c quotient is layer k of the class-k one,
        because (N gamma_{c+1} cap gamma_k) gamma_{k+1} = (N cap gamma_k)
        gamma_{k+1} for k <= c; and layer 1 is the abelianization."""
        layers = {c: nilpotent_quotient(p, c) for c in (1, 2, 3)}
        for c in (1, 2, 3):
            for k in range(1, c + 1):
                assert layers[c][:k] == layers[k]
        assert layers[1] == [abelianization(p)]

    def test_class_bound_validation(self):
        with pytest.raises(ClassUnsupported):
            nilpotent_quotient(catalog("BnK", 2), 5)

    @pytest.mark.parametrize("k", [0, 3, -1])
    def test_layer_outside_the_class_is_refused(self, k):
        img = NilpotentImage.of(catalog("BnK", 3), 2)
        with pytest.raises(BadParameters, match=r"^layer -?\d+ is outside 1\.\.2 at class 2$"):
            img.layer(k)


class TestSiftBound:
    def test_pnk3_class4_overflows(self):
        # about a second on a 2-core VM; unbounded, it runs for minutes
        t0 = time.perf_counter()
        with pytest.raises(Overflow, match="passed 10000 sifts"):
            NilpotentImage.of(catalog("PnK", 3), 4)
        assert time.perf_counter() - t0 < 15.0

    @pytest.mark.parametrize("n, c, layers", [
        (3, 3, [(3, (2,) * 3), (0, (2,) * 6), (0, (2,) * 12)]),
        (2, 4, [(2, (2, 2)), (0, (2,) * 3), (0, (2,) * 5), (0, (2,) * 8)]),
    ])
    def test_closures_under_half_the_bound_answer(self, n, c, layers):
        img = NilpotentImage.of(catalog("PnK", n), c)
        assert 2 * img.sifts <= MAX_SIFTS
        got = [img.layer(k) for k in range(1, c + 1)]
        assert [(lay.free_rank, lay.torsion) for lay in got] == layers

    @pytest.mark.parametrize("p, sifts, idle", [
        (catalog("BnK", 4), 516, 424),
        (catalog("BnNg", 3, g=3), 461, 378),
    ], ids=["B4K", "B3N3"])
    def test_idle_sifts_are_counted(self, p, sifts, idle):
        # the closure `nilpotent_quotient` builds at class 3: most sifts
        # reduce to nothing and create or replace no pivot
        img = NilpotentImage.of(p, 3)
        assert (img.sifts, img.idle_sifts) == (sifts, idle)


class TestNilpotentImage:
    def test_power_membership(self):
        img = NilpotentImage(F2, 3)
        img.add_words([WA ** 2])
        assert img.contains_word(WA ** 4)
        assert img.contains_word(WA ** -2)
        assert not img.contains_word(WA)

    def test_normal_closure_contains_conjugates(self):
        img = NilpotentImage(F2, 3)
        img.add_words([WA ** 2])
        assert img.contains_word(WB * WA ** 2 * ~WB)
        assert img.contains_word(commutator(WA ** 2, WB))

    def test_odd_commutator_excluded(self):
        img = NilpotentImage(F2, 3)
        img.add_words([WA ** 2])
        assert not img.contains_word(commutator(WA, WB))

    def test_xgcd_basis_change_on_powers(self):
        # leading coefficients 6 and 4 only reach 2 through a gcd step
        img = NilpotentImage.of(F2, 3, [WA ** 4, WA ** 6])
        assert img.contains_word(WA ** 2)
        assert img.contains_word(commutator(WA ** 2, WB))
        assert not img.contains_word(WA)
        assert not img.contains_word(commutator(WA, WB))

    def test_xgcd_basis_change_on_commutators(self):
        ab = commutator(WA, WB)
        img = NilpotentImage.of(F2, 3, [ab ** 4, ab ** 6])
        assert img.contains_word(ab ** 2)
        assert not img.contains_word(ab)

    def test_identity_always_contained(self):
        img = NilpotentImage(F2, 2)
        assert img.contains_word(Word([]))

    def test_relator_closure_gives_quotient_membership(self):
        p = catalog("Pi1K", 1)
        img = NilpotentImage(p, 3)
        img.add_words(list(p.relators))
        a1 = Word.from_syms(Sym("a", (1,)))
        b1 = Word.from_syms(Sym("b", (1,)))
        # [a, b] = a^2 modulo the relation, and a itself stays outside
        assert img.contains_word(commutator(a1, b1) * a1 ** -2)
        assert not img.contains_word(a1)

    def test_class_bound_validation(self):
        with pytest.raises(ClassUnsupported):
            NilpotentImage(Presentation("F1", [A], []), 0)


# -- the closure against products of pivots ---------------------------------

class _ProductClosure(NilpotentImage):
    """The closure with a second rule: each new or replaced pivot queues its
    conjugates by the generators and also its product with every other
    pivot. The product rule adds nothing (see `NilpotentImage`), so this is
    a reference for the conjugate-only closure."""

    def add_words(self, words):
        p, c = self.presentation, self.c
        queue = [word_series(p.codes(w), c) for w in words]
        while queue:
            s = queue.pop()
            for ser in self._sift(s):
                for g in range(len(p.generators)):
                    queue.append(series_mul(series_mul(
                        generator_series(2 * g, c), ser, c),
                        generator_series(2 * g + 1, c), c))
                for row in self._pivots.values():
                    for lead in sorted(row):
                        pivot = {(): 1, **row[lead][0]}
                        if pivot != ser:
                            queue.append(series_mul(ser, pivot, c))


@st.composite
def _closure_cases(draw):
    """A presentation with relators from `_relators`, a class bound and
    membership probes; half the probes are products of relator
    conjugates."""
    rank = draw(st.integers(2, 3))
    c = draw(st.integers(1, 4))
    word = _random_words(rank, 5)
    relators = draw(st.lists(_relators(rank), min_size=1, max_size=3))
    probes = draw(st.lists(_random_words(rank, 8), min_size=3, max_size=3))
    for _ in range(3):
        product = Word()
        for r, h, e in draw(st.lists(st.tuples(
                st.sampled_from(relators), word, st.sampled_from([1, -1])),
                min_size=1, max_size=3)):
            product = product * h * r ** e * ~h
        probes.append(product)
    return Presentation("random", _GENS[:rank], relators), c, probes


def _diagonal(comps):
    """The invariant factors of the lattice the components span."""
    return smith_normal_form(comps)


class TestConjugateClosure:
    @given(_closure_cases())
    @settings(max_examples=30, deadline=None)
    def test_matches_product_closure(self, case):
        pres, c, probes = case
        mine = NilpotentImage.of(pres, c)
        ref = _ProductClosure.of(pres, c)
        for k in range(1, c + 1):
            ours, theirs = ([series_component(p[0], k)
                             for p in img._pivots[k].values()]
                            for img in (mine, ref))
            # lattices A, B and A + B with one Smith diagonal are equal: A
            # and B have the index of A + B in its saturation
            assert _diagonal(ours) == _diagonal(theirs) == _diagonal(ours + theirs)
        for w in probes:
            assert mine.contains_word(w) == ref.contains_word(w)
        for w in probes[3:]:
            assert mine.contains_word(w)

    @given(_closure_cases())
    @settings(max_examples=30, deadline=None)
    def test_membership_is_a_sift_that_changes_nothing(self, case):
        """Membership and insertion share one reduction: w is a member
        exactly when sifting it into the closure changes no pivot."""
        pres, c, probes = case
        img = NilpotentImage.of(pres, c)
        for w in probes:
            grown = deepcopy(img)
            grown._sift(word_series(pres.codes(w), c))
            assert img.contains_word(w) == (grown._pivots == img._pivots)
