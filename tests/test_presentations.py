import itertools
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfbraid.cli import _torus_quotient
from surfbraid.finite import FiniteModel, todd_coxeter
from surfbraid.nilpotent import NilpotentImage
from surfbraid import presentations
from surfbraid.presentations import (MAX_CATALOG_GENUS, MAX_CATALOG_N,
                                     BadParameters, Presentation,
                                     abelianization, catalog,
                                     check_homomorphism,
                                     derived_relation_instances,
                                     exponent_matrix,
                                     smith_normal_form)
from surfbraid.words import Overflow, Sym, Word, commutator, substitute


def _det(a):
    """Laplace expansion along the first row."""
    if not a:
        return 1
    return sum((-1) ** j * x * _det([row[:j] + row[j + 1:] for row in a[1:]])
               for j, x in enumerate(a[0]) if x)


# tuple column keys, as the nilpotent layers' monomials are
_COLUMN_KEYS = st.tuples(st.integers(0, 2), st.integers(0, 2))


def _sparse_matrices():
    """Up to 5 x 5, with empty rows and the empty input among them."""
    return st.lists(_COLUMN_KEYS, unique=True, max_size=5).flatmap(
        lambda keys: st.lists(st.fixed_dictionaries(
            {}, optional={j: st.integers(-9, 9) for j in keys}), max_size=5))


@st.composite
def _echelon_rows(draw):
    """Rows with distinct leading columns, the leads unit or not, shuffled."""
    keys = draw(st.lists(_COLUMN_KEYS, unique=True, min_size=1, max_size=5))
    leads = draw(st.lists(st.sampled_from([1, -1, 2, 3, 4, 6, -12]),
                          max_size=len(keys)))
    rows = [{keys[i]: lead,
             **{j: draw(st.integers(-9, 9)) for j in keys[i + 1:]}}
            for i, lead in enumerate(leads)]
    return draw(st.permutations(rows))


class TestSmithNormalForm:
    def test_work_bound(self, monkeypatch):
        # the three passes search 5, 2 and 1 entries; clearing the first
        # column rewrites one entry in each of two rows, and each pass reads
        # its pivot row's one entry mod the pivot: 13 entries in all, of
        # which 12 are counted when the last search starts
        rows = [{0: 1}, {0: 2, 1: 3}, {0: 4, 2: 6}]
        monkeypatch.setattr(presentations, "MAX_SMITH_ENTRIES", 12)
        assert smith_normal_form(rows) == [1, 3, 6]
        monkeypatch.setattr(presentations, "MAX_SMITH_ENTRIES", 11)
        with pytest.raises(Overflow, match="3 rows passed 11 entries"):
            smith_normal_form(rows)

    def test_diagonal_only(self):
        diag = smith_normal_form([{0: 2}, {1: 3}])
        assert diag == [1, 6]

    def test_zero_matrix(self):
        diag = smith_normal_form([{0: 0, 1: 0}])
        assert diag == []

    @given(st.lists(st.lists(st.integers(-6, 6), min_size=3, max_size=3),
                    min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_divisibility_chain(self, rows):
        diag = smith_normal_form(dict(enumerate(row)) for row in rows)
        assert all(d > 0 for d in diag)
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))

    @given(st.integers(1, 7).flatmap(lambda cols: st.lists(
        st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
        min_size=1, max_size=7)))
    # entries grew without bound here under Euclidean swaps alone
    @example([[-5, -2, -1, 4, 7, 1], [-3, 2, 4, -9, 3, 8],
              [8, -3, -7, -8, 4, 5], [-5, 0, 6, -8, 8, -5],
              [-4, 6, 4, 1, 0, 0], [-1, -1, 3, -2, 0, 6],
              [8, 3, -6, -4, -4, -7]])
    @settings(max_examples=150, deadline=None)
    def test_diagonal_matches_independent_invariants(self, rows):
        diag = smith_normal_form(dict(enumerate(row)) for row in rows)
        rank, det = _rank_and_det(rows)
        assert len(diag) == rank
        if rank:
            assert diag[0] == math.gcd(*(x for row in rows for x in row))
        if len(rows) == len(rows[0]):
            assert abs(det) == (math.prod(diag) if rank == len(rows) else 0)

    @given(st.one_of(_sparse_matrices(), _echelon_rows()))
    @settings(max_examples=150, deadline=None)
    def test_factors_are_the_determinantal_quotients(self, rows):
        """d1 * ... * dk is the gcd D_k of the k x k minors, and the rank is
        the largest k with D_k != 0 (Handbook, section 9.2)."""
        keys = sorted({j for row in rows for j in row})
        dense = [[row.get(j, 0) for j in keys] for row in rows]
        want, prev = [], 1
        for k in range(1, min(len(dense), len(keys)) + 1):
            dk = math.gcd(*(_det([[dense[i][j] for j in cols] for i in sub])
                            for sub in itertools.combinations(range(len(dense)), k)
                            for cols in itertools.combinations(range(len(keys)), k)))
            if not dk:
                break
            want.append(dk // prev)
            prev = dk
        assert smith_normal_form(rows) == want


def _rank_and_det(rows):
    """Gaussian elimination over Q: the rank, and for a square matrix the
    determinant up to sign."""
    a = [[Fraction(x) for x in row] for row in rows]
    rank, det = 0, Fraction(1)
    for col in range(len(a[0])):
        piv = next((i for i in range(rank, len(a)) if a[i][col]), None)
        if piv is None:
            det = Fraction(0)
            continue
        a[rank], a[piv] = a[piv], a[rank]
        det *= a[rank][col]
        for i in range(rank + 1, len(a)):
            f = a[i][col] / a[rank][col]
            a[i] = [x - f * y for x, y in zip(a[i], a[rank])]
        rank += 1
    return rank, det


class TestAbelianizations:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_torus(self, n):
        inv = abelianization(catalog("BnT", n))
        assert (inv.free_rank, inv.torsion) == (2, (2,))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_klein(self, n):
        inv = abelianization(catalog("BnK", n))
        assert (inv.free_rank, inv.torsion) == (1, (2, 2))

    @pytest.mark.parametrize("n,g", [(2, 3), (3, 3), (2, 4), (3, 4)])
    def test_nonorientable(self, n, g):
        inv = abelianization(catalog("BnNg", n, g=g))
        assert (inv.free_rank, inv.torsion) == (g - 1, (2, 2))

    def test_two_strand_klein(self):
        inv = abelianization(catalog("P2K_reduced", 2))
        assert (inv.free_rank, inv.torsion) == (2, (2, 2))

    def test_one_strand_klein(self):
        inv = abelianization(catalog("Pi1K", 1))
        assert (inv.free_rank, inv.torsion) == (1, (2,))

    def test_torus_metabelian(self):
        inv = abelianization(catalog("TorusMetabelian", 5))
        assert (inv.free_rank, inv.torsion) == (2, (2,))


class TestCatalog:
    @pytest.mark.parametrize("family, n, g, message", [
        ("PnK", 21, None, "n must be <= 20, got 21"),
        ("BnNg", 2, 21, "genus must be <= 20, got 21"),
        ("Nope", 2, None, "unknown family 'Nope'; choose from ['BnK', 'BnNg', "
         "'BnT', 'P2K_reduced', 'Pi1K', 'PnK', 'PnT', 'TorusMetabelian']"),
        ("P2K_reduced", 3, None, "P2K_reduced is only defined for n=2, got 3"),
        ("Pi1K", 2, None, "Pi1K is only defined for n=1, got 2"),
        ("BnT", 3, 2, "genus parameter is only meaningful for BnNg"),
        ("BnNg", 2, None, "BnNg needs a genus argument g >= 3"),
        ("BnNg", 2, 2, "genus must be >= 3, got 2"),
        ("PnT", 0, None, "need n >= 1, got 0"),
        ("PnK", 0, None, "need n >= 1, got 0"),
        ("BnT", 0, None, "need n >= 1, got 0"),
        ("BnK", -1, None, "need n >= 1, got -1"),
        ("BnNg", 0, 3, "need n >= 1, got 0"),
        ("TorusMetabelian", 1, None, "need n >= 2, got 1")],
        ids=["n-bound", "genus-bound", "unknown-family", "reduced-only-n2",
             "pi1k-only-n1", "genus-only-for-nonorientable", "missing-genus",
             "genus-floor", "PnT-n", "PnK-n", "BnT-n", "BnK-n", "BnNg-n",
             "TorusMetabelian-n"])
    def test_refusals(self, family, n, g, message):
        with pytest.raises(BadParameters) as exc:
            catalog(family, n, g)
        assert str(exc.value) == message

    @pytest.mark.parametrize("family, n, g", [
        ("PnK", MAX_CATALOG_N + 1, None),
        ("TorusMetabelian", MAX_CATALOG_N + 1, None),
        ("BnNg", 2, MAX_CATALOG_GENUS + 1), ("BnNg", MAX_CATALOG_N + 1, 3)])
    def test_parameter_bounds(self, family, n, g):
        with pytest.raises(BadParameters, match="must be <="):
            catalog(family, n, g)

    def test_exponent_matrix_shape(self):
        # the relators' distinct nonzero rows of exponent sums, sparse, in
        # increasing column order and in the order the relators first give
        # them, against dense rows counted from the words
        for p in (catalog("BnK", 3), catalog("PnK", 3), catalog("P2K_reduced", 2)):
            dense = []
            for r in p.relators:
                row = [0] * len(p.generators)
                for sym, e in r.letters:
                    row[p.generators.index(sym)] += e
                if any(row) and row not in dense:
                    dense.append(row)
            rows = exponent_matrix(p)
            assert all(list(row) == sorted(row) and all(row.values())
                       for row in rows)
            assert [[row.get(j, 0) for j in range(len(p.generators))]
                    for row in rows] == dense


_CATALOG = [catalog("PnT", 2), catalog("PnK", 3), catalog("BnT", 3),
            catalog("BnK", 3), catalog("BnNg", 2, 3), catalog("P2K_reduced", 2),
            catalog("Pi1K", 1)]


@st.composite
def _catalog_words(draw):
    p = draw(st.sampled_from(_CATALOG))
    letter = st.tuples(st.sampled_from(p.generators), st.sampled_from([1, -1]))
    return p, Word(draw(st.lists(letter, max_size=12)))


class TestLetterCodes:
    @given(_catalog_words())
    @settings(max_examples=100)
    def test_round_trip(self, case):
        p, w = case
        codes = p.codes(w)
        assert Word([(p.generators[x >> 1], -1 if x & 1 else 1)
                     for x in codes]) == w
        assert all(0 <= x < 2 * len(p.generators) for x in codes)

    def test_undeclared_symbol(self):
        a = Word.from_syms(Sym("a"))
        p = Presentation("Z2", [Sym("a")], [a * a])
        stray = a * Word.from_syms(Sym("z"))
        with pytest.raises(BadParameters, match="symbol z is not among"):
            p.codes(stray)
        with pytest.raises(BadParameters):
            FiniteModel(p, [[1, 0], [1, 0]], 2).apply_word(stray, 0)
        with pytest.raises(BadParameters):
            NilpotentImage.of(p, 2).contains_word(stray)
        with pytest.raises(BadParameters):
            todd_coxeter(p, [stray])

    @pytest.mark.parametrize("family, n, g", [
        ("PnT", 2, None), ("PnK", 3, None), ("BnT", 3, None), ("BnK", 1, None),
        ("BnNg", 2, 3), ("P2K_reduced", 2, None), ("Pi1K", 1, None),
        ("TorusMetabelian", 3, None)])
    def test_paths_are_the_relator_codes(self, family, n, g):
        p = catalog(family, n, g)
        assert p.paths == tuple(tuple(p.codes(r)) for r in p.relators)

    def test_undeclared_relator_symbol(self):
        a = Word.from_syms(Sym("a"))
        with pytest.raises(ValueError, match="stray"):
            Presentation("Z2", [Sym("a")], [a * Word.from_syms(Sym("stray"))])

    def test_pickle_rebuilds_the_code_table(self):
        p = catalog("BnNg", 3, 3)
        q = pickle.loads(pickle.dumps(p))
        assert q.generators == p.generators and q.relators == p.relators
        assert q.paths == p.paths


def _torus_law_is_trivial(w: Word, n: int) -> bool:
    """The closed form of <s, a, b : [a,s] = [b,s] = s^(2n) = 1,
    [b,a] = s^-2>: read w letter by letter as a^i b^j s^k, where
    b^j a^e = a^e b^j s^(-2je)."""
    i = j = k = 0
    for sym, e in w.letters:
        if sym.name == "a":
            i, k = i + e, k - 2 * j * e
        elif sym.name == "b":
            j += e
        else:
            k += e
    return i == 0 and j == 0 and k % (2 * n) == 0


_TORUS_LETTERS = [(Sym(c), e) for c in "sab" for e in (1, -1)]


@st.composite
def _torus_words(draw):
    """(n, w): a random word over s, a, b, or a product of conjugates of
    the TorusMetabelian relators times a short tail, which is often empty."""
    n = draw(st.sampled_from([2, 3, 5]))
    letters = st.lists(st.sampled_from(_TORUS_LETTERS), max_size=6)
    if draw(st.booleans()):
        return n, Word(draw(st.lists(st.sampled_from(_TORUS_LETTERS), max_size=16)))
    rels = catalog("TorusMetabelian", n).relators
    w = Word()
    for _ in range(draw(st.integers(1, 3))):
        u = Word(draw(letters))
        r = draw(st.sampled_from(rels)) ** draw(st.sampled_from([1, -1]))
        w = w * u * r * ~u
    tail = draw(st.one_of(st.just([]), st.lists(st.sampled_from(_TORUS_LETTERS),
                                                 max_size=3)))
    return n, w * Word(tail)


class TestTorusMetabelian:
    """The metabelian quotient of B_n(T), decided at class 2 in the
    catalog's TorusMetabelian group (`cli._torus_quotient`)."""

    def test_sigma_order(self):
        n = 5
        quotient, _ = _torus_quotient(n)
        s = Word.from_syms(Sym("s"))
        orders = [k for k in range(1, 2 * n + 1)
                  if quotient.contains_word(s ** k)]
        assert orders == [2 * n]

    def test_sigma_central(self):
        n = 5
        quotient, _ = _torus_quotient(n)
        s, a = Word.from_syms(Sym("s")), Word.from_syms(Sym("a"))
        assert quotient.contains_word(commutator(s, a))

    def test_relators_map_trivially(self):
        n = 5
        p = catalog("BnT", n)
        quotient, images = _torus_quotient(n)
        assert check_homomorphism(p, images, quotient.contains_word) == []

    def test_failing_relator_is_reported(self):
        n = 5
        p = catalog("BnT", n)
        quotient, images = _torus_quotient(n)
        a = Word.from_syms(Sym("a"))
        bad = Presentation(p.label, list(p.generators), list(p.relators) + [a])
        assert check_homomorphism(bad, images, quotient.contains_word) == [a]

    @given(_torus_words())
    @example((3, Word.from_syms(Sym("s")) ** 6))
    @settings(max_examples=300, deadline=None)
    def test_presentation_matches_the_closed_form(self, nw):
        n, w = nw
        quotient = NilpotentImage.of(catalog("TorusMetabelian", n), 2)
        assert quotient.contains_word(w) == _torus_law_is_trivial(w, n)

    @pytest.mark.parametrize("n", [3, 5])
    def test_closed_form_control(self, n):
        # with [b,a] = s^+2 the engine must part from the closed form on
        # [b,a] s^2, which is s^4 there and 1 in the torus quotient
        S, A, B = (Word.from_syms(Sym(c)) for c in "sab")
        p = catalog("TorusMetabelian", n)
        w = commutator(B, A) * S * S
        assert p.relators[3] == w
        flipped = Presentation(p.label + "+", list(p.generators),
                               list(p.relators[:3]) + [commutator(B, A) * ~(S * S)])
        assert _torus_law_is_trivial(w, n)
        assert NilpotentImage.of(p, 2).contains_word(w)
        assert not NilpotentImage.of(flipped, 2).contains_word(w)


class TestDerivedInstances:
    def test_instance_count(self):
        inst = derived_relation_instances(5, range(-1, 2), range(-1, 2))
        assert len(inst) == 288

    def test_needs_three_strands(self):
        with pytest.raises(BadParameters):
            derived_relation_instances(2, [0], [0])

    def test_instances_trivial_in_metabelian_image(self):
        n = 5
        quotient, images = _torus_quotient(n)
        for w in derived_relation_instances(n, [0, 1], [0, 1]):
            assert quotient.contains_word(substitute(w, images))
