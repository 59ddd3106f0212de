import functools
import itertools
import math
import random
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from surfbraid import finite, series
from surfbraid.finite import (FiniteModel, Overflow, SubgroupDescription,
                              adjoin_kernel_relators, hom_search,
                              reidemeister_schreier, schreier_generator_words,
                              subgroup_image, todd_coxeter,
                              tower_kernel_image, two_quotient_tower)
from surfbraid.presentations import Presentation, abelianization, catalog
from surfbraid.words import Sym, Word, commutator

A, B, C = Sym("a"), Sym("b"), Sym("c")
WA, WB = Word.from_syms(A), Word.from_syms(B)


def _cyclic(n):
    return Presentation(f"Z{n}", [A], [WA ** n])


def _s3():
    return Presentation("S3", [A, B], [WA ** 3, WB ** 2, (WA * WB) ** 2])


def _q8():
    return Presentation("Q8", [A, B],
                        [WA ** 4, WA ** 2 * WB ** -2, WB * WA * ~WB * WA])


def _standardize(columns, n):
    """The table's columns, as lists, renumbered in the order a queue-driven
    breadth-first search from coset 0 over (coset, column) meets them."""
    new, order, head = {0: 0}, [0], 0
    while head < len(order):
        c = order[head]
        head += 1
        for col in columns:
            d = int(col[c])
            if d not in new:
                new[d] = len(order)
                order.append(d)
    assert len(order) == n
    return [[new[int(col[c])] for c in order] for col in columns]


def _table_lists(t):
    return [col.tolist() for col in t.columns]


def _columns(perms, n):
    """Coset-table columns, as lists, of permutations of range(n): each
    permutation, then its inverse by a scatter. The tower moves by flip
    lists over the stage below instead, so models built here are an
    independent reference."""
    out = []
    for perm in perms:
        inv = [0] * n
        for x, y in enumerate(perm):
            inv[y] = x
        out += [list(perm), inv]
    return out


def _perms(model):
    """A model's permutations as lists, walked by the model point by point:
    perms[col][x] is the point column col sends x to. A tower stage the
    tower has not extended has no columns, and is read only this way."""
    return [[model._walk([col], x) for x in range(model.npoints)]
            for col in range(2 * len(model.generators))]


def _a5():
    return Presentation("A5", [A, B], [WA ** 2, WB ** 3, (WA * WB) ** 5])


def _psl27():
    return Presentation("PSL(2,7)", [A, B], [WA ** 2, WB ** 3, (WA * WB) ** 7,
                                             (WA * WB * WA * ~WB) ** 4])


def _b3k_mod_n():
    p = catalog("BnK", 3)
    s1 = Word.from_syms(Sym("s", (1,)))
    s2 = Word.from_syms(Sym("s", (2,)))
    return Presentation("B3K/N", list(p.generators),
                        list(p.relators) + [Word.from_syms(A),
                                            Word.from_syms(B),
                                            s1 ** 2, s2 ** 2])


_ab_letter = st.tuples(st.sampled_from([A, B]), st.sampled_from([1, -1]))


@st.composite
def _two_generator_enumerations(draw):
    """<a, b | a^i, b^j, one or two random words>, with an optional subgroup
    word."""
    words = st.lists(_ab_letter, min_size=1, max_size=8).map(Word)
    relators = [WA ** draw(st.integers(2, 6)), WB ** draw(st.integers(2, 6))]
    relators += draw(st.lists(words, min_size=1, max_size=2))
    subgroup = draw(st.lists(words, max_size=1))
    return Presentation("random", [A, B], relators), subgroup


def _reference_todd_coxeter(p, subgroup, max_cosets):
    """HLT coset enumeration run to the end, without the package's early
    stop, scan bound or Schreier tree: every live coset is scanned under
    every relator and filled, then the table is compacted and numbered by
    `_standardize`. Returns the standard table as lists of columns; raises
    `Overflow` where the package's enumeration would pass `max_cosets`."""
    width = 2 * len(p.generators)
    table = [[None] * width]
    parent = [0]

    def rep(c):
        while parent[c] != c:
            c = parent[c]
        return c

    def define(c, col):
        if len(table) >= max_cosets:
            raise Overflow(f"exceeded {max_cosets} cosets")
        table.append([None] * width)
        parent.append(len(table) - 1)
        table[c][col] = len(table) - 1
        table[-1][col ^ 1] = c

    def coincidence(a, b):
        dead = []

        def merge(x, y):
            x, y = rep(x), rep(y)
            if x != y:
                parent[max(x, y)] = min(x, y)
                dead.append(max(x, y))

        merge(a, b)
        for e in dead:
            for col, f in enumerate(table[e]):
                if f is None:
                    continue
                table[f][col ^ 1] = None
                x, y = rep(e), rep(f)
                if table[x][col] is not None:
                    merge(y, table[x][col])
                elif table[y][col ^ 1] is not None:
                    merge(x, table[y][col ^ 1])
                else:
                    table[x][col], table[y][col ^ 1] = y, x

    def scan_and_fill(c, path):
        f, b, i, j = c, c, 0, len(path) - 1
        while True:
            while i <= j and table[f][path[i]] is not None:
                f, i = table[f][path[i]], i + 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i and table[b][path[j] ^ 1] is not None:
                b, j = table[b][path[j] ^ 1], j - 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                table[f][path[i]], table[b][path[i] ^ 1] = b, f
                return
            define(f, path[i])

    for w in subgroup:
        scan_and_fill(0, p.codes(w))
    c = 0
    while c < len(table):
        for r in p.relators:
            if parent[c] != c:
                break
            scan_and_fill(c, p.codes(r))
        if parent[c] == c:
            for col in range(width):
                if table[c][col] is None:
                    define(c, col)
        c += 1
    live = [c for c in range(len(table)) if parent[c] == c]
    renum = {c: i for i, c in enumerate(live)}
    columns = [[renum[table[c][col]] for c in live] for col in range(width)]
    return _standardize(columns, len(live))


def _route_case(family, n, steps):
    """(presentation, subgroup) of a step of the coset route to the mod-2
    tower: the group over its generators, then `steps` rounds of adjoining
    the squares and generator-commutators of the last table's kernel."""
    p = catalog(family, n)
    q = Presentation(p.label, list(p.generators),
                     list(p.relators) + [Word.from_syms(g) for g in p.generators])
    for _ in range(steps):
        t = todd_coxeter(q, [], max_cosets=3000)
        q = adjoin_kernel_relators(p, t)
    return q, []


class _ReferenceSchreier:
    """The Schreier generators of a transitive action, numbered without the
    package's Schreier code: the tree of a queue-driven breadth-first
    search from coset 0 over (coset, column), the set of its edges, a
    (coset, generator) -> number index of the other edges, and a rewriting
    walk."""

    def __init__(self, columns, n):
        self.columns = [[int(x) for x in col] for col in columns]
        self.paths = {0: []}
        # parent coset and entering column of each coset, and the order the
        # queue meets them in
        self.parent, self.letter = [-1] * n, [-1] * n
        tree_edges = set()
        self.order = order = [0]
        for c in order:  # grows as cosets are met
            for j, col in enumerate(self.columns):
                d = col[c]
                if d not in self.paths:
                    self.paths[d] = self.paths[c] + [j]
                    self.parent[d], self.letter[d] = c, j
                    order.append(d)
                    # an inverse column enters d along the edge (d, g)
                    tree_edges.add((d if j & 1 else c, j >> 1))
        assert len(order) == n
        self.index = {}
        for c in range(n):
            for g in range(len(columns) // 2):
                if (c, g) not in tree_edges:
                    self.index[(c, g)] = len(self.index)

    def rewrite(self, path, start):
        """The generators, as (number, exponent), met along the column path
        from coset `start`, and the end coset."""
        out, cur = [], start
        for col in path:
            if col & 1:
                cur = self.columns[col][cur]
                if (cur, col >> 1) in self.index:
                    out.append((self.index[(cur, col >> 1)], -1))
            else:
                if (cur, col >> 1) in self.index:
                    out.append((self.index[(cur, col >> 1)], 1))
                cur = self.columns[col][cur]
        return out, cur

    def parity(self, path, start):
        vec = 0
        for i, _ in self.rewrite(path, start)[0]:
            vec ^= 1 << i
        return vec

    def generator_path(self, c, g):
        """u_c . x_g . u_d^-1 for the edge (c, g), entering coset d."""
        d = self.columns[2 * g][c]
        return self.paths[c] + [2 * g] + [x ^ 1 for x in reversed(self.paths[d])]


@st.composite
def _transitive_models(draw):
    """Permutation models on 1..40 points of one to three generators, the
    first an n-cycle in a drawn order, so the action is transitive."""
    n = draw(st.integers(1, 40))
    ring = draw(st.permutations(range(n)))
    cycle = [0] * n
    for i, x in enumerate(ring):
        cycle[x] = ring[(i + 1) % n]
    perms = [cycle] + draw(st.lists(st.permutations(range(n)), max_size=2))
    perms = draw(st.permutations(perms))
    return FiniteModel(Presentation("F", [A, B, C][:len(perms)], []),
                       _columns(perms, n), n)


def _assert_tree_matches_reference(model):
    perms = _perms(model)
    ref = _ReferenceSchreier(perms, model.npoints)
    assert finite._schreier_tree(perms, model.npoints) \
        == (ref.parent, ref.letter, ref.order)


def _assert_edges_match_bits(model):
    # edge k is the (coset, generator) pair whose forward move crosses bit
    # 1 << k, and the edges come in (coset, generator) order, one for each
    # move the n - 1 tree edges leave off
    n, ngens = model.npoints, len(model.generators)
    perms = _perms(model)
    bits, edges = finite._edge_bits(perms, finite._schreier_tree(perms, n))
    assert all(bits[2 * g][c] == 1 << k for k, (c, g) in enumerate(edges))
    assert edges == [(c, g) for c in range(n) for g in range(ngens)
                     if bits[2 * g][c]]
    assert len(edges) == n * (ngens - 1) + 1


class TestSchreierTree:
    @given(_transitive_models())
    @settings(max_examples=80, deadline=None)
    def test_matches_queue_bfs(self, model):
        _assert_tree_matches_reference(model)

    @pytest.mark.parametrize("make, depth", [
        (lambda: catalog("P2K_reduced", 2), 4), (lambda: catalog("PnK", 3), 3),
        (lambda: Presentation("F3", [A, B, C], []), 3)],
        ids=["P2K_reduced", "P3K", "F3"])
    def test_tower_stages_match_queue_bfs(self, make, depth):
        for model in two_quotient_tower(make(), depth):
            _assert_tree_matches_reference(model)

    def test_refuses_a_non_transitive_action(self):
        # a 2-cycle and a fixed point: the BFS from point 0 never meets 2
        with pytest.raises(ValueError, match="not transitive"):
            finite._schreier_tree(_columns([[1, 0, 2]], 3), 3)

    @given(_transitive_models())
    @settings(max_examples=80, deadline=None)
    def test_edges_come_with_their_bits(self, model):
        _assert_edges_match_bits(model)

    @pytest.mark.parametrize("make, depth", [
        (lambda: catalog("P2K_reduced", 2), 4),
        (lambda: Presentation("F3", [A, B, C], []), 3)],
        ids=["P2K_reduced", "F3"])
    def test_tower_stage_edges_come_with_their_bits(self, make, depth):
        for model in two_quotient_tower(make(), depth):
            _assert_edges_match_bits(model)


class TestToddCoxeter:
    def test_cyclic_subgroup_index(self):
        t = todd_coxeter(_cyclic(4), [WA ** 2])
        assert t.index == 2

    def test_s3_point_stabilizer(self):
        assert todd_coxeter(_s3(), [WB]).index == 3
        assert todd_coxeter(_s3(), [WA]).index == 2

    def test_q8_regular(self):
        t = todd_coxeter(_q8(), [])
        assert t.index == 8

    def test_trivial_group(self):
        t = todd_coxeter(Presentation("1", [A], [WA]), [])
        assert t.index == 1

    def test_klein_braid_quotient_order_six(self):
        t = todd_coxeter(_b3k_mod_n(), [])
        assert t.index == 6

    @pytest.mark.parametrize("make, subgroup, index", [
        (_q8, [], 8), (_s3, [], 6), (_s3, [WA], 2), (_s3, [WB], 3),
        (_a5, [], 60), (_psl27, [], 168), (_b3k_mod_n, [], 6)],
        ids=["Q8", "S3", "S3-mod-a", "S3-mod-b", "A5", "PSL27", "B3K-mod-N"])
    def test_table_is_standard(self, make, subgroup, index):
        t = todd_coxeter(make(), subgroup)
        assert t.index == index
        assert _standardize(t.columns, t.index) == _table_lists(t)

    @given(_two_generator_enumerations(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_standard_table_ignores_relator_order(self, case, rng):
        # a complete standard table depends only on the group, the subgroup
        # and the generator order: shuffling the relators and adding a
        # cyclic conjugate of one of them leaves it as it is
        p, subgroup = case
        try:
            t = todd_coxeter(p, subgroup, max_cosets=3000)
        except Overflow:
            return
        assert _standardize(t.columns, t.index) == _table_lists(t)
        relators = list(p.relators)
        rng.shuffle(relators)
        letters = rng.choice([r for r in relators if r.letters]).letters
        k = rng.randrange(len(letters))
        relators.append(Word(letters[k:] + letters[:k]))
        try:
            t2 = todd_coxeter(Presentation("shuffled", [A, B], relators),
                              subgroup, max_cosets=3000)
        except Overflow:
            return
        assert _table_lists(t2) == _table_lists(t)

    @given(_two_generator_enumerations())
    @example(_route_case("P2K_reduced", 2, 2))
    @example(_route_case("PnK", 3, 1))
    @settings(max_examples=80, deadline=None)
    def test_matches_reference(self, case):
        # the early stop returns the table, or the Overflow, of the
        # enumeration run to the end; the examples are the 512-coset step of
        # the P2K_reduced route and the 64-coset step of the PnK 3 route
        p, subgroup = case
        try:
            want = _reference_todd_coxeter(p, subgroup, 3000)
        except Overflow:
            with pytest.raises(Overflow):
                todd_coxeter(p, subgroup, max_cosets=3000)
            return
        assert _table_lists(todd_coxeter(p, subgroup, max_cosets=3000)) == want

    def test_work_counts(self):
        # the 512-coset step of the P2K_reduced route: over its 189 relators
        # (2,192 letters) the table is complete and closes after 175 of its
        # 512 cosets are scanned, 383,600 letters, with 1,683 cosets defined.
        # The bulk trace keeps HLT's order, so both counts are exact, and of
        # the relator scans at those cosets (189 each) only 2,222 do not
        # close on it
        p, _ = _route_case("P2K_reduced", 2, 2)
        t = todd_coxeter(p, [])
        letters = sum(len(p.codes(r)) for r in p.relators)
        assert t.index == 512 and t.defined >= t.index
        assert t.scanned % letters == 0
        assert t.scanned < t.index * letters / 2
        assert t.scanned == 383_600 and t.defined == 1_683
        assert t.open_scans == 2_222

    def test_scan_bound(self):
        # the PnK 3 route's step to 32,768 cosets scans 68,896 relator letters
        # per coset; it passes MAX_SCAN_LETTERS at its 61st coset, about 0.4 s
        # into the step on a 2-core x86 VM (it ran for 289 s with no bound)
        p, _ = _route_case("PnK", 3, 2)
        start = time.perf_counter()
        with pytest.raises(Overflow, match="relator letters"):
            todd_coxeter(p, [], max_cosets=200000)
        assert time.perf_counter() - start < 30

    def test_overflow(self):
        with pytest.raises(Overflow):
            todd_coxeter(Presentation("F2", [A, B], []), [], max_cosets=50)

    def test_table_scans_close(self):
        t = todd_coxeter(_s3(), [WA])
        assert t.scan_closes()


class TestCosetAction:
    def test_regular_action_order(self):
        t = todd_coxeter(_s3(), [])
        m = FiniteModel(t.presentation, t.columns, t.index)
        # |S3| = 6 points: the model of the trivial subgroup's table has one
        # point per element
        assert m.npoints == 6

    def test_action_satisfies_relators(self):
        t = todd_coxeter(_s3(), [WA])
        m = FiniteModel(t.presentation, t.columns, t.index)
        for r in _s3().relators:
            for pt in range(m.npoints):
                assert m.apply_word(r, pt) == pt

    @pytest.mark.parametrize("make", [
        lambda: FiniteModel(_q8(), todd_coxeter(_q8(), []).columns, 8),
        lambda: hom_search(_q8(), 4)[-1]], ids=["Q8-table", "Q8-hom"])
    def test_products_need_a_tower_stage(self, make):
        # a model with more than one point that no tower built links no
        # stage below, so products and subgroup images refuse it, even where
        # the action is regular (Q8 on its own table)
        m = make()
        assert m.npoints > 1
        with pytest.raises(ValueError, match="tower"):
            _point_mul(m, 0, 1)
        with pytest.raises(ValueError, match="tower"):
            subgroup_image(m, SubgroupDescription(_q8(), []))

    def test_one_point_model_multiplies(self):
        # stage 1 of a tower, and any one-point model, is the trivial group
        stage1 = two_quotient_tower(_q8(), 1)[0]
        one = hom_search(_q8(), 1)[0]
        for m in (stage1, one):
            assert _point_mul(m, 0, 0) == 0
            assert subgroup_image(m, SubgroupDescription(_q8(), [WA])).points == {0}


@functools.lru_cache(maxsize=None)
def _reference(model):
    """A model's permutations (`_perms`) and the parent and letter lists of
    their BFS tree, built apart from the model, so its own `_tree` stays as
    the package left it."""
    perms = _perms(model)
    return (perms, *finite._schreier_tree(perms, model.npoints)[:2])


def _tree_product(model, a, b):
    """a times b in a regular model, by b's BFS tree path walked from a
    over the model's permutations: a route that shares nothing with the
    products through the stage below."""
    perms, parent, letter = _reference(model)
    return finite._trace(perms, finite._tree_path(parent, letter, b), a)


def _point_mul(model, a, b):
    """Product of the group elements with base-point images a and b, by the
    route `subgroup_image` multiplies by (`_mul_route`)."""
    path, bits = model._mul_route(b)
    return model._walk(path, a ^ bits)


def _point_inv(model, a):
    """Inverse of the group element with base-point image a in a regular
    model: a's BFS tree path walked backwards from the base point."""
    perms, parent, letter = _reference(model)
    path = finite._tree_path(parent, letter, a)
    return finite._trace(perms, [x ^ 1 for x in reversed(path)], 0)


def _assert_inverse_columns(models):
    # every inverse column undoes its generator's column on every point
    for m in models:
        perms = _perms(m)
        for fwd, back in zip(perms[::2], perms[1::2]):
            assert [back[x] for x in fwd] == list(range(m.npoints))


def _inverse_round_trip(models, p):
    words = [Word.from_syms(g) for g in p.generators]
    words += [u * ~v * u for u in words for v in words] + list(p.relators)
    for m in models:
        for w in words:
            for pt in range(min(m.npoints, 64)):
                assert m.apply_word(~w, m.apply_word(w, pt)) == pt


class TestInverseColumns:
    def test_coset_action(self):
        t = todd_coxeter(_s3(), [WA])
        _inverse_round_trip([FiniteModel(t.presentation, t.columns, t.index)], _s3())

    def test_hom_search(self):
        p = catalog("Pi1K", 1)
        _inverse_round_trip(hom_search(p, 3), p)

    def test_tower(self):
        p = catalog("P2K_reduced", 2)
        _inverse_round_trip(two_quotient_tower(p, 3), p)

    @pytest.mark.parametrize("make, depth", [
        (lambda: catalog("P2K_reduced", 2), 4), (lambda: catalog("PnK", 3), 3),
        (lambda: Presentation("F3", [A, B, C], []), 3)],
        ids=["P2K_reduced", "P3K", "F3"])
    def test_tower_inverse_on_every_point(self, make, depth):
        _assert_inverse_columns(two_quotient_tower(make(), depth))

    @pytest.mark.parametrize("family, n, degree", [
        ("Pi1K", 1, 3), ("P2K_reduced", 2, 4)])
    def test_hom_search_inverse_on_every_point(self, family, n, degree):
        _assert_inverse_columns(hom_search(catalog(family, n), degree))


class TestReidemeisterSchreier:
    def test_index_one_schreier_rank(self):
        t = todd_coxeter(Presentation("F2", [A, B], [WA ** 2, WB ** 2]),
                         [WA, WB])
        sub = reidemeister_schreier(t)
        assert len(sub.generators) == 2

    def test_s3_derived_subgroup(self):
        # <a> in S3 is the alternating subgroup A3 = Z3, of index 2
        t = todd_coxeter(_s3(), [WA])
        sub = reidemeister_schreier(t)
        inv = abelianization(sub)
        assert (inv.free_rank, inv.torsion) == (0, (3,))

    def test_schreier_words_generate_kernel(self):
        t = todd_coxeter(_s3(), [WA])
        words = schreier_generator_words(t)
        # every Schreier generator word stays in the subgroup: it fixes
        # coset 0 of the table
        m = FiniteModel(t.presentation, t.columns, t.index)
        for w in words:
            assert m.apply_word(w, 0) == 0

    @given(_two_generator_enumerations())
    @settings(max_examples=40, deadline=None)
    def test_matches_reference(self, case):
        p, subgroup = case
        try:
            t = todd_coxeter(p, subgroup, max_cosets=3000)
        except Overflow:
            return
        ref = _ReferenceSchreier(t.columns, t.index)
        ys = [Sym("y", key) for key in ref.index]
        relators = []
        for r in p.relators:
            for c in range(t.index):
                met, end = ref.rewrite(p.codes(r), c)
                assert end == c
                w = Word([(ys[i], e) for i, e in met])
                if not w.is_identity():
                    relators.append(w)
        sub = reidemeister_schreier(t)
        assert (sub.label, sub.generators, sub.relators) == (
            f"random_sub{t.index}", tuple(ys), tuple(relators))
        assert len(sub.generators) == t.index * (2 - 1) + 1
        assert list(sub.generators) == ys
        words = schreier_generator_words(t)
        assert words == [Word([((A, B)[x >> 1], -1 if x & 1 else 1)
                               for x in ref.generator_path(c, g)])
                         for c, g in ref.index]
        m = FiniteModel(t.presentation, t.columns, t.index)
        assert all(m.apply_word(w, 0) == 0 for w in words)

    def test_adjoin_kernel_relators_trivializes(self):
        # adding s^2 and [s, g] for all Schreier generators of the whole
        # group kills the group modulo squares and commutators: Z4 -> Z2
        p = _cyclic(4)
        t = todd_coxeter(p, [])
        q = adjoin_kernel_relators(p, todd_coxeter(p, [WA ** 1]))
        # ambient stays Z4 with extra relators; enumeration still closes
        t2 = todd_coxeter(q, [])
        assert t2.index in (1, 2, 4)

    def test_adjoin_kernel_relators_once(self):
        # no identity relator, and no two relators with one cyclic
        # reduction: the 512-coset step of the P2K_reduced route had 250
        # relators before they were kept once, and has 189
        def cyclic_reduction(codes):
            while len(codes) > 1 and codes[0] ^ codes[-1] == 1:
                codes = codes[1:-1]
            return codes

        p, _ = _route_case("P2K_reduced", 2, 2)
        keys = [cyclic_reduction(r.codes) for r in p.relators]
        assert all(keys)
        assert len(set(keys)) == len(keys) == 189


def _brute_force_homs(p, degree):
    """Every assignment of sorted permutations to the generators, in
    itertools.product order, kept when each relator composes to the
    identity; a relator's letters act one after the other on the points."""
    perms = sorted(itertools.permutations(range(degree)))
    identity = tuple(range(degree))

    def inverse(q):
        out = [0] * degree
        for i, x in enumerate(q):
            out[x] = i
        return tuple(out)

    found = []
    for choice in itertools.product(perms, repeat=len(p.generators)):
        image = dict(zip(p.generators, choice))
        trivial = True
        for r in p.relators:
            cur = identity
            for sym, exp in r.letters:
                q = image[sym] if exp > 0 else inverse(image[sym])
                cur = tuple(q[i] for i in cur)
            trivial = trivial and cur == identity
        if trivial:
            found.append(choice)
    return found


def _assert_matches_brute_force(p, degree):
    models = hom_search(p, degree)
    assert all(m.presentation is p and m.generators == tuple(p.generators)
               and m.npoints == degree for m in models)
    assert ([tuple(tuple(col.tolist()) for col in m.columns[::2]) for m in models]
            == _brute_force_homs(p, degree))


@st.composite
def _small_presentations(draw):
    gens = [A, B, C][:draw(st.integers(2, 3))]
    letter = st.tuples(st.sampled_from(gens), st.sampled_from([1, -1]))
    relators = draw(st.lists(st.lists(letter, min_size=1, max_size=6).map(Word),
                             min_size=1, max_size=3))
    return Presentation("random", gens, relators)


def _f2_eliminate(rows):
    """Gaussian elimination over F2 on bitmask rows, every row reduced in
    full, sparsest first: the pivot-column -> row map. Its pivot columns
    are the leading bits of the row space, the reference for
    `finite._f2_layer`'s free columns."""
    pivots = {}
    for row in sorted(rows, key=int.bit_count):
        r = row
        while r:
            lead = r.bit_length() - 1
            if lead in pivots:
                r ^= pivots[lead]
            else:
                pivots[lead] = r
                break
    return pivots


def _f2_project(vec, pivots, free_pos):
    """The unique vector of vec's coset of the row space supported on the
    free columns, with bit free_pos[c] for free column c: the reference for
    `finite._f2_layer`'s projections."""
    r = vec
    out = 0
    while r:
        lead = r.bit_length() - 1
        if lead in pivots:
            r ^= pivots[lead]
        else:
            r ^= 1 << lead
            out |= 1 << free_pos[lead]
    return out


def _per_coset_tower(p, depth):
    """The stage columns of the tower built with every relator traced from
    every coset, not from the base point only, and every conjugation
    difference rewritten as a word, in `_ReferenceSchreier`'s numbering.
    `two_quotient_tower` proves in its docstring that the two give one row
    space per layer, so this is a reference for its stages."""
    ngens = len(p.generators)
    rel_paths = [p.codes(r) for r in p.relators]
    model = FiniteModel(p, _columns([[0]] * ngens, 1), 1)
    out = [model.columns]
    for _ in range(depth - 1):
        n = model.npoints
        sch = _ReferenceSchreier(model.columns, n)
        rows = [sch.parity(path, c) for path in rel_paths for c in range(n)]
        for (c, g), sbit in sch.index.items():
            s_path = sch.generator_path(c, g)
            rows += [sch.parity([2 * h] + s_path + [2 * h + 1], 0) ^ (1 << sbit)
                     for h in range(ngens)]
        pivots = _f2_eliminate(rows)
        free = [i for i in range(len(sch.index)) if i not in pivots]
        d = len(free)
        free_pos = {c: i for i, c in enumerate(free)}
        perms = []
        for g in range(ngens):
            cocycle = [_f2_project(sch.parity([2 * g], c), pivots, free_pos)
                       for c in range(n)]
            perms.append([(model.columns[2 * g][c] << d) | (v ^ cocycle[c])
                          for c in range(n) for v in range(1 << d)])
        model = FiniteModel(p, _columns(perms, n << d), n << d)
        out.append(model.columns)
    return out


def _b3k_sigmas_equal():
    p3 = catalog("BnK", 3)
    s1 = Word.from_syms(Sym("s", (1,)))
    s2 = Word.from_syms(Sym("s", (2,)))
    return Presentation("B3K+(s1=s2)", list(p3.generators),
                        list(p3.relators) + [s1 * ~s2])


class TestHomSearch:
    def test_degree_one(self):
        assert len(hom_search(catalog("Pi1K", 1), 1)) == 1

    def test_degree_three_count(self):
        assert len(hom_search(catalog("Pi1K", 1), 3)) == 18

    def test_images_satisfy_relators(self):
        p = catalog("Pi1K", 1)
        for m in hom_search(p, 3):
            for r in p.relators:
                for pt in range(3):
                    assert m.apply_word(r, pt) == pt

    def test_degree_bound(self):
        with pytest.raises(ValueError):
            hom_search(_s3(), 7)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_matches_brute_force_pi1k(self, degree):
        _assert_matches_brute_force(catalog("Pi1K", 1), degree)

    def test_matches_brute_force_b2k(self):
        _assert_matches_brute_force(catalog("BnK", 2), 3)

    @given(_small_presentations(), st.integers(1, 3))
    @example(Presentation("abc", [A, B, C], [WA * WB * Word.from_syms(C)]), 3)
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_random(self, p, degree):
        # the example fails if letters compose in the wrong order
        _assert_matches_brute_force(p, degree)

    @given(_small_presentations(), st.integers(1, 3))
    @example(Presentation("abc", [A, B, C], [WA * WB * Word.from_syms(C)]), 3)
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_random_one_row_blocks(self, p, degree):
        # one parent row per block: every block seam must keep the order
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(finite, "_HOM_CHUNK_ROWS", 1)
            _assert_matches_brute_force(p, degree)

    @pytest.mark.parametrize("make, count", [
        (lambda: catalog("P2K_reduced", 2), 1704),
        (lambda: catalog("BnK", 3), 360),
        (_b3k_sigmas_equal, 264)], ids=["P2K_reduced", "B3K", "B3K+(s1=s2)"])
    def test_degree_four_counts(self, make, count):
        assert len(hom_search(make(), 4)) == count

    @pytest.mark.parametrize("make, count", [
        (lambda: catalog("P2K_reduced", 2), 15000),
        (lambda: catalog("BnK", 3), 2160),
        (_b3k_sigmas_equal, 1320)], ids=["P2K_reduced", "B3K", "B3K+(s1=s2)"])
    def test_degree_five_counts(self, make, count):
        assert len(hom_search(make(), 5)) == count

    def test_work_bound_counts_candidates(self, monkeypatch):
        # P2K_reduced at degree 4 examines 72,600 candidate rows, 24 per
        # survivor of each level; the bound admits exactly that many
        p = catalog("P2K_reduced", 2)
        monkeypatch.setattr(finite, "MAX_HOM_CANDIDATES", 72600)
        assert len(hom_search(p, 4)) == 1704
        monkeypatch.setattr(finite, "MAX_HOM_CANDIDATES", 72599)
        with pytest.raises(Overflow):
            hom_search(p, 4)

    def test_degree_six_overflows(self):
        with pytest.raises(Overflow, match="candidates"):
            hom_search(_b3k_sigmas_equal(), 6)

    def test_shared_columns_are_read_only(self):
        models = hom_search(catalog("Pi1K", 1), 3)
        before = [col.tolist() for m in models for col in m.columns]
        for col in models[-1].columns:
            with pytest.raises(ValueError):
                col[0] = 1
        assert [col.tolist() for m in models for col in m.columns] == before


class TestTwoQuotientTower:
    def test_z2_stabilizes(self):
        stages = two_quotient_tower(_cyclic(2), 4)
        assert [m.npoints for m in stages] == [1, 2, 2, 2]

    def test_free_rank3(self):
        stages = two_quotient_tower(
            Presentation("F3", [A, B, Sym("c")], []), 3)
        assert [m.npoints for m in stages] == [1, 8, 512]

    def test_two_strand_klein(self):
        stages = two_quotient_tower(catalog("P2K_reduced", 2), 4)
        assert [m.npoints for m in stages] == [1, 16, 512, 65536]

    def test_only_extended_stages_are_written_out(self):
        # stage 4 of P2K_reduced, 65,536 points, walks through stage 3's
        # columns and writes none of its own; the stages the tower extended
        # hold theirs as lists
        stages = two_quotient_tower(catalog("P2K_reduced", 2), 4)
        assert [m.columns is None for m in stages] == [False, False, False, True]
        assert all(type(col) is list for m in stages[:3] for col in m.columns)

    def test_point_bound(self, monkeypatch):
        monkeypatch.setattr(finite, "MAX_POINTS", 1000)
        with pytest.raises(Overflow, match="stage 4 would need 65536 points"):
            two_quotient_tower(catalog("P2K_reduced", 2), 4)

    def test_stage_orders_match_coset_enumeration(self):
        # independent route: adjoin squares and generator-commutators of the
        # previous kernel's Schreier generators, then re-enumerate. Both
        # routes give the regular table of the same quotient, so the route's
        # standard table is the tower stage renumbered breadth-first: P2K at
        # 16 and 512 cosets, P3K at 64
        for p, depth in ((catalog("P2K_reduced", 2), 3), (catalog("PnK", 3), 2)):
            stages = two_quotient_tower(p, depth)
            t = todd_coxeter(Presentation(p.label, list(p.generators),
                                          list(p.relators) + [Word.from_syms(g) for g in p.generators]),
                             [])
            for m in stages[1:]:
                t = todd_coxeter(adjoin_kernel_relators(p, t), [], max_cosets=200000)
                assert t.index == m.npoints
                assert _table_lists(t) == _standardize(_perms(m), m.npoints)

    @given(_small_presentations(), st.just(3))
    @example(catalog("P2K_reduced", 2), 4)
    @example(Presentation("F3", [A, B, C], []), 3)
    @settings(max_examples=40, deadline=None)
    def test_matches_per_coset_relators(self, p, depth):
        stages = two_quotient_tower(p, depth)
        assert [_perms(m) for m in stages] == _per_coset_tower(p, depth)

    @given(st.integers(1, 60).flatmap(lambda ncols: st.tuples(
        st.just(ncols), st.lists(st.sets(st.integers(0, ncols - 1), max_size=8),
                                 max_size=60))),
           st.randoms(use_true_random=False))
    @example((6, [{0}, {1}, {0, 1}, {0, 1}, {2, 3, 4}, {5}]), random.Random(0))
    @example((4, [{0, 1}, {1, 2}, {0, 2}, {2, 3}]), random.Random(0))
    @settings(max_examples=150, deadline=None)
    def test_row_order_keeps_the_answer(self, case, rng):
        # rows of popcount 0..8, so the sparse prefix stops in different
        # classes, or takes every row: given and shuffled, they give the
        # reference's free columns and projection of every unit column
        ncols, supports = case
        rows = [sum(1 << i for i in bits) for bits in supports]
        pivots = _f2_eliminate(rows)
        free = [c for c in range(ncols) if c not in pivots]
        free_pos = {c: i for i, c in enumerate(free)}
        want = (free, [_f2_project(1 << i, pivots, free_pos) for i in range(ncols)])
        shuffled = list(rows)
        rng.shuffle(shuffled)
        for order in (rows, shuffled):
            layer = finite._f2_layer(order, ncols, lambda coords: [
                finite._f2_image(row, coords) for row in order])
            assert (layer.free, layer.projection) == want
            assert layer.reduced + layer.certified <= len(rows)

    def test_elimination_work(self, monkeypatch):
        # stage 4 of the P2K_reduced tower has 6,153 rows over 1,537
        # columns. Reducing every row took 95,649 XORs, sparsest first.
        # Its sparse prefix reduces 3,183 rows, projection certifies 2,390
        # zero, and the other 580 are reduced over the 12 columns the
        # prefix leaves open: 11,512 XORs in all
        layers = []
        layer = finite._f2_layer

        def recording(*args):
            layers.append(layer(*args))
            return layers[-1]

        monkeypatch.setattr(finite, "_f2_layer", recording)
        stages = two_quotient_tower(catalog("P2K_reduced", 2), 4)
        last = layers[-1]
        assert len(last.free) == 7
        assert 0 < last.reduced <= 3_500
        assert last.certified >= 2_000
        assert 0 < last.xors <= 15_000
        # transitivity of the last stage is certified without its BFS tree
        assert [m._tree is None for m in stages] == [False, False, False, True]

    def test_transitivity_check_catches_a_corrupt_cocycle(self, monkeypatch):
        # a free column whose projection is 0 leaves its generator's layer
        # translation out, so the stage splits into orbits; the free group
        # has no relator that could fail first
        layer = finite._f2_layer

        def corrupting(*args):
            out = layer(*args)
            return out._replace(projection=[0 if i == out.free[-1] else v
                                            for i, v in enumerate(out.projection)])

        monkeypatch.setattr(finite, "_f2_layer", corrupting)
        with pytest.raises(AssertionError, match="not transitive"):
            two_quotient_tower(Presentation("F3", [A, B, C], []), 2)

    def test_relators_vanish_in_every_stage(self):
        p = catalog("P2K_reduced", 2)
        for m in two_quotient_tower(p, 3):
            for r in p.relators:
                assert m.apply_word(r, 0) == 0


@pytest.fixture(scope="module")
def stage3():
    return two_quotient_tower(catalog("P2K_reduced", 2), 3)[2]


@pytest.fixture(scope="module")
def stage4():
    return two_quotient_tower(catalog("P2K_reduced", 2), 4)[3]


def _normal_closure_points(model, seeds):
    """Brute-force normal closure by point arithmetic: close the seed points
    under conjugation by the generators and their inverses, then multiply
    out from the identity until nothing new appears."""
    gens = [(g, _point_inv(model, g)) for g in
            (model._walk([2 * i], 0) for i in range(len(model.generators)))]
    conj = set(seeds) - {0}
    frontier = list(conj)
    while frontier:
        x = frontier.pop()
        for g, gi in gens:
            for y in (_point_mul(model, _point_mul(model, g, x), gi),
                      _point_mul(model, _point_mul(model, gi, x), g)):
                if y not in conj:
                    conj.add(y)
                    frontier.append(y)
    grp = {0}
    frontier = [0]
    while frontier:
        z = frontier.pop()
        for s in conj:
            w = _point_mul(model, z, s)
            if w not in grp:
                grp.add(w)
                frontier.append(w)
    return grp


_P2K = catalog("P2K_reduced", 2)
_p2k_words = st.lists(st.tuples(st.sampled_from(_P2K.generators),
                                st.sampled_from([1, -1])),
                      max_size=8).map(Word)


class TestSubgroupImage:

    def test_trivial_description(self, stage3):
        desc = SubgroupDescription(catalog("P2K_reduced", 2), [])
        assert subgroup_image(stage3, desc).points == {0}

    def test_generators_give_everything(self, stage3):
        desc = SubgroupDescription(_P2K, [Word.from_syms(g) for g in _P2K.generators])
        assert subgroup_image(stage3, desc).points == set(range(stage3.npoints))

    def test_power_closure(self, stage3):
        a2 = Word.from_syms(Sym("a", (2,)))
        desc = SubgroupDescription(catalog("P2K_reduced", 2), [a2 ** 2])
        img = subgroup_image(stage3, desc)
        assert img.contains_word(a2 ** 4)
        assert not img.contains_word(a2)

    def test_matches_commutator_closure(self, stage3):
        # brute-force [G, G] by points must equal the image of the
        # word-level commutator description
        p = catalog("P2K_reduced", 2)
        gens_pts = [stage3.apply_word(Word.from_syms(g), 0)
                    for g in p.generators]
        seeds = set()
        for x in gens_pts:
            for y in gens_pts:
                xi, yi = _point_inv(stage3, x), _point_inv(stage3, y)
                seeds.add(_point_mul(
                    stage3, _point_mul(stage3, _point_mul(stage3, x, y), xi), yi))
        desc = SubgroupDescription(
            p, [commutator(Word.from_syms(x), Word.from_syms(y))
                for x in p.generators for y in p.generators])
        assert (subgroup_image(stage3, desc).points
                == _normal_closure_points(stage3, seeds))

    @given(st.lists(_p2k_words, min_size=1, max_size=3))
    @settings(max_examples=25, deadline=None)
    def test_matches_point_closure_random(self, stage3, words):
        seeds = {stage3.apply_word(w, 0) for w in words}
        desc = SubgroupDescription(_P2K, words)
        img = subgroup_image(stage3, desc)
        assert img.points == _normal_closure_points(stage3, seeds)
        # each kept generator at least doubles the subgroup
        assert img.kept <= math.log2(stage3.npoints)

    @given(st.lists(_p2k_words, min_size=1, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_matches_point_closure_random_squares(self, stage4, words):
        # squares lie in the kernel onto stage 2, 4,096 of the 65,536
        # points of stage 4, which is never written out: the image and the
        # reference both walk it through stage 3
        words = [w * w for w in words]
        seeds = {stage4.apply_word(w, 0) for w in words}
        img = subgroup_image(stage4, SubgroupDescription(_P2K, words))
        assert img.points == _normal_closure_points(stage4, seeds)
        assert img.kept <= math.log2(stage4.npoints)
        assert stage4.columns is None

    def test_gamma2_stage4_work(self, stage4):
        # the claimed gamma2 at n = 2 is the kernel onto stage 2: 4,096
        # points in 32 blocks over stage 3, grown by 8 kept generators of
        # the 12 that 2^12 points allow, in 542 route walks
        img = subgroup_image(stage4, series.gamma2_p2k_claimed(2))
        assert len(img) == 4096
        assert len({x >> 7 for x in img.points}) == 32
        assert (img.kept, img.walks) == (8, 542)

    def test_a_kept_generator_must_grow_the_subgroup(self, stage3, monkeypatch):
        # with its Schreier generators dropped, the image never holds the
        # layer bits a kept generator brings, and would keep generators
        # forever; past log2(npoints) of them it stops
        monkeypatch.setattr(finite, "_f2_insert", lambda row, pivots: 0)
        desc = SubgroupDescription(_P2K, [Word.from_syms(g) for g in _P2K.generators])
        with pytest.raises(AssertionError, match="did not grow"):
            subgroup_image(stage3, desc)

    def test_kernel_image_block(self):
        stages = two_quotient_tower(catalog("P2K_reduced", 2), 3)
        kern = tower_kernel_image(stages, 2, 3)
        assert len(kern) == 512 // 16
        assert 0 in kern.points

    def test_kernel_image_validation(self):
        stages = two_quotient_tower(_cyclic(2), 2)
        with pytest.raises(ValueError):
            tower_kernel_image(stages, 3, 2)


@pytest.fixture(scope="module")
def layered():
    """Towers whose last stage multiplies through the stage below it."""
    return {"P2K_reduced": two_quotient_tower(catalog("P2K_reduced", 2), 4),
            "F3": two_quotient_tower(Presentation("F3", [A, B, C], []), 3),
            "PnT": two_quotient_tower(catalog("PnT", 3), 3)}


def _layer_width(tower):
    """The layer bits d of the last stage: (c << d) | v is its point v of
    block c, where c is a point of the stage below."""
    return (tower[-1].npoints // tower[-2].npoints).bit_length() - 1


class TestLayeredProduct:
    @given(st.sampled_from(["P2K_reduced", "F3", "PnT"]),
           st.integers(0, (1 << 16) - 1), st.integers(0, (1 << 16) - 1))
    @settings(max_examples=200, deadline=None)
    def test_matches_tree_path(self, layered, name, a, b):
        stage = layered[name][-1]
        a, b = a % stage.npoints, b % stage.npoints
        assert _point_mul(stage, a, b) == _tree_product(stage, a, b)

    def test_layer_element(self, layered):
        # b = v in block 0 is central: right multiplication flips v's bits
        tower = layered["P2K_reduced"]
        stage, d = tower[-1], _layer_width(tower)
        rng = random.Random(1)
        for v in range(1, 1 << d):
            a = rng.randrange(stage.npoints)
            assert _point_mul(stage, a, v) == _tree_product(stage, a, v) == a ^ v

    @pytest.mark.parametrize("name", ["P2K_reduced", "F3", "PnT"])
    def test_block_representative(self, layered, name):
        # b = c << d, v = 0: the tree path of c in the stage below
        tower = layered[name]
        stage, d = tower[-1], _layer_width(tower)
        rng = random.Random(2)
        blocks = range(1, tower[-2].npoints)
        for c in rng.sample(blocks, min(40, len(blocks))):
            a = rng.randrange(stage.npoints)
            assert _point_mul(stage, a, c << d) == _tree_product(stage, a, c << d)

    def test_inverse_by_tree_path(self, layered):
        # the layered product against the test-side inverse
        stage = layered["P2K_reduced"][-1]
        rng = random.Random(3)
        for x in rng.sample(range(stage.npoints), 200):
            assert _point_mul(stage, x, _point_inv(stage, x)) == 0
            assert _point_mul(stage, _point_inv(stage, x), x) == 0
