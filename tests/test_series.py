import pytest

from surfbraid.finite import (Presentation, SubgroupDescription,
                              subgroup_image, tower_kernel_image,
                              two_quotient_tower)
from surfbraid.klein import ActionTable, action_table, base_generators, fiber_basis
from surfbraid.presentations import BadParameters, catalog
from surfbraid.series import (A_IN_B, B_IN_A, EQUAL, INCOMPARABLE,
                              DepthUnsupported, OracleMismatch,
                              compare_descriptions, elm_generators,
                              gamma2_p2k_claimed, gamma_p2k_claimed,
                              lower_central_description,
                              pi1k_base_lcs, residual_separation,
                              serie_generators, wn_tilde, ztilde)
from surfbraid.series import _fiber_words, _nilpotent_image, _oracle_image
from surfbraid.words import Sym, Word, commutator

A2 = Word.from_syms(Sym("a", (2,)))
B2 = Word.from_syms(Sym("b", (2,)))


@pytest.fixture(scope="module")
def p2k():
    return catalog("P2K_reduced", 2)


@pytest.fixture(scope="module")
def tower(p2k):
    return two_quotient_tower(p2k, 4)


def _reference_serie_generators(action, base_lcs, n):
    """(K_n, L_n, V_n) as lists, by the recursion written out term by term
    with the whole history of L and V kept, apart from the package's loop."""
    def dedupe(words):
        out = []
        for w in words:
            if not w.is_identity() and w not in out:
                out.append(w)
        return out

    fiber = _fiber_words(action)
    base_gens = list(base_lcs(1))
    L, V, K_n = [fiber], [fiber], dedupe(fiber)
    for m in range(2, n + 1):
        K_m = [action.apply_base_word(g, h) * ~h
               for g in base_lcs(m - 1) for h in fiber]
        H_m = [action.apply_base_word(g, w) * ~w
               for g in base_gens for w in L[-1]]
        comm = [commutator(h, w) for h in fiber for w in L[-1]]
        L.append(dedupe(K_m + H_m + comm))
        Ht_m = [action.apply_base_word(g, w) * ~w
                for g in base_gens for w in V[-1]]
        commv = [commutator(h, w) for h in fiber for w in V[-1]]
        V.append(dedupe(Ht_m + commv))
        K_n = dedupe(K_m)
    return K_n, L[-1], V[-1]


def _p2k_lcs(i):
    if i == 1:
        return [Word.from_syms(s) for s in base_generators(2)]
    return list(gamma_p2k_claimed(i).normal_generators)


def _pi1_context():
    a1, b1 = Sym("a", (1,)), Sym("b", (1,))
    inv = {a1: ~Word.from_syms(a1)}
    return (ActionTable(1, {b1: inv}, {b1: inv}),
            lambda i: [Word.from_syms(b1)] if i == 1 else [])


class TestSerieGenerators:
    @pytest.mark.parametrize("context, n", [
        *[("action_table(1)", n) for n in range(1, 5)],
        *[("action_table(2)", m) for m in range(1, 4)],
        *[("pi1", n) for n in range(1, 4)]])
    def test_matches_reference_recursion(self, context, n):
        # the exact lists, order included, for the calls the suites make
        action, lcs = {"action_table(1)": lambda: (action_table(1), pi1k_base_lcs),
                       "action_table(2)": lambda: (action_table(2), _p2k_lcs),
                       "pi1": _pi1_context}[context]()
        got = serie_generators(action, lcs, n)
        assert [list(d.normal_generators) for d in got] \
            == list(_reference_serie_generators(action, lcs, n))
        assert [d.label for d in got] == [f"K_{n}", f"L_{n}", f"V_{n}"]

    def test_worked_values(self):
        at = action_table(1)
        K3, L3, _ = serie_generators(at, pi1k_base_lcs, 3)
        assert compare_descriptions(
            K3, SubgroupDescription(K3.ambient, [A2 ** 4]), 3) == EQUAL
        _, L2, _ = serie_generators(at, pi1k_base_lcs, 2)
        assert compare_descriptions(
            L2, SubgroupDescription(L2.ambient,
                                    [A2 ** 2, commutator(A2, B2)]), 3) == EQUAL

    def test_level_one_is_fiber(self):
        at = action_table(1)
        K1, L1, V1 = serie_generators(at, pi1k_base_lcs, 1)
        assert set(L1.normal_generators) == {A2, B2}
        assert set(V1.normal_generators) == {A2, B2}

    def test_one_strand_context(self):
        a1, b1 = Sym("a", (1,)), Sym("b", (1,))
        inv = {a1: ~Word.from_syms(a1)}
        at = ActionTable(1, {b1: inv}, {b1: inv})
        lcs = lambda i: [Word.from_syms(b1)] if i == 1 else []
        _, L3, _ = serie_generators(at, lcs, 3,
                                    ambient=Presentation("fib", [a1], []))
        exp = SubgroupDescription(L3.ambient, [Word.from_syms(a1) ** 4])
        assert compare_descriptions(L3, exp, 3) == EQUAL

    def test_bad_depth(self):
        with pytest.raises(BadParameters):
            serie_generators(action_table(1), pi1k_base_lcs, 0)


class TestWnTilde:
    def test_shapes(self):
        assert list(wn_tilde(1).normal_generators) == [A2]
        gens2 = list(wn_tilde(2).normal_generators)
        assert A2 ** 2 in gens2 and commutator(A2, B2) in gens2

    def test_strict_descent(self):
        assert compare_descriptions(wn_tilde(3), wn_tilde(2), 3) == A_IN_B

    def test_b2_square_stays_outside(self):
        img = _nilpotent_image(wn_tilde(2), 3)
        assert not img.contains_word(B2 ** 2)


class TestCompareDescriptions:
    def test_four_verdicts_nilpotent(self):
        a, b = Sym("a"), Sym("b")
        amb = Presentation("F2", [a, b], [])
        wa, wb = Word.from_syms(a), Word.from_syms(b)
        d = lambda *gens: SubgroupDescription(amb, list(gens))
        assert compare_descriptions(d(wa ** 2, wb), d(wb, wa ** -2), 3) == EQUAL
        assert compare_descriptions(d(wa ** 4), d(wa ** 2), 3) == A_IN_B
        assert compare_descriptions(d(wa ** 2), d(wa ** 4), 3) == B_IN_A
        assert compare_descriptions(d(wa ** 2), d(wb ** 2), 3) == INCOMPARABLE

    def test_finite_oracle(self, p2k, tower):
        d = lambda *gens: SubgroupDescription(p2k, list(gens))
        assert compare_descriptions(d(A2 ** 2), d(A2 ** 4),
                                    tower[2]) == B_IN_A

    def test_alphabet_mismatch(self):
        a, b = Sym("a"), Sym("b")
        d1 = SubgroupDescription(Presentation("X", [a], []), [])
        d2 = SubgroupDescription(Presentation("Y", [b], []), [])
        with pytest.raises(OracleMismatch):
            compare_descriptions(d1, d2, 2)

    def test_bad_oracle(self):
        a = Sym("a")
        d = SubgroupDescription(Presentation("X", [a], []), [])
        with pytest.raises(OracleMismatch):
            compare_descriptions(d, d, "nope")


class TestClaimedClosedForms:
    @pytest.mark.parametrize("n", [2, 3])
    def test_gamma_matches_recursion(self, n, p2k, tower):
        claimed = gamma_p2k_claimed(n)
        brute = lower_central_description(p2k, n)
        for stage in tower[1:]:
            assert compare_descriptions(claimed, brute, stage) == EQUAL

    @pytest.mark.parametrize("n", [2, 3])
    def test_gamma2_matches_kernel(self, n, tower):
        for d in range(max(n, 2), 5):
            img = subgroup_image(tower[d - 1], gamma2_p2k_claimed(n))
            assert img == tower_kernel_image(tower, n, d)

    def test_stage4_builds_no_tree(self, p2k):
        # stage 4 multiplies through stage 3, so only the stages the tower
        # extended have a BFS tree
        tower = two_quotient_tower(p2k, 4)
        assert compare_descriptions(gamma_p2k_claimed(2),
                                    lower_central_description(p2k, 2),
                                    tower[3]) == EQUAL
        assert (subgroup_image(tower[3], gamma2_p2k_claimed(2))
                == tower_kernel_image(tower, 2, 4))
        assert [m._tree is None for m in tower] == [False, False, False, True]

    def test_depth_validation(self):
        with pytest.raises(BadParameters):
            gamma_p2k_claimed(1)


class TestKleinFamilies:
    def test_generator_counts(self):
        counts = []
        for m in (2, 3, 4, 5):
            counts.append(len(ztilde(2, m).normal_generators))
        assert counts == [8, 36, 130, 452]

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_ztilde_inside_two_series(self, m):
        # Ztilde_m lands inside gamma2_ceil(m/2) of the free fiber
        basis = fiber_basis(3)
        ftower = two_quotient_tower(Presentation("F3", basis, []), 3)
        k = (m + 1) // 2
        img = tower_kernel_image(ftower, k, 3)
        assert all(img.contains_word(w) for w in ztilde(2, m).normal_generators)

    @pytest.mark.parametrize("m", [2, 3])
    def test_v_inside_ztilde(self, m):
        at = action_table(2)

        def lcs(i):
            if i == 1:
                return [Word.from_syms(s) for s in base_generators(2)]
            return list(gamma_p2k_claimed(i).normal_generators)

        _, _, V = serie_generators(at, lcs, m)
        basis = fiber_basis(3)
        ftower = two_quotient_tower(Presentation("F3", basis, []), 3)
        img = subgroup_image(ftower[2], ztilde(2, m))
        assert all(img.contains_word(w) for w in V.normal_generators)

    def test_parameter_validation(self):
        with pytest.raises(BadParameters):
            ztilde(0, 2)
        with pytest.raises(BadParameters):
            ztilde(2, 1)


class TestElmGenerators:
    def test_exponents_without_a(self):
        desc = elm_generators(1, 2, [A2, B2])
        assert A2 ** 2 in desc.normal_generators
        assert commutator(A2, B2) in desc.normal_generators

    def test_a_slots_lower_exponent(self):
        desc = elm_generators(1, 2, [B2], a_words=[A2])
        # the A-entry at weight 1 carries exponent 2^(2-1-1) = 1
        assert A2 in desc.normal_generators
        assert B2 ** 2 in desc.normal_generators

    def test_validation(self):
        with pytest.raises(BadParameters):
            elm_generators(3, 2, [A2])


def lemaprinc_check(x, y, i, m, gens, oracle, a_words=None, k=0):
    """Check one instance of the power-shifting congruence
    [x^(2^e), y] = [x, y]^(2^e) modulo E_{i+1, m+1}, with e = m - i - k:
    an instance of the paper's main lemma on the E_{l,m} families, which
    `elm_generators` builds."""
    e = m - i - k
    if e < 0:
        raise BadParameters(f"need k <= m - i, got i={i}, m={m}, k={k}")
    diff = commutator(x ** (2 ** e), y) * ~(commutator(x, y) ** (2 ** e))
    target = elm_generators(i + 1, m + 1, gens, a_words=a_words)
    return _oracle_image(target, oracle).contains_word(diff)


class TestLemaprinc:
    @pytest.mark.parametrize("i,m,k", [(1, 2, 0), (1, 3, 0), (1, 3, 1)])
    def test_weight_one_instances(self, i, m, k):
        aw = [A2] if k else None
        assert lemaprinc_check(A2, B2, i, m, [A2, B2], 4, a_words=aw, k=k)

    def test_weight_two_instance(self):
        x = commutator(A2, B2)
        assert lemaprinc_check(x, B2, 2, 3, [A2, B2], 4)

    def test_bad_slot_count(self):
        with pytest.raises(BadParameters):
            lemaprinc_check(A2, B2, 2, 2, [A2, B2], 3, k=1)


class TestResidualSeparation:
    def test_two_series(self, p2k):
        elements = [A2, B2 ** 2, commutator(A2, B2), A2 * B2 * ~A2 * B2,
                    Word([])]
        reports = residual_separation(p2k, elements, 4)
        assert [r["verdict"] for r in reports] == ["Separated"] * 4 + ["Trivial"]
        assert [r["stage"] for r in reports] == [2, 3, 3, 3, None]

    def test_depth_validation(self, p2k):
        with pytest.raises(DepthUnsupported):
            residual_separation(p2k, [A2], 0)
