import hashlib
import os
import random
import re
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfbraid
from surfbraid import klein, words
from surfbraid.finite import Overflow as FiniteOverflow
from surfbraid.klein import (BadLevel, SemidirectElement, action_table,
                             base_generators, center_witness, fiber_basis,
                             normal_form, section_images, verify_action,
                             verify_central, verify_section)
from surfbraid.presentations import catalog
from surfbraid.words import (ImageTable, Overflow, Sym, Word, commutator,
                             substitute)

A1, B1 = Sym("a", (1,)), Sym("b", (1,))
A2, B2 = Sym("a", (2,)), Sym("b", (2,))


def _gen_word_strategy(n, max_len=8):
    syms = []
    for i in range(1, n + 1):
        syms += [Sym("a", (i,)), Sym("b", (i,))]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            syms.append(Sym("C", (i, j)))
    letter = st.tuples(st.sampled_from(syms), st.sampled_from([1, -1]))
    return st.lists(letter, max_size=max_len).map(Word)


def _reference_normal_form(w, n):
    """The recursion `normal_form` replaced, kept as a reference: each
    letter builds one element per level it reaches, as the product
    f * substitute(F, A) of Words, and each level's fiber is checked against
    the bound before the letter goes on to the level below."""
    def prepend(e, code):
        level = e.level
        if level == 1:
            k, l = e.base
            exp = -1 if code & 1 else 1
            if code >> 1 == A1.code >> 1:
                sign = 1 if k % 2 == 0 else -1
                return SemidirectElement(1, Word(), (k, l + exp * sign))
            return SemidirectElement(1, Word(), (k + exp, l))
        f, act = klein._moves(level)[code]
        f = Word._trusted(f)
        fiber = f * e.fiber if act is None else f * substitute(e.fiber, act)
        if len(fiber) > klein.MAX_FIBER_LETTERS:
            raise Overflow(f"level-{level} fiber passed "
                           f"{klein.MAX_FIBER_LETTERS} letters")
        base = e.base if act is None else prepend(e.base, code)
        return SemidirectElement(level, fiber, base)

    e = SemidirectElement(1, Word(), (0, 0))
    for level in range(2, n + 1):
        e = SemidirectElement(level, Word(), e)
    for code in reversed(w.codes):
        e = prepend(e, code)
    return e


def _reference_inverse(basis, images):
    """The Nielsen descent `invert_automorphism` replaced, kept as a
    reference: it builds the product of every candidate move before it
    compares keys."""
    from itertools import permutations
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
    out = {}
    for u, v in zip(us, vs):
        if len(u) != 1:
            raise klein.NotInvertible("Nielsen descent did not reach a basis")
        code, = u.codes
        out[Sym.from_code(code)] = ~v if code & 1 else v
    if set(out) != set(basis):
        raise klein.NotInvertible("reduced tuple is not the free basis")
    return out


def _inverse_outcome(invert, basis, images):
    try:
        return invert(basis, images)
    except klein.NotInvertible as e:
        return f"NotInvertible: {e}"


def _outcome(solve, w, n):
    try:
        return solve(w, n)
    except Overflow as e:
        return f"Overflow: {e}"


class TestSection:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_relators_survive(self, n):
        assert all(ok for _, ok in verify_section(n))

    def test_corrupted_control_fails(self):
        assert any(not ok for _, ok in verify_section(2, corrupted=True))

    def test_images_cover_generators(self):
        images = section_images(2)
        for g in catalog("PnK", 2).generators:
            assert g in images

    def test_bad_level(self):
        with pytest.raises(BadLevel):
            section_images(0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_section_table_matches_images(self, n):
        assert klein._section_table(n) == ImageTable(section_images(n))

    def test_checks_reuse_cached_tables(self, monkeypatch):
        # once their tables exist, the section and action checks and
        # `to_word` substitute through them and build no ImageTable
        e = normal_form(center_witness(4) * Word.from_syms(A2), 4)

        def run():
            verify_section(3)
            verify_action(3)
            return e.to_word()

        word = run()
        built = []
        init = ImageTable.__init__

        def counting(self, images):
            built.append(images)
            init(self, images)

        monkeypatch.setattr(ImageTable, "__init__", counting)
        assert run() == word
        assert built == []


class TestAction:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_action_respects_relations(self, n):
        assert all(ok for _, ok in verify_action(n))

    # a descent by length alone stalls on the b[n] table at n = 2, 3 and 4
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_phi_psi_inverse(self, n):
        at = action_table(n)
        basis = fiber_basis(n + 1)
        for z in base_generators(n):
            u = Word.from_syms(z)
            for y in basis:
                w = Word.from_syms(y)
                assert at.apply_base_word(~u, at.apply_base_word(u, w)) == w
                assert at.apply_base_word(u, at.apply_base_word(~u, w)) == w

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_descent_matches_reference(self, data):
        # an automorphism of the free group of rank 2-5, as the product of up
        # to 12 Nielsen moves on the basis: x_i -> x_i^-1, or x_i -> x_i x_j^e
        # or x_j^e x_i; the same inverse (or the same refusal) as the
        # reference, and an inverse that composes to the identity
        rank = data.draw(st.integers(2, 5))
        basis = [Sym("x", (k,)) for k in range(1, rank + 1)]
        us = [Word.from_syms(x) for x in basis]
        for _ in range(data.draw(st.integers(0, 12))):
            i, j = data.draw(st.permutations(range(rank)))[:2]
            e = data.draw(st.sampled_from((1, -1)))
            move = data.draw(st.sampled_from(("invert", "left", "right")))
            if move == "invert":
                us[i] = ~us[i]
            elif move == "left":
                us[i] = us[j] ** e * us[i]
            else:
                us[i] = us[i] * us[j] ** e
        images = dict(zip(basis, us))
        got = _inverse_outcome(klein.invert_automorphism, basis, images)
        assert got == _inverse_outcome(_reference_inverse, basis, images)
        if isinstance(got, dict):
            table = ImageTable(images)
            for x in basis:
                assert substitute(got[x], table) == Word.from_syms(x)

    def test_non_surjective_endomorphism_is_refused(self):
        # a -> a^2, b -> b is injective but not onto: every move makes a
        # word of length 3, so the descent stops after one sweep
        a, b = Sym("a", (1,)), Sym("b", (1,))
        images = {a: Word.from_syms(a, a), b: Word.from_syms(b)}
        t0 = time.perf_counter()
        with pytest.raises(klein.NotInvertible):
            klein.invert_automorphism([a, b], images)
        assert time.perf_counter() - t0 < 1.0


class TestNormalForm:
    def test_relators_solve_to_trivial(self):
        p = catalog("P2K_reduced", 2)
        for r in p.relators:
            assert normal_form(r, n=2).is_identity()

    def test_commuting_pure_generators(self):
        w = commutator(Word.from_syms(A1), Word.from_syms(A2))
        assert normal_form(w, n=2).is_identity()

    def test_nontrivial_word(self):
        assert not normal_form(Word.from_syms(A2), n=2).is_identity()

    def test_level_inference(self):
        e = normal_form(Word.from_syms(A2))
        assert e.level == 2

    def test_level_inference_index_free_symbol(self):
        # inferred level 1, where x is not a generator
        with pytest.raises(BadLevel):
            normal_form(Word.from_syms(Sym("x")))

    def test_level_cap(self):
        w = Word.from_syms(Sym("a", (7,)))
        with pytest.raises(BadLevel):
            normal_form(w)

    @pytest.mark.parametrize("n", [0, -1])
    def test_level_floor(self, n):
        with pytest.raises(BadLevel):
            normal_form(Word(), n=n)

    def test_fiber_bound(self, monkeypatch):
        # (a4*b3*C[2,4])^4 conjugating a5 peaks at 138,617 fiber letters
        u = Word.from_syms(Sym("a", (4,)), Sym("b", (3,)), Sym("C", (2, 4))) ** 4
        w = u * Word.from_syms(Sym("a", (5,))) * ~u
        monkeypatch.setattr(klein, "MAX_FIBER_LETTERS", 10_000)
        with pytest.raises(Overflow, match="fiber passed 10000 letters"):
            normal_form(w, n=5)

    def test_docstring_overflow_example(self):
        # the word the normal_form docstring and the README cite, and CI's
        # out-of-bound `solve 5` call: at the default bound its level-5 fiber
        # passes 2,000,000 letters after about a second on a 2-core x86 VM
        assert klein.MAX_FIBER_LETTERS == 2_000_000
        u = Word.from_syms(Sym("a", (4,)), Sym("b", (3,)), Sym("C", (2, 4))) ** 6
        w = u * Word.from_syms(Sym("a", (5,))) * ~u
        assert len(w) == 37
        with pytest.raises(Overflow, match="fiber passed 2000000 letters"):
            normal_form(w, n=5)

    def test_overflow_is_one_class(self):
        assert FiniteOverflow is Overflow

    def test_import_leaves_numpy_out(self):
        # the child imports the same surfbraid as this process, and reports
        # numpy's presence on stdout, apart from any failure to import
        src = os.path.dirname(os.path.dirname(os.path.abspath(surfbraid.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import sys, surfbraid.klein; print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @given(_gen_word_strategy(2), _gen_word_strategy(2))
    @settings(max_examples=60, deadline=None)
    def test_solver_is_homomorphic(self, u, v):
        lhs = normal_form(u * v, n=2)
        rhs = normal_form(u, n=2) * normal_form(v, n=2)
        assert lhs == rhs

    @pytest.mark.parametrize("n", [3, 4])
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_solver_is_homomorphic_more_strands(self, n, data):
        u = data.draw(_gen_word_strategy(n, max_len=4))
        v = data.draw(_gen_word_strategy(n, max_len=4))
        lhs = normal_form(u * v, n=n)
        rhs = normal_form(u, n=n) * normal_form(v, n=n)
        assert lhs == rhs

    def test_seeded_normal_forms_are_frozen(self):
        # 50 random words of length <= 10 per n = 2..5: a change in any of
        # their normal forms changes the digest of the reprs
        rng = random.Random("klein-normal-forms")
        lines = []
        for n in (2, 3, 4, 5):
            gens = base_generators(n)
            for _ in range(50):
                w = Word([(rng.choice(gens), rng.choice((1, -1)))
                          for _ in range(rng.randint(0, 10))])
                lines.append(repr(normal_form(w, n)))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == ("ac81117c6d321d57ea0ee01fb9f34a60"
                          "b0c1cab733083b327de1a5ea85600e9e")

    @pytest.mark.parametrize("sym", [Sym("a", (0,)), Sym("C", (2, 2)),
                                     Sym("C", (3, 2)), Sym("D", (1, 3)),
                                     Sym("b")])
    @pytest.mark.parametrize("n", [None, 5])
    def test_foreign_symbol_is_bad_level(self, sym, n, monkeypatch):
        # the letters are checked before any move table is built
        def no_tables(level):
            raise AssertionError(f"built the level-{level} moves")
        monkeypatch.setattr(klein, "_moves", no_tables)
        with pytest.raises(BadLevel, match=f"{re.escape(str(sym))} is not a "
                                           "pure braid generator"):
            normal_form(Word.from_syms(A1, sym), n)

    @pytest.mark.parametrize("bound", [30, 300, 2_000, None])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_matches_reference_recursion(self, n, bound, data):
        # equal elements or equal Overflow messages on words of up to 14
        # letters: random words, and conjugates u r u^-1 of relators, whose
        # fibers grow and then shrink to nothing, so that under the bound
        # of 30 a bound checked only at the end lets through what the
        # reference refuses
        relators = catalog("PnK", n).relators
        r = data.draw(st.sampled_from(relators))
        u = data.draw(_gen_word_strategy(n, max_len=(14 - len(r)) // 2))
        w = data.draw(st.one_of(st.just(u * r * ~u),
                                _gen_word_strategy(n, max_len=14)))
        with pytest.MonkeyPatch.context() as mp:
            if bound is not None:
                mp.setattr(klein, "MAX_FIBER_LETTERS", bound)
            want = _outcome(_reference_normal_form, w, n)
            assert _outcome(normal_form, w, n) == want

    def test_one_join_per_level_per_letter(self, monkeypatch):
        # with the block tables warm, a letter whose own level is L (the
        # largest index of its symbol) joins the fibers of levels 5 down to
        # max(L, 2) once each, and nothing else joins
        rng = random.Random("klein-join-count")
        gens = base_generators(5)
        ws = [Word([(rng.choice(gens), rng.choice((1, -1)))
                    for _ in range(8)]) for _ in range(12)]
        for w in ws:
            normal_form(w, 5)
        joins = []
        join = klein._join

        def counting(pieces):
            joins.append(None)
            return join(pieces)

        monkeypatch.setattr(klein, "_join", counting)
        monkeypatch.setattr(words, "_join", counting)
        for w in ws:
            joins.clear()
            normal_form(w, 5)
            assert len(joins) == sum(6 - max(2, *Sym.from_code(c).indices)
                                     for c in w.codes)

    @given(_gen_word_strategy(2))
    @settings(max_examples=60, deadline=None)
    def test_inverse(self, w):
        e = normal_form(w, n=2)
        assert (e * ~e).is_identity()

    @given(_gen_word_strategy(2, max_len=6))
    @settings(max_examples=40, deadline=None)
    def test_word_round_trip(self, w):
        e = normal_form(w, n=2)
        assert normal_form(e.to_word(), n=2) == e

    @given(_gen_word_strategy(3, max_len=5))
    @settings(max_examples=25, deadline=None)
    def test_three_strand_inverse(self, w):
        e = normal_form(w, n=3)
        assert (~e * e).is_identity()


class TestOneStrandSolver:
    # Pi1K = <a1, b1 : a1 b1 = b1 a1^-1>; the level-1 base (k, l) is b1^k a1^l
    def test_normal_form_word(self):
        w = Word([(B1, 1), (A1, 1), (B1, 1)])
        assert normal_form(w, 1).base == (2, -1)

    def test_relator_is_trivial(self):
        for r in catalog("Pi1K", 1).relators:
            assert normal_form(r, 1).is_identity()

    def test_triviality(self):
        assert normal_form(Word([]), 1).is_identity()
        assert not normal_form(Word([(A1, 1)]), 1).is_identity()

    @given(st.lists(st.tuples(st.sampled_from([A1, B1]),
                              st.sampled_from([1, -1])), max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_normal_form_is_homomorphic(self, letters):
        # w * w^-1 always solves to the origin
        w = Word(letters)
        assert normal_form(w * ~w, 1).is_identity()


class TestCentre:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_witness_is_central(self, n):
        assert all(ok for _, ok in verify_central(n))

    @pytest.mark.parametrize("n", [2, 3])
    def test_witness_commutes_with_generators(self, n):
        z = center_witness(n)
        for g in catalog("PnK", n).generators:
            w = commutator(z, Word.from_syms(g))
            assert normal_form(w, n=n).is_identity()

    def test_negative_control(self):
        w = commutator(Word.from_syms(B2) ** 2, Word.from_syms(A2))
        assert not normal_form(w, n=2).is_identity()


class TestSectionHomomorphism:
    @pytest.mark.parametrize("n", [1, 2])
    def test_projection_of_section_is_identity(self, n):
        # forgetting the new strand takes the section image of g back to g
        for g, img in section_images(n).items():
            e = normal_form(img, n=n + 1)
            assert e.base == normal_form(Word.from_syms(g), n=n)
