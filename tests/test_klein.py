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
from surfbraid import klein
from surfbraid.finite import Overflow as FiniteOverflow
from surfbraid.klein import (BadLevel, SemidirectElement, action_table,
                             base_generators, center_witness, fiber_basis,
                             normal_form, section_images, verify_action,
                             verify_central, verify_section)
from surfbraid.presentations import catalog
from surfbraid.words import Overflow, Sym, Word, commutator, substitute

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
            for y in basis:
                w = Word.from_syms(y)
                assert at.apply_psi(z, at.apply_phi(z, w)) == w
                assert at.apply_phi(z, at.apply_psi(z, w)) == w

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
