import copy
import os
import pickle
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import surfbraid
from surfbraid import words
from surfbraid.klein import (action_table, base_generators, fiber_basis,
                             normal_form)
from surfbraid.words import (IDENTITY, ImageTable, Sym, UnmappedSymbol, Word,
                             WordSyntaxError, colchete_rhs, commutator,
                             left_normed, parse_word, print_word, substitute)

X, Y, A1 = Sym("x"), Sym("y"), Sym("a", (1,))
WX, WY = Word.from_syms(X), Word.from_syms(Y)


def _letters_strategy(max_len=12):
    letter = st.tuples(st.sampled_from([X, Y, Sym("z", (1,))]),
                       st.sampled_from([1, -1]))
    return st.lists(letter, max_size=max_len)


def _random_word_strategy(max_len=12):
    return _letters_strategy(max_len).map(Word)


def _stack_reduce(letters):
    """Reference free reduction: push each letter, or pop the top of the
    stack when the letter is its inverse."""
    stack = []
    for sym, exp in letters:
        if stack and stack[-1] == (sym, -exp):
            stack.pop()
        else:
            stack.append((sym, exp))
    return tuple(stack)


class TestSym:
    def test_interned(self):
        assert Sym("a", (1,)) is Sym("a", [1])
        assert Sym("a", (1,)) is A1
        assert Sym("x") is X

    def test_never_equals_a_plain_tuple(self):
        assert Sym("a", (1,)) != ("a", (1,))
        assert ("a", (1,)) != Sym("a", (1,))
        assert not Sym("a", (1,)) == ("a", (1,))
        assert not ("a", (1,)) == Sym("a", (1,))

    def test_hash_is_the_field_tuple_hash(self):
        for s in (X, A1, Sym("C", (1, 2)), Sym("th", (1, 2, 3))):
            assert hash(s) == hash((s.name, s.indices))

    def test_order_is_the_field_tuple_order(self):
        syms = [Sym("b"), Sym("a", (2,)), Sym("C", (1, 3)), Sym("a", (1, 3)),
                Sym("a", (1,)), Sym("a"), Sym("C", (1, 2))]
        assert sorted(syms) == sorted(syms, key=lambda s: (s.name, s.indices))

    def test_text_forms(self):
        assert repr(A1) == "Sym(name='a', indices=(1,))"
        assert str(A1) == "a[1]"
        assert str(Sym("C", (1, 2))) == "C[1,2]"
        assert str(X) == "x"

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_returns_the_registered_object(self, protocol):
        assert pickle.loads(pickle.dumps(A1, protocol)) is A1

    def test_copies_return_the_registered_object(self):
        assert copy.copy(A1) is A1
        assert copy.deepcopy(A1) is A1
        assert copy.deepcopy([(A1, 1)])[0][0] is A1

    @pytest.mark.parametrize("name", ["", "1a", "a-b", "_a"])
    def test_bad_name(self, name):
        with pytest.raises(ValueError, match="bad symbol name"):
            Sym(name)

    def test_four_indices(self):
        with pytest.raises(ValueError, match="too many indices"):
            Sym("a", (1, 2, 3, 4))

    def test_immutable(self):
        with pytest.raises(AttributeError):
            A1.name = "b"
        with pytest.raises(AttributeError):
            A1.indices = (2,)


class TestReduction:
    def test_identity(self):
        assert Word([]) == IDENTITY
        assert not IDENTITY.letters
        assert IDENTITY.is_identity()
        assert not Word([(A1, 1)]).is_identity()

    def test_cancellation(self):
        for letters in ([(X, 1), (X, -1)], [(A1, 1), (A1, -1)]):
            w = Word(letters)
            assert w == IDENTITY
            assert w.is_identity()

    def test_nested_cancellation(self):
        w = Word([(X, 1), (Y, 1), (Y, -1), (X, -1)])
        assert w == IDENTITY
        assert Word([(Y, 1), (X, 1), (Y, 1), (Y, -1), (X, -1)]) == WY

    @given(_letters_strategy(16))
    @settings(max_examples=200)
    def test_constructor_reduces(self, letters):
        w = Word(letters)
        assert w.letters == _stack_reduce(letters)
        assert all(a != (sym, -exp) for a, (sym, exp)
                   in zip(w.letters, w.letters[1:]))

    def test_mul_reduces(self):
        assert WX * ~WX == IDENTITY

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickle_and_copies(self, protocol):
        w = WX * ~Word.from_syms(A1) * WY
        for out in (pickle.loads(pickle.dumps(w, protocol)), copy.copy(w),
                    copy.deepcopy(w)):
            assert out == w and out.letters[1][0] is A1

    def test_pow(self):
        assert WX ** 3 == Word([(X, 1)] * 3)
        assert WX ** -2 == Word([(X, -1)] * 2)
        assert WX ** 0 == IDENTITY

    @given(_random_word_strategy())
    @settings(max_examples=150)
    def test_inverse_cancels(self, w):
        assert w * ~w == IDENTITY
        assert ~w * w == IDENTITY

    @given(_letters_strategy(), _letters_strategy())
    @settings(max_examples=150)
    def test_reduction_is_congruence(self, a, b):
        # reducing factors first never changes the reduced product
        assert Word(a + b) == Word(a) * Word(b)

    @given(_random_word_strategy(), st.integers(0, 12),
           _random_word_strategy(6))
    @settings(max_examples=150)
    def test_product_cancels_long_seam(self, a, k, c):
        # b = ~suffix(a) * c: the product cancels the whole suffix at the seam
        k = min(k, len(a))
        suffix = a.letters[len(a) - k:]
        b = Word([(sym, -exp) for sym, exp in reversed(suffix)] + list(c.letters))
        assert a * b == Word(a.letters + b.letters)
        assert a * b == Word(a.letters[:len(a) - k] + c.letters)

    def test_letters_decode_the_codes(self):
        w = Word([(X, 1), (A1, -1), (Y, 1)])
        assert w.codes == (X.code, A1.code ^ 1, Y.code)
        assert w.letters == ((X, 1), (A1, -1), (Y, 1))
        assert Sym.from_code(A1.code ^ 1) is A1

    def test_pickle_across_processes(self):
        # the child numbers the symbols in another order, so its codes differ
        # from this process's: pickles must carry symbols, not codes
        child = (
            "import pickle, sys\n"
            "from surfbraid.klein import action_table\n"
            "from surfbraid.presentations import Presentation\n"
            "from surfbraid.words import ImageTable, Sym, Word\n"
            "for k in range(5):\n"
            "    Sym('fresh', (k,))\n"
            "z, y, x = Sym('z', (1,)), Sym('y'), Sym('x')\n"
            "w = Word([(x, 1), (y, -1), (z, 1), (x, -1)])\n"
            "out = (w, w.codes, ImageTable({x: w, y: Word()}),\n"
            "       Presentation('P', [z, y, x], [w]), action_table(2))\n"
            "sys.stdout.buffer.write(pickle.dumps(out))\n")
        src = os.path.dirname(os.path.dirname(surfbraid.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", child], env=env,
                             capture_output=True, check=True).stdout
        w, child_codes, table, p, action = pickle.loads(out)
        z = Sym("z", (1,))
        local = Word([(X, 1), (Y, -1), (z, 1), (X, -1)])
        assert w == local and hash(w) == hash(local)
        assert w.codes != child_codes
        assert substitute(WX * WY, table) == local
        assert p.codes(local) == [4, 3, 0, 5]
        here = action_table(2)
        for g in base_generators(2):
            u = Word.from_syms(g)
            for y in fiber_basis(3):
                fiber = Word.from_syms(y)
                for v in (u, ~u):
                    assert (action.apply_base_word(v, fiber)
                            == here.apply_base_word(v, fiber))


class TestCommutators:
    def test_definition(self):
        assert commutator(WX, WY) == Word([(X, 1), (Y, 1), (X, -1), (Y, -1)])

    def test_self_commutator_trivial(self):
        assert commutator(WX, WX) == IDENTITY

    def test_left_normed_two(self):
        assert left_normed([WX, WY]) == commutator(WX, WY)

    def test_left_normed_three(self):
        assert left_normed([WX, WY, WX]) == commutator(WX, commutator(WY, WX))

    def test_left_normed_empty(self):
        with pytest.raises(ValueError):
            left_normed([])

    @given(_random_word_strategy(6))
    @settings(max_examples=80)
    def test_commutator_with_identity(self, w):
        assert commutator(w, IDENTITY) == IDENTITY
        assert commutator(IDENTITY, w) == IDENTITY


class TestColchete:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_universal_identity(self, n):
        assert commutator(WX ** (2 ** n), WY) == colchete_rhs(WX, WY, n)

    @pytest.mark.parametrize("n", [1, 2])
    def test_longer_entries(self, n):
        x = WX * WY
        y = WY * ~WX
        assert commutator(x ** (2 ** n), y) == colchete_rhs(x, y, n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            colchete_rhs(WX, WY, 0)

    @given(_random_word_strategy(4), _random_word_strategy(4))
    @settings(max_examples=60)
    def test_random_pairs_n2(self, x, y):
        assert commutator(x ** 4, y) == colchete_rhs(x, y, 2)


def _reference_substitute(letters, images):
    """Expand every letter into the (Sym, ±1) pairs of its image, then free
    reduce the whole list letter by letter."""
    out = []
    for sym, exp in letters:
        if sym not in images:
            raise UnmappedSymbol(f"no image for symbol {sym}")
        img = images[sym].letters
        out.extend(img if exp == 1 else
                   [(s, -e) for s, e in reversed(img)])
    return _stack_reduce(out)


_IMAGE_SYMS = [X, Y, Sym("z", (1,))]


@st.composite
def _images_strategy(draw):
    """Images of x, y and z[1], identities among them, with at most one
    symbol left unmapped."""
    image = st.one_of(st.just(IDENTITY), _random_word_strategy(6))
    images = {sym: draw(image) for sym in _IMAGE_SYMS}
    unmapped = draw(st.sampled_from([None] + _IMAGE_SYMS))
    if unmapped is not None:
        del images[unmapped]
    return images


class TestAgainstReference:
    @given(_random_word_strategy(16), _images_strategy())
    @settings(max_examples=300)
    def test_substitute(self, w, images):
        try:
            want = _reference_substitute(w.letters, images)
        except UnmappedSymbol as e:
            for table in (images, ImageTable(images)):
                with pytest.raises(UnmappedSymbol) as got:
                    substitute(w, table)
                assert str(got.value) == str(e)
            return
        assert substitute(w, images).letters == want
        assert substitute(w, ImageTable(images)).letters == want

    @given(_random_word_strategy(16), _random_word_strategy(16))
    @settings(max_examples=200)
    def test_product_and_inverse(self, a, b):
        assert (a * b).letters == _stack_reduce(a.letters + b.letters)
        assert (~a).letters == tuple((s, -e) for s, e in reversed(a.letters))


class TestSubstitution:
    def test_seams_keep_memory_small(self):
        # x -> u x u^-1, y -> u y u^-1 with |u| = 50: the images of a long
        # word cancel almost entirely at their seams, so an unreduced
        # expansion would hold about 100 times the reduced output
        letters = [(X if i % 3 else Y, 1 if i % 7 else -1) for i in range(3000)]
        w = Word(letters)
        u = Word([(Sym("z", (1,)), 1), (A1, -1)] * 25)
        images = ImageTable({X: u * WX * ~u, Y: u * WY * ~u})
        want = u * w * ~u
        tracemalloc.start()
        try:
            out = substitute(w, images)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert out == want
        # the output tuple, the list it is built in and its slack
        assert peak < 8 * 8 * len(want), peak

    def test_homomorphism(self):
        images = {X: WY * WY, Y: ~WX}
        w = commutator(WX, WY)
        assert substitute(w, images) == commutator(WY * WY, ~WX)

    def test_unmapped_symbol(self):
        with pytest.raises(UnmappedSymbol):
            substitute(WX, {Y: WY})
        # an identity image before the unmapped letter leaves it named
        w = Word([(X, 1), (Sym("z", (1,)), -1), (Y, 1)])
        with pytest.raises(UnmappedSymbol, match=r"no image for symbol z\[1\]"):
            substitute(w, {X: IDENTITY, Y: WX})

    @given(_random_word_strategy(8), _random_word_strategy(4),
           _random_word_strategy(4))
    @settings(max_examples=80)
    def test_respects_products(self, w, ix, iy):
        images = {X: ix, Y: iy, Sym("z", (1,)): IDENTITY}
        assert substitute(w * w, images) == substitute(w, images) ** 2


def _letterwise(w, table):
    """Reference substitution: one piece per letter, joined at every seam."""
    return words._join(map(table.__getitem__, w.codes))


def _reduced_word(draw, syms, length):
    """A reduced word of exactly `length` letters over `syms`."""
    letter = st.sampled_from([(s, e) for s in syms for e in (1, -1)])
    letters = []
    while len(letters) < length:
        sym, exp = draw(letter)
        if not letters or letters[-1] != (sym, -exp):
            letters.append((sym, exp))
    return Word(letters)


def _reduced_words_by_length(syms, most):
    """Every reduced word over `syms` of each length 0..most."""
    out = [[()]]
    for _ in range(most):
        out.append([w + ((s, e),) for w in out[-1] for s in syms for e in (1, -1)
                    if not w or w[-1] != (s, -e)])
    return [[Word(w) for w in words] for words in out]


# the 1 + 6 + 30 + 150 reduced words of length <= 3 over three letters,
# built once: drawing from them allocates far less than drawing letters
_ATOMS = _reduced_words_by_length([A1, Sym("b", (1,)), Sym("c", (1,))], 3)


@st.composite
def _cancelling_images_strategy(draw):
    """Images of x, y and z[1] as products of two short atoms and their
    inverses: identities, single letters and images that cancel across two
    or more seams (x -> p, y -> p^-1 q, z[1] -> q^-1) all come up."""
    atoms = [draw(st.sampled_from(_ATOMS[draw(st.integers(0, 3))]))
             for _ in range(2)]
    atom = st.tuples(st.sampled_from(atoms), st.sampled_from([1, -1]))
    images = {}
    for sym in _IMAGE_SYMS:
        out = IDENTITY
        for a, e in draw(st.lists(atom, max_size=3)):
            out = out * (a if e == 1 else ~a)
        images[sym] = out
    return images


class TestBlockSubstitution:
    @given(st.data(), _cancelling_images_strategy())
    @settings(max_examples=400)
    def test_matches_letterwise_reference(self, data, images):
        length = data.draw(st.integers(0, 40))
        w = _reduced_word(data.draw, _IMAGE_SYMS, length)
        table = ImageTable(images)
        want = _letterwise(w, table)
        assert substitute(w, table).codes == want
        # a second call reads the blocks the first one stored
        assert substitute(w, table).codes == want

    def test_cascade_across_blocks(self):
        # x y z[1] cancels across two seams, so the blocks x y z[1] and
        # y z[1] x are empty, and a seam can cancel across an empty block
        p = Word([(A1, 1), (Sym("b", (1,)), 1)])
        q, z = Word([(Sym("c", (1,)), 1)]), Sym("z", (1,))
        table = ImageTable({X: p, Y: ~p * q, z: ~q})
        for pattern in ((X, Y, z), (X, X, Y, z), (z, z, Y, X, X, Y)):
            for length in range(0, 41):
                w = Word([(pattern[i % len(pattern)], 1)
                          for i in range(length)])
                assert substitute(w, table).codes == _letterwise(w, table)
        # x x y | z x y | z z: p q, then nothing, then q^-2
        w = Word([(s, 1) for s in (X, X, Y, z, X, Y, z, z)])
        assert substitute(w, table) == p * ~q
        assert table.blocks[(z.code, X.code, Y.code)] == ()

    @pytest.mark.parametrize("where", [0, 1, 2])
    def test_unmapped_symbol_inside_a_block(self, where):
        z = Sym("z", (1,))
        letters = [(X, 1), (Y, -1), (X, 1)]
        letters[where] = (z, -1)
        w = Word([(Y, 1), (X, 1), (Y, 1)] + letters)
        table = ImageTable({X: WY, Y: IDENTITY})
        with pytest.raises(UnmappedSymbol, match=r"no image for symbol z\[1\]"):
            substitute(w, table)
        assert w.codes[3:] not in table.blocks
        assert all(z.code ^ 1 not in block for block in table.blocks)

    @given(st.data(), _cancelling_images_strategy())
    @settings(max_examples=100)
    def test_at_most_one_piece_per_block(self, data, images):
        w = _reduced_word(data.draw, _IMAGE_SYMS,
                          data.draw(st.integers(0, 40)))
        table = ImageTable(images)
        calls = []
        join = words._join

        def counting(pieces):
            pieces = list(pieces)  # fills the block table first
            calls.append(len(pieces))
            return join(pieces)

        words._join = counting
        try:
            substitute(w, table)
        finally:
            words._join = join
        # the last call to return is the outer join of the block images
        assert calls[-1] <= -(-len(w) // 3)

    def test_action_tables_stay_under_the_block_bound(self):
        rng = random.Random("block-bound")
        gens = [c for z in base_generators(5) for c in (z.code, z.code ^ 1)]
        for _ in range(60):
            codes = [rng.choice(gens) for _ in range(rng.randint(6, 12))]
            normal_form(Word._trusted(words._join(zip(codes))), 5)
        filled = 0
        for n in range(1, 5):
            for table in action_table(n).tables.values():
                k = len(table)
                assert len(table.blocks) <= k + k * (k - 1) + k * (k - 1) ** 2
                filled += len(table.blocks)
        assert filled

    @pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
    def test_pickles_carry_no_blocks(self, protocol):
        z = Sym("z", (1,))
        table = ImageTable({X: WY * ~WX, Y: WX * Word.from_syms(z), z: WX})
        w = Word([(X, 1), (Y, 1), (z, -1), (Y, 1), (X, 1)])
        want = substitute(w, table)
        assert table.blocks
        back = pickle.loads(pickle.dumps(table, protocol))
        assert not back.blocks and dict(back) == dict(table)
        assert substitute(w, back) == want
        here = action_table(2)
        fiber = Word.from_syms(*fiber_basis(3)) ** 2
        letters = [Word.from_syms(g) for g in base_generators(2)]
        for u in letters:
            here.apply_base_word(u, fiber)
        action = pickle.loads(pickle.dumps(here, protocol))
        assert all(not t.blocks for t in action.tables.values())
        assert action.tables == here.tables
        for u in letters:
            for v in (u, ~u):
                assert (action.apply_base_word(v, fiber)
                        == here.apply_base_word(v, fiber))


class TestTextFormat:
    def test_parse_simple(self):
        assert parse_word("x*y^-1") == Word([(X, 1), (Y, -1)])

    def test_parse_indices(self):
        assert parse_word("a[1,2]^2") == Word([(Sym("a", (1, 2)), 1)] * 2)

    def test_parse_identity(self):
        assert parse_word("1") == IDENTITY
        assert parse_word("") == IDENTITY
        assert parse_word("x*y*y^-1*x^-1") == IDENTITY

    def test_print_powers(self):
        assert print_word(Word([(X, 1), (X, 1), (Y, -1)])) == "x^2*y^-1"
        assert print_word(IDENTITY) == "1"

    @pytest.mark.parametrize("bad", ["x*", "^2", "x^^2", "x y", "x+y"])
    def test_syntax_errors(self, bad):
        with pytest.raises(WordSyntaxError):
            parse_word(bad)

    @pytest.mark.parametrize("bad, message", [
        ("a[1] b[2]", "expected '*', got 'b[2]'"),
        ("x*y b[ 2 ]", "expected '*', got 'b[ 2 ]'"),
        ("a2 a3", "expected '*', got 'a3'"),
        ("^2", "expected a generator, got '^'"),
        ("x*3", "expected a generator, got '3'")])
    def test_syntax_errors_name_the_token_as_written(self, bad, message):
        with pytest.raises(WordSyntaxError) as exc:
            parse_word(bad)
        assert str(exc.value) == message
        assert "Sym(" not in str(exc.value)

    @pytest.mark.parametrize("text", ["x^1000000000", "x^-100001",
                                      "x^60000*y^-60000"])
    def test_letter_bound(self, text):
        with pytest.raises(WordSyntaxError, match="more than 100000 letters"):
            parse_word(text)

    def test_letter_bound_is_inclusive(self):
        assert len(parse_word("x^50000*y^-50000").letters) == 100_000

    @given(_random_word_strategy())
    @settings(max_examples=200)
    def test_round_trip(self, w):
        text = print_word(w)
        assert parse_word(text) == w
        assert print_word(parse_word(text)) == text
