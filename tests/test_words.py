import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfbraid.words import (IDENTITY, Sym, UnmappedSymbol, Word,
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


class TestSubstitution:
    def test_homomorphism(self):
        images = {X: WY * WY, Y: ~WX}
        w = commutator(WX, WY)
        assert substitute(w, images) == commutator(WY * WY, ~WX)

    def test_unmapped_symbol(self):
        with pytest.raises(UnmappedSymbol):
            substitute(WX, {Y: WY})

    @given(_random_word_strategy(8), _random_word_strategy(4),
           _random_word_strategy(4))
    @settings(max_examples=80)
    def test_respects_products(self, w, ix, iy):
        images = {X: ix, Y: iy, Sym("z", (1,)): IDENTITY}
        assert substitute(w * w, images) == substitute(w, images) ** 2


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
