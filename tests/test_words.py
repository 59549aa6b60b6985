import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

from malkit.smallcancel import symmetrise
from malkit.words import (
    Word,
    WordError,
    alphabet,
    apply_endo,
    code_product,
    compose_endos,
    conjugate,
    cyclic_reduce,
    encode_letters,
    endo,
    endo_power,
    format_word,
    free_reduce_letters,
    identity_endo,
    inverse_letters,
    invert_code,
    parse_word_list,
    positive_subsemigroup_member,
    proper_power,
    reduced_words,
    signed_letters,
    substitute,
    word,
)

AB = alphabet("a b")


def w(text):
    return word(AB, text)


class TestFreeReduce:
    def test_simple_cancellation(self):
        assert w("a b b^-1 a") == w("a a")

    def test_identity_case(self):
        assert w("a a^-1") == w("1")
        assert len(w("a a^-1")) == 0

    def test_nested_cancellation(self):
        assert w("b b^-1 a^-1 a") == w("1")

    def test_idempotent_and_nonincreasing_random(self):
        rng = random.Random(7)
        for _ in range(200):
            raw = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(12))]
            red = free_reduce_letters(raw)
            assert free_reduce_letters(red) == red
            assert len(red) <= len(raw)
            assert all(red[i] != -red[i + 1] for i in range(len(red) - 1))

    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=30))
    def test_no_cancelling_pair_property(self, raw):
        red = free_reduce_letters(raw)
        assert all(red[i] != -red[i + 1] for i in range(len(red) - 1))


REDUCED = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=8).map(free_reduce_letters)


def _images_and_letters(images):
    symbols = list(signed_letters(len(images)))
    return st.tuples(st.just(images), st.lists(st.sampled_from(symbols), max_size=12))


class TestSubstitute:
    """substitute is the one product and substitution kernel: for reduced
    images it must agree with freely reducing the spelled-out sequence."""

    @given(st.lists(REDUCED, min_size=1, max_size=4).flatmap(_images_and_letters))
    @example(([(), (1,)], [2, 1, -2, -1, 2]))            # empty images
    @example(([(1, 2)], [1, -1, -1, 1]))                  # x followed by x^-1, unreduced input
    @example(([(1, 2, 3), (-3, -2, -1)], [1, 2, 2, 1]))   # a whole image cancels at a join
    @example(([(1, 2, 3), (-3, -2)], [1, 2, 1]))          # a partial cancel, then a clean join
    def test_matches_reduction_of_concatenation(self, case):
        images, letters = case
        spelled = [x for s in letters for x in (images[s - 1] if s > 0 else inverse_letters(images[-s - 1]))]
        assert substitute(images, letters) == free_reduce_letters(spelled)

    def test_products_and_powers(self):
        u, v = w("a b^2 a^-1"), w("a b^-1 a")
        assert substitute((u.letters, v.letters), (1, 2)) == (u * v).letters == w("a b a").letters
        assert (u ** 3).letters == w("a b^6 a^-1").letters
        assert (u ** 0).letters == ()
        assert inverse_letters(u.letters) == u.inverse().letters == w("a b^-2 a^-1").letters

    def test_signed_letter_order(self):
        assert list(signed_letters(3)) == [1, -1, 2, -2, 3, -3]

    @pytest.mark.parametrize("k, n", [(1, 4), (2, 3), (3, 2), (2, 0)])
    def test_reduced_words_brute_force(self, k, n):
        symbols = list(signed_letters(k))
        brute = [t for m in range(1, n + 1) for t in itertools.product(symbols, repeat=m)
                 if free_reduce_letters(t) == t]
        assert list(reduced_words(k, n)) == brute


class TestCodeProduct:
    """code_product is substitute on the byte code: spelling a letter
    sequence from encoded images and their inverse codes gives the code of
    the tuple product."""

    @given(st.lists(REDUCED, min_size=1, max_size=4).flatmap(_images_and_letters))
    @example(([(), (1,)], [2, 1, -2, -1, 2]))            # empty images
    @example(([(1, 2, 3), (-3, -2, -1)], [1, 2, 2, 1]))   # a whole image cancels at a join
    @example(([(1, -2), (2, -1)], [1, 2, 1, 1]))          # the product cancels completely
    @example(([(1, 2, 3), (-3, -2)], [1, 2, 1]))          # a partial cancel, then a clean join
    def test_matches_tuple_substitute(self, case):
        images, letters = case
        codes = {}
        for k, img in enumerate(images, 1):
            codes[k] = encode_letters(img)
            codes[-k] = invert_code(codes[k])
        product = code_product([codes[x] for x in letters])
        assert product == encode_letters(substitute(images, letters))

    @given(REDUCED)
    def test_inverse_code(self, letters):
        assert invert_code(encode_letters(letters)) == encode_letters(inverse_letters(letters))


class TestCyclicReduce:
    def test_single_conjugation_layer(self):
        core, conj = cyclic_reduce(w("b^-1 a b"))
        assert core == w("a") and conj == w("b")

    def test_already_cyclically_reduced(self):
        core, conj = cyclic_reduce(w("a b"))
        assert core == w("a b") and conj == w("1")

    def test_peel_and_check(self):
        v = w("b^-1 a^-1 b a b")
        core, conj = cyclic_reduce(v)
        assert core.is_cyclically_reduced()
        assert conj.inverse() * core * conj == v

    def test_reassembly_random(self):
        rng = random.Random(11)
        for _ in range(100):
            raw = Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(14))])
            core, conj = cyclic_reduce(raw)
            assert conj.inverse() * core * conj == raw
            assert core.is_cyclically_reduced()


class TestProperPower:
    def test_period_two(self):
        assert proper_power(w("a b a b")) == (w("a b"), 2)

    def test_power_of_letter(self):
        assert proper_power(w("a^6")) == (w("a"), 6)

    def test_primitive(self):
        assert proper_power(w("a b")) is None

    def test_empty_errors(self):
        with pytest.raises(WordError):
            proper_power(w("1"))

    def test_core_convention(self):
        # decomposition happens on the cyclic core
        root, e = proper_power(w("b (a b) (a b) b^-1"))
        assert e == 2
        assert root ** e == cyclic_reduce(w("b (a b)^2 b^-1"))[0]

    def test_exponent_maximal(self):
        root, e = proper_power(w("a^12"))
        assert (root, e) == (w("a"), 12)
        for d in range(2, 12):
            if 12 % d == 0:
                assert root ** 12 == (root ** d) ** (12 // d)


PHI = endo(AB, {"a": "b", "b": "b^-1 a^-1"})


class TestEndomorphisms:
    def test_hand_substitution(self):
        assert apply_endo(PHI, w("a b")) == w("a^-1")

    def test_identity(self):
        ident = identity_endo(AB)
        for text in ["a b", "a^6", "b^-1 a b"]:
            assert apply_endo(ident, w(text)) == w(text)

    def test_image_of_power(self):
        assert apply_endo(PHI, w("a^6")) == w("b^6")

    def test_cube_is_identity(self):
        assert endo_power(PHI, 3) == identity_endo(AB)

    def test_first_power(self):
        assert endo_power(PHI, 1) == PHI

    def test_square_by_hand(self):
        assert endo_power(PHI, 2) == endo(AB, {"a": "b^-1 a^-1", "b": "a"})

    def test_distributes_over_concatenation(self):
        rng = random.Random(3)
        for _ in range(50):
            u = Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(8))])
            v = Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(8))])
            assert apply_endo(PHI, u * v) == apply_endo(PHI, u) * apply_endo(PHI, v)

    def test_power_additivity(self):
        for j, k in itertools.product(range(4), repeat=2):
            lhs = endo_power(PHI, j + k)
            rhs = compose_endos(endo_power(PHI, j), endo_power(PHI, k))
            assert lhs == rhs

    def test_letter_outside_domain(self):
        abc = alphabet("a b c")
        with pytest.raises(WordError):
            apply_endo(PHI, word(abc, "c"))


class TestConjugate:
    def test_basic(self):
        assert conjugate(w("a"), w("b")) == w("b^-1 a b")

    def test_identity_conjugator(self):
        assert conjugate(w("a"), w("1")) == w("a")

    def test_cancellation(self):
        assert conjugate(w("a b"), w("a")) == w("b a")


class TestPositiveSubsemigroup:
    GENS = [w("a^2"), w("a^3"), w("b^2"), w("b^3")]

    def test_paper_style_member(self):
        assert positive_subsemigroup_member(w("a^3 b^3"), self.GENS)

    def test_lone_a_not_member(self):
        assert not positive_subsemigroup_member(w("a b^2"), self.GENS)

    def test_a5_member(self):
        assert positive_subsemigroup_member(w("a^5"), self.GENS)

    def test_negative_generator_rejected(self):
        with pytest.raises(WordError):
            positive_subsemigroup_member(w("a"), [w("a^-1")])

    def test_agrees_with_bruteforce(self):
        gens = self.GENS

        def brute(target):
            # enumerate all factorizations up to the target length
            frontier = {()}
            glets = [g.letters for g in gens]
            seen = set()
            stack = [()]
            while stack:
                cur = stack.pop()
                if cur == target:
                    return True
                if len(cur) >= len(target) or cur in seen:
                    continue
                seen.add(cur)
                for g in glets:
                    nxt = cur + g
                    if nxt == target[: len(nxt)]:
                        stack.append(nxt)
            return bool(target == ())

        rng = random.Random(5)
        for _ in range(60):
            tgt = Word(AB, [rng.choice([1, 2]) for _ in range(rng.randrange(1, 13))])
            assert positive_subsemigroup_member(tgt, gens) == brute(tgt.letters)


class TestTextSyntax:
    def test_exponent_forms(self):
        assert word(AB, "a^6") == Word(AB, [1] * 6)
        assert word(AB, "(a b)^6") == Word(AB, [1, 2] * 6)
        assert word(AB, "a b^-1 (a^2 b^-1)^3") == Word(
            AB, [1, -2] + [1, 1, -2] * 3
        )

    def test_empty_word(self):
        assert word(AB, "1") == Word(AB, [])

    def test_unknown_generator(self):
        with pytest.raises(WordError):
            word(AB, "a c")

    def test_unbalanced_parens(self):
        with pytest.raises(WordError):
            word(AB, "(a b")
        with pytest.raises(WordError):
            word(AB, "a b)")

    def test_word_list(self):
        assert parse_word_list(AB, "a^6, b^6, (a b)^6") == [
            w("a^6"),
            w("b^6"),
            w("(a b)^6"),
        ]

    @given(st.lists(st.sampled_from([1, -1, 2, -2]), max_size=25))
    def test_round_trip(self, raw):
        v = Word(AB, raw)
        assert word(AB, format_word(v)) == v

    def test_multichar_names(self):
        big = alphabet("x1 y_two")
        v = word(big, "x1 y_two^-2")
        assert v.letters == (1, -2, -2)
        assert word(big, format_word(v)) == v


class TestCyclicWord:
    """A cyclic word is the shift class of a relator: its cyclic core up to
    rotation and inversion, as RelatorSet records it."""

    def test_sign_order(self):
        # a^-1 b a has the cyclic core b, b^-1 a b the core a
        assert cyclic_reduce(w("a^-1 b a"))[0].letters == (2,)
        assert cyclic_reduce(w("b^-1 a b"))[0].letters == (1,)
        assert symmetrise(AB, [w("a^-1 b a"), w("b")]).shift_class_pair == (0, 1)
        assert symmetrise(AB, [w("a"), w("b"), w("b^-1 a b")]).shift_class_pair == (0, 2)
        assert symmetrise(AB, [w("a^-1 b a"), w("a")]).shift_class_pair is None

    def test_conjugacy_invariance(self):
        rng = random.Random(13)
        for _ in range(60):
            u = Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 10))])
            g = Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(6))])
            if cyclic_reduce(u)[0]:
                v = conjugate(u, g)
                assert symmetrise(AB, [u]).symmetrised == symmetrise(AB, [v]).symmetrised
                assert symmetrise(AB, [u, v]).shift_class_pair == (0, 1)
