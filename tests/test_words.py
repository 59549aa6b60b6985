import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

from malkit import words as words_module
from malkit.cosetenum import todd_coxeter
from malkit.smallcancel import RelatorSet
from malkit.stallings import basis, build_and_fold
from malkit.words import (
    EndomorphismSpec,
    Word,
    WordError,
    alphabet,
    apply_endo,
    code_product,
    common_prefix,
    compose_endos,
    conjugate,
    cyclic_reduce,
    decode_letters,
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
    word,
)

AB = alphabet("a b")
ABC = alphabet("a b c")


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


def substitute(images, letters):
    """The product and substitution kernel on letter tuples that the code
    kernel replaced, kept as the reference: spell ``letters`` through
    ``images`` (all freely reduced) and pop what cancels at each join."""
    out = []
    for x in letters:
        img = images[x - 1] if x > 0 else inverse_letters(images[-x - 1])
        j = 0
        while j < len(img) and out and out[-1] == -img[j]:
            out.pop()
            j += 1
        out.extend(img[j:])
    return tuple(out)


REDUCED = st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), max_size=8).map(free_reduce_letters)


def _images_and_letters(images):
    symbols = list(signed_letters(len(images)))
    return st.tuples(st.just(images), st.lists(st.sampled_from(symbols), max_size=12))


class TestSubstitute:
    """The tuple reference agrees with freely reducing the spelled-out
    sequence."""

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
        codes = list(reduced_words(k, n))
        assert all(isinstance(code, str) for code in codes)
        assert [decode_letters(code) for code in codes] == brute


class TestCodeProduct:
    """code_product is the tuple kernel on the code: spelling a letter
    sequence from the codes of the images and of their inverses gives the
    code of the tuple product."""

    @given(st.lists(REDUCED, min_size=1, max_size=4).flatmap(_images_and_letters))
    @example(([(), (1,)], [2, 1, -2, -1, 2]))            # empty images
    @example(([(1, 2, 3), (-3, -2, -1)], [1, 2, 2, 1]))   # a whole image cancels at a join
    @example(([(1, -2), (2, -1)], [1, 2, 1, 1]))          # the product cancels completely
    @example(([(1, 2, 3), (-3, -2)], [1, 2, 1]))          # a partial cancel, then a clean join
    def test_matches_tuple_substitute(self, case):
        images, letters = case
        codes = {}
        for k, img in enumerate(images, 1):
            codes[k] = encode_letters(ABC, img)
            codes[-k] = invert_code(codes[k])
        product = code_product([codes[x] for x in letters])
        assert product == encode_letters(ABC, substitute(images, letters))

    @given(REDUCED)
    def test_inverse_code(self, letters):
        assert invert_code(encode_letters(ABC, letters)) == encode_letters(ABC, inverse_letters(letters))


@st.composite
def _prefix_pairs(draw):
    """Two codes that share a drawn prefix and then go on freely: one may
    be a prefix of the other, or equal to it."""
    unit = st.sampled_from("\x00\x01\x02\x03")
    shared = draw(st.text(unit, max_size=200))
    return shared + draw(st.text(unit, max_size=30)), shared + draw(st.text(unit, max_size=30))


class TestCommonPrefix:
    @given(_prefix_pairs())
    @example(("", ""))
    @example(("\x00" * 7, "\x00" * 7))
    @example(("\x00\x01", "\x00\x01\x02"))
    @example(("\x01", "\x00"))
    def test_matches_letter_loop(self, pair):
        a, b = pair
        k = 0
        while k < min(len(a), len(b)) and a[k] == b[k]:
            k += 1
        assert common_prefix(a, b) == common_prefix(b, a) == k


def _reduced(min_size=0, max_size=40, k=2):
    return st.lists(st.sampled_from(list(signed_letters(k))), min_size=min_size, max_size=max_size).map(
        free_reduce_letters)


@st.composite
def _seam_pairs(draw):
    """(u, v) with v starting with the inverse of a suffix of u longer than
    half of u or of v: seams that cancel whole factors or most of them."""
    u = draw(_reduced(1, 40))
    cut = draw(st.integers(0, len(u)))
    v = free_reduce_letters(inverse_letters(u[cut:]) + draw(_reduced(0, 6)))
    return Word(AB, u), Word(AB, v)


class TestCodeKernel:
    """Products, inversion, powers, substitution and Dehn reduction run on
    the code; each agrees with the tuple reference, and ``letters`` decodes
    the code."""

    @given(_reduced())
    def test_letters_round_trip(self, letters):
        v = Word(AB, letters, reduced=True)
        assert v.letters == letters
        assert decode_letters(v.code) == letters
        assert Word(AB, v.letters) == v
        assert Word.from_code(AB, v.code) == v

    @given(_seam_pairs())
    @example((w("a b a"), w("a^-1 b^-1 a^-1")))      # the product cancels completely
    @example((w("a b a b a"), w("a^-1 b^-1 a^-1 b")))  # a seam longer than half of each factor
    def test_product(self, pair):
        u, v = pair
        assert (u * v).letters == substitute((u.letters, v.letters), (1, 2))
        assert (v * u).letters == substitute((u.letters, v.letters), (2, 1))

    @given(_reduced())
    def test_inverse(self, letters):
        v = Word(AB, letters, reduced=True)
        assert v.inverse().letters == inverse_letters(letters)
        assert v.inverse().inverse() == v

    @given(_reduced(max_size=12), st.integers(-4, 4))
    def test_power(self, letters, n):
        v = Word(AB, letters, reduced=True)
        base = letters if n >= 0 else inverse_letters(letters)
        assert (v ** n).letters == substitute((base,), (1,) * abs(n))

    @given(st.lists(_reduced(max_size=5), min_size=2, max_size=2), _reduced(max_size=30))
    @example([(2, 1), (-1, -2)], (1, 2, 1, 2))          # images that cancel completely
    @example([(1, 2, 1), (-1, -2, 1, 1)], (1, 2, -1))   # joins longer than half an image
    def test_apply_endo(self, images, letters):
        e = EndomorphismSpec(AB, [Word(AB, img, reduced=True) for img in images])
        v = Word(AB, letters, reduced=True)
        assert apply_endo(e, v).letters == substitute(images, letters)

    def test_block_cache_bound(self, monkeypatch):
        # past the cache bound a block's image is computed and not kept
        monkeypatch.setattr(words_module, "_BLOCK_CACHE", 8)
        e = endo(AB, {"a": "b", "b": "b^-1 a^-1"})
        rng = random.Random(2)
        for _ in range(30):
            letters = free_reduce_letters([rng.choice([1, -1, 2, -2]) for _ in range(40)])
            assert apply_endo(e, Word(AB, letters)).letters == substitute([(2,), (-2, -1)], letters)
        assert len(e._blocks) == 8

    def test_cyclic_reduce_and_shift(self):
        v = w("b^-1 a^2 b a^-1 b")
        core, conj = cyclic_reduce(v)
        assert core.letters == (1, 2) and conj.letters == (-1, 2)
        assert conj.inverse() * core * conj == v
        assert not v.is_cyclically_reduced() and core.is_cyclically_reduced()
        assert w("a").is_cyclically_reduced() and w("1").is_cyclically_reduced()

    def test_letter_outside_alphabet(self):
        for bad in ([3], [0], [1, -3]):
            with pytest.raises(WordError, match="outside alphabet of size 2"):
                Word(AB, bad)


class TestLargeAlphabet:
    """Alphabets over 128 generators have code points above one byte; every
    operation on words works on them unchanged."""

    BIG = alphabet([f"g{i}" for i in range(130)])

    def test_operations(self):
        u = Word(self.BIG, (130, 1, -129, 2, 130))
        v = Word(self.BIG, (-130, -2, 129, 5))
        assert (u * v).letters == (130, 1, 5)
        assert u.inverse().letters == (-130, -2, 129, -1, -130)
        assert (u * u.inverse()).letters == ()
        assert (u ** 2).letters == u.letters * 2
        swap = EndomorphismSpec(self.BIG, [Word(self.BIG, (130 - i,)) for i in range(130)])
        assert apply_endo(swap, u).letters == (1, 130, -2, 129, 1)
        assert str(Word(self.BIG, (130, 130, -1))) == "g129^2 g0^-1"

    def test_fold_and_enumerate(self):
        gens = [Word(self.BIG, (130, 130)), Word(self.BIG, (1, 130, -1))]
        graph = build_and_fold(self.BIG, gens)
        assert graph.rank() == 2
        assert graph.contains(Word(self.BIG, (1, 130, 130, -1)))
        assert not graph.contains(Word(self.BIG, (130,)))
        assert [b.letters for b in basis(graph)] == [(1, 130, -1), (130, 130)]
        rels = [Word(self.BIG, (x,) * 2) for x in range(1, 131)]
        rels += [Word(self.BIG, (x, -y)) for x in range(1, 130) for y in (x + 1,)]
        table = todd_coxeter(self.BIG, rels)
        assert table.index == 2
        assert table.image_in_quotient(Word(self.BIG, (130,))) == 2
        assert table.image_in_quotient(Word(self.BIG, (1, 130))) == 1


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
        assert RelatorSet(AB, [w("a^-1 b a"), w("b")]).shift_class_pair == (0, 1)
        assert RelatorSet(AB, [w("a"), w("b"), w("b^-1 a b")]).shift_class_pair == (0, 2)
        assert RelatorSet(AB, [w("a^-1 b a"), w("a")]).shift_class_pair is None

    def test_conjugacy_invariance(self):
        rng = random.Random(13)
        for _ in range(60):
            u = Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 10))])
            g = Word(AB, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(6))])
            if cyclic_reduce(u)[0]:
                v = conjugate(u, g)
                assert RelatorSet(AB, [u]).symmetrised == RelatorSet(AB, [v]).symmetrised
                assert RelatorSet(AB, [u, v]).shift_class_pair == (0, 1)
