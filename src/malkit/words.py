"""Alphabets, words in free groups, and substitution endomorphisms.

A word stores its letter code: a ``str`` with one code point per signed
letter.  Letter ``k > 0`` means generator ``k-1`` and ``-k`` its inverse;
the code of a letter is its position in :func:`signed_letters` order
(1 -> 0, -1 -> 1, 2 -> 2, ...), so the inverse of a code unit ``c`` is
``c ^ 1``.  CPython stores a code over at most 128 generators at one byte
per letter, and ``find``, ``endswith``, slicing, ``join`` and ``translate``
work on code points, so larger alphabets need no second form.

This module is the one place that encodes letters.  :func:`encode_letters`
builds and validates the code once, where a word is built from letters;
every operation on words works on the code and builds its result with
:meth:`Word.from_code`, which trusts it.  ``Word.letters`` is a decoded view
(:func:`decode_letters`).  :func:`code_product` is the one product and
substitution kernel: it multiplies freely reduced codes, and a
substitution is the product of the images of a word's letters.  At each
join it finds how many letters cancel by bisection on ``endswith``.
:func:`invert_code` is the inversion, and :func:`common_prefix` the
common prefix of two codes.  :func:`reduced_words` is the one
reduced-word enumerator, on codes.  :func:`free_reduce_letters` is for raw
input only; :func:`inverse_letters` and :func:`signed_letters` are the
shared inversion and letter order of letter tuples.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

_NAME_RE = re.compile(r"[a-z][a-zA-Z0-9_]*$")


class WordError(ValueError):
    """Raised for malformed words, alphabets, or endomorphisms."""


@dataclass(frozen=True)
class Alphabet:
    """An ordered list of distinct generator names."""

    names: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise WordError("generator names must be pairwise distinct")
        for n in self.names:
            if not _NAME_RE.match(n):
                raise WordError(f"bad generator name {n!r}")
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(self.names)})
        # signed letter -> its code unit, for encode_letters
        units = {x: chr(c) for c, x in enumerate(signed_letters(len(self.names)))}
        object.__setattr__(self, "_unit", units)

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise WordError(f"unknown generator {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index


def alphabet(spec: str | Sequence[str]) -> Alphabet:
    """Build an Alphabet from a space-separated string or a name sequence."""
    if isinstance(spec, str):
        names = tuple(spec.split())
    else:
        names = tuple(spec)
    return Alphabet(names)


def free_reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a signed-letter sequence (stack cancellation)."""
    out: list[int] = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def inverse_letters(letters: Sequence[int]) -> tuple[int, ...]:
    """The inverse of a letter tuple: reversed, each letter inverted."""
    return tuple(-x for x in reversed(letters))


def signed_letters(n: int) -> Iterator[int]:
    """The signed letters over n generators in the order 1, -1, 2, -2, ..."""
    for i in range(1, n + 1):
        yield i
        yield -i


# -- the letter code -----------------------------------------------------------
#
# A code unit is one character of a code.  The tables below are keyed by
# code point, not by alphabet: a code has no alphabet, and a code over the
# symbols of a basis can use more code points than any alphabet made so
# far.

class _Table(dict):
    """A table that fills an entry on first use, from a function of its key."""

    def __init__(self, entry):
        super().__init__()
        self._entry = entry

    def __missing__(self, key):
        value = self[key] = self._entry(key)
        return value


# code unit -> signed letter, and back
UNIT_LETTER = _Table(lambda u: -(ord(u) >> 1) - 1 if ord(u) & 1 else (ord(u) >> 1) + 1)
LETTER_UNIT = _Table(lambda x: chr(2 * x - 2 if x > 0 else -2 * x - 1))
# code unit -> the unit of the inverse letter
UNIT_INVERSE = _Table(lambda u: chr(ord(u) ^ 1))
# code point -> the inverse code point: the str.translate table of invert_code
_INVERSE = _Table(lambda c: c ^ 1)


def encode_letters(alpha: Alphabet, letters: Iterable[int]) -> str:
    """The code of signed letters over ``alpha``; a letter outside the
    alphabet raises :class:`WordError`.  The letters are not reduced."""
    try:
        return "".join(map(alpha._unit.__getitem__, letters))
    except KeyError as e:
        raise WordError(f"letter {e.args[0]} outside alphabet of size {len(alpha)}") from None


def decode_letters(code: str) -> tuple[int, ...]:
    """The signed letters of a code."""
    return tuple(map(UNIT_LETTER.__getitem__, code))


def invert_code(code: str) -> str:
    """The code of the inverse word: reversed, each code point ``^ 1``."""
    return code[::-1].translate(_INVERSE)


def _cancellation(a: str, b: str, j: int) -> int:
    """How many letters cancel in the product of ``a`` and ``b[j:]``, given
    that at least the first does: the largest k with ``a`` ending in the
    inverse of ``b[j:j+k]``.  That property holds for every smaller k, so
    k is found by bisection on ``endswith``."""
    m = min(len(a), len(b) - j)
    if m == 1 or a[-2] != UNIT_INVERSE[b[j + 1]]:
        return 1
    inv = invert_code(b[j:j + m])  # a ends with inv[m - k:] for every k up to the answer
    lo, hi = 2, m
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if a.endswith(inv[m - mid:]):
            lo = mid
        else:
            hi = mid - 1
    return lo


def common_prefix(a: str, b: str) -> int:
    """The length of the longest common prefix of two codes.  Every shorter
    prefix is common too, so the length is found by bisection on slice
    equality, as :func:`_cancellation` finds a cancellation."""
    lo, hi = 0, min(len(a), len(b))  # a[:lo] == b[:lo], and the answer is at most hi
    while lo < hi:
        mid = (lo + hi + 1) >> 1
        if a[lo:mid] == b[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def images_by_unit(codes: Sequence[str]) -> dict[str, str]:
    """The images of a substitution by code unit: generator k goes to
    ``codes[k]`` and its inverse to the inverse code.  The substituted code
    of a word ``w`` is ``code_product(map(images.__getitem__, w))``."""
    images = {}
    for k, code in enumerate(codes):
        images[chr(2 * k)] = code
        images[chr(2 * k + 1)] = invert_code(code)
    return images


def code_product(factors: Iterable[str]) -> str:
    """The freely reduced product of freely reduced codes.

    The product so far is a list of pieces.  Where a factor's first letter
    cancels against the last piece, :func:`_cancellation` finds how far
    the cancellation runs; it may eat whole pieces before the rest of the
    factor is appended."""
    out: list[str] = []
    inverse = UNIT_INVERSE
    for f in factors:
        if not f:
            continue
        if out and out[-1][-1] == inverse[f[0]]:
            j, n = 0, len(f)
            while True:
                last = out.pop()
                k = _cancellation(last, f, j)
                j += k
                if k < len(last):
                    out.append(last[:-k])
                    break
                if j == n or not out or out[-1][-1] != inverse[f[j]]:
                    break
            if j < n:
                out.append(f[j:])
        else:
            out.append(f)
    return "".join(out)


def reduced_words(k: int, max_len: int) -> Iterator[str]:
    """The codes of the nonempty freely reduced words over k symbols of
    length at most ``max_len``, shortest first, each length in
    :func:`signed_letters` order."""
    units = [chr(c) for c in range(2 * k)]
    level = [""]
    for _ in range(max_len):
        level = [w + u for w in level for u in units if not w or w[-1] != UNIT_INVERSE[u]]
        yield from level


class Word:
    """A freely reduced word over an :class:`Alphabet`, stored as its code.

    >>> ab = alphabet("a b")
    >>> w = Word(ab, [1, 2, -2, 1])
    >>> str(w)
    'a a'
    >>> str(w * w.inverse())
    '1'
    """

    __slots__ = ("alphabet", "code")

    def __init__(self, alpha: Alphabet, letters: Iterable[int], reduced: bool = False):
        self.alphabet = alpha
        self.code = encode_letters(alpha, letters if reduced else free_reduce_letters(letters))

    @classmethod
    def from_code(cls, alpha: Alphabet, code: str) -> "Word":
        """The word with the given code, trusted: it must be a freely
        reduced code over ``alpha``, such as one computed from the codes of
        words over ``alpha``.  Nothing is checked."""
        w = object.__new__(cls)
        w.alphabet = alpha
        w.code = code
        return w

    @property
    def letters(self) -> tuple[int, ...]:
        """The signed letters, decoded from the code."""
        return decode_letters(self.code)

    # -- basic protocol ----------------------------------------------------
    def __len__(self):
        return len(self.code)

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.code == other.code
            and self.alphabet == other.alphabet
        )

    def __hash__(self):
        return hash((self.alphabet.names, self.code))

    def __bool__(self):
        return bool(self.code)

    def __repr__(self):
        return f"Word({str(self)!r})"

    def __str__(self):
        return format_word(self)

    # -- group operations --------------------------------------------------
    def __mul__(self, other: "Word") -> "Word":
        if other.alphabet != self.alphabet:
            raise WordError("alphabet mismatch")
        return Word.from_code(self.alphabet, code_product((self.code, other.code)))

    def inverse(self) -> "Word":
        return Word.from_code(self.alphabet, invert_code(self.code))

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        # w = c^-1 m c with m cyclically reduced, so w^n = c^-1 m^n c
        code = self.code
        i, j = core_bounds(code)
        return Word.from_code(self.alphabet, code[:i] + code[i:j] * n + code[j:] if n else "")

    def is_cyclically_reduced(self) -> bool:
        """A word is freely reduced by construction, so only its end letters
        can cancel."""
        code = self.code
        return not code or code[0] != UNIT_INVERSE[code[-1]]

    def is_positive(self) -> bool:
        return all(c & 1 == 0 for c in map(ord, self.code))


def word(alpha: Alphabet, text: str) -> Word:
    """Parse a word in the standard text syntax over ``alpha``."""
    return Word(alpha, parse_word_letters(alpha, text), reduced=True)


def conjugate(w: Word, g: Word) -> Word:
    """g^-1 w g, freely reduced."""
    return g.inverse() * w * g


def core_bounds(code: str) -> tuple[int, int]:
    """(i, j) with ``code[i:j]`` the cyclic core of a freely reduced code
    and ``code[:i]`` the inverse of ``code[j:]``: i is the length of the
    common prefix of the code and its inverse, which a freely reduced code
    ends before its middle."""
    i = common_prefix(code, invert_code(code))
    return i, len(code) - i


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split ``w`` as conjugator^-1 * core * conjugator with the core
    cyclically reduced and the conjugator of minimal length."""
    code = w.code
    i, j = core_bounds(code)
    return Word.from_code(w.alphabet, code[i:j]), Word.from_code(w.alphabet, code[j:])


def proper_power(w: Word) -> Optional[tuple[Word, int]]:
    """Maximal-exponent decomposition root^e (e >= 2) of the cyclic core of
    ``w``, or None if the core is not a proper power.

    The test happens on the cyclically reduced core: a word is a proper
    power exactly when its core is, and powers only matter up to conjugacy
    here.
    """
    if not w.code:
        raise WordError("empty input")
    i, j = core_bounds(w.code)
    core = w.code[i:j]
    n = len(core)
    for d in range(1, n // 2 + 1):
        if n % d:
            continue
        if core == core[d:] + core[:d]:
            return Word.from_code(w.alphabet, core[:d]), n // d
    return None


# -- endomorphisms ---------------------------------------------------------

class _BlockImages(dict):
    """Reduced code -> the code of its image, seeded with the images of
    both signs of every generator; the image of a longer block is the
    product of its letters' images, kept up to ``_BLOCK_CACHE`` blocks."""

    def __missing__(self, block: str) -> str:
        if len(block) == 1:
            raise WordError(f"code unit {ord(block)} outside the endomorphism's domain")
        image = code_product(map(self.__getitem__, block))
        if len(self) < _BLOCK_CACHE:
            self[block] = image
        return image


# apply_endo substitutes blocks of this many letters, so the product kernel
# joins a sixth as many factors.  A two-generator alphabet has 972 reduced
# blocks of this length, all of which fit in the cache.
_BLOCK = 6
_BLOCK_CACHE = 4096


class EndomorphismSpec:
    """A map generator -> word, applied by substitution then reduction.

    ``images`` are the image words in generator order; the codes of the
    images of blocks of letters are kept by block for substitution."""

    __slots__ = ("domain", "images", "_blocks")

    def __init__(self, domain: Alphabet, images: Sequence[Word]):
        if len(images) != len(domain):
            raise WordError("one image per generator required")
        for im in images:
            if im.alphabet != domain:
                raise WordError("image over a different alphabet")
        self.domain = domain
        self.images = tuple(images)
        self._blocks = _BlockImages(images_by_unit([im.code for im in self.images]))

    def __eq__(self, other):
        return (
            isinstance(other, EndomorphismSpec)
            and self.domain == other.domain
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.domain.names, tuple(im.code for im in self.images)))

    def __repr__(self):
        parts = ", ".join(
            f"{n} -> {format_word(im)}" for n, im in zip(self.domain.names, self.images)
        )
        return f"EndomorphismSpec({parts})"

    def __call__(self, w: Word) -> Word:
        return apply_endo(self, w)

    def is_identity(self) -> bool:
        return all(im.code == chr(2 * i) for i, im in enumerate(self.images))


def endo(alpha: Alphabet, mapping: dict[str, str] | Sequence[str]) -> EndomorphismSpec:
    """Convenience builder: images given as word texts, by name or in order."""
    if isinstance(mapping, dict):
        images = [word(alpha, mapping[n]) for n in alpha.names]
    else:
        images = [word(alpha, t) for t in mapping]
    return EndomorphismSpec(alpha, images)


def identity_endo(alpha: Alphabet) -> EndomorphismSpec:
    return EndomorphismSpec(alpha, [Word.from_code(alpha, chr(2 * i)) for i in range(len(alpha))])


def apply_endo(e: EndomorphismSpec, w: Word) -> Word:
    """Substitute each letter by its image (inverting on negative letters):
    the product of the images of the word's blocks of ``_BLOCK`` letters."""
    if w.alphabet != e.domain:
        raise WordError("word not over the endomorphism's domain")
    code = w.code
    blocks = [code[i:i + _BLOCK] for i in range(0, len(code), _BLOCK)]
    return Word.from_code(e.domain, code_product(map(e._blocks.__getitem__, blocks)))


def compose_endos(outer: EndomorphismSpec, inner: EndomorphismSpec) -> EndomorphismSpec:
    """outer after inner, as a new spec (images substituted and reduced)."""
    if outer.domain != inner.domain:
        raise WordError("alphabet mismatch")
    return EndomorphismSpec(outer.domain, [apply_endo(outer, im) for im in inner.images])


def endo_power(e: EndomorphismSpec, k: int) -> EndomorphismSpec:
    """k-fold composition of ``e`` with itself (k >= 0)."""
    if k < 0:
        raise WordError("negative powers of an endomorphism are not defined here")
    result = identity_endo(e.domain)
    for _ in range(k):
        result = compose_endos(e, result)
    return result


# -- positive subsemigroup membership ---------------------------------------

def positive_subsemigroup_member(w: Word, gens: Sequence[Word]) -> bool:
    """Is ``w`` a nonempty concatenation of the positive words ``gens``?

    Since the generators are positive no cancellation can occur, so this is
    string factorization, solved by dynamic programming over prefixes.
    """
    for g in gens:
        if not g.is_positive() or not g:
            raise WordError("positive generators required")
    target = w.code
    n = len(target)
    if n == 0:
        return False
    gl = [g.code for g in gens]
    ok = [False] * (n + 1)
    ok[0] = True
    for i in range(1, n + 1):
        for g in gl:
            m = len(g)
            if m <= i and ok[i - m] and target.startswith(g, i - m):
                ok[i] = True
                break
    return ok[n]


# -- text syntax -------------------------------------------------------------
#
# Words are whitespace-separated letters with optional integer exponents and
# parentheses: ``a^6``, ``(a b)^6``, ``a b^-1 (a^2 b^-1)^3``.  An exponent
# binds to the preceding letter or parenthesized group.  The empty word is
# spelled ``1``.

_TOKEN_RE = re.compile(r"\s*([a-z][a-zA-Z0-9_]*|\(|\)|\^|-?\d+|1)")


class WordSyntaxError(WordError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise WordSyntaxError(f"unexpected character {text[pos:].lstrip()[0]!r}", pos)
        tokens.append((m.group(1), m.start(1)))
        pos = m.end()
    return tokens


def parse_word_letters(alpha: Alphabet, text: str) -> tuple[int, ...]:
    tokens = _tokenize(text)
    out: list[int] = []
    stack: list[int] = []  # indices into out where open groups start

    def read_exponent(i):
        if i < len(tokens) and tokens[i][0] == "^":
            if i + 1 >= len(tokens):
                raise WordSyntaxError("missing exponent after '^'", tokens[i][1])
            tok, p = tokens[i + 1]
            try:
                return int(tok), i + 2
            except ValueError:
                raise WordSyntaxError(f"malformed exponent {tok!r}", p) from None
        return None, i

    i = 0
    while i < len(tokens):
        tok, p = tokens[i]
        if tok == "(":
            stack.append(len(out))
            i += 1
        elif tok == ")":
            if not stack:
                raise WordSyntaxError("unbalanced ')'", p)
            start = stack.pop()
            exp, i = read_exponent(i + 1)
            if exp is not None:
                seg = out[start:]
                del out[start:]
                if exp < 0:
                    seg = inverse_letters(seg)
                    exp = -exp
                out.extend(seg * exp)
        elif tok == "^":
            raise WordSyntaxError("'^' must follow a letter or group", p)
        elif tok == "1":
            i += 1  # empty word marker
        elif re.match(r"-?\d", tok):
            raise WordSyntaxError(f"unexpected number {tok!r}", p)
        else:
            if tok not in alpha:
                raise WordSyntaxError(f"unknown generator {tok!r}", p)
            letter = alpha.index(tok) + 1
            exp, i = read_exponent(i + 1)
            if exp is None:
                exp = 1
            if exp < 0:
                out.extend([-letter] * (-exp))
            else:
                out.extend([letter] * exp)
    if stack:
        raise WordSyntaxError("unbalanced '('", len(text))
    return free_reduce_letters(out)


def format_word(w: Word) -> str:
    """Render a word in the text syntax: letter runs get exponents, and a
    word that is a whole-word power prints as a parenthesized group."""
    code = w.code
    if not code:
        return "1"
    n = len(code)
    if len(set(code)) > 1:  # single-letter runs read better as a^n
        for d in range(2, n // 2 + 1):
            if n % d == 0 and code == code[:d] * (n // d):
                inner = format_word(Word.from_code(w.alphabet, code[:d]))
                return f"({inner})^{n // d}"
    lets = w.letters
    parts = []
    run_letter, run_len = lets[0], 1
    for x in lets[1:]:
        if x == run_letter:
            run_len += 1
        else:
            parts.append(_fmt_run(w.alphabet, run_letter, run_len))
            run_letter, run_len = x, 1
    parts.append(_fmt_run(w.alphabet, run_letter, run_len))
    return " ".join(parts)


def _fmt_run(alpha: Alphabet, letter: int, count: int) -> str:
    name = alpha.names[abs(letter) - 1]
    exp = count if letter > 0 else -count
    return name if exp == 1 else f"{name}^{exp}"


def parse_word_list(alpha: Alphabet, text: str) -> list[Word]:
    """Parse a comma-separated list of words."""
    text = text.strip()
    if not text:
        return []
    return [word(alpha, chunk) for chunk in text.split(",")]
