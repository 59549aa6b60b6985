"""Alphabets, words in free groups, and substitution endomorphisms.

A word is stored as a tuple of nonzero signed integers: letter ``k > 0``
means generator ``k-1``, and ``-k`` means its inverse.  All operations
return freely reduced words.

This module is the one place that knows how reduced letter tuples
combine.  :func:`substitute` is the product and substitution kernel: it
spells a letter sequence through a list of images and freely reduces, and
products of reduced tuples are substitutions into their factors.  Its
precondition is that every image is freely reduced, so letters cancel only
where two images join.  :func:`free_reduce_letters` is for raw input only;
:func:`inverse_letters`, :func:`signed_letters` and :func:`reduced_words`
are the shared inversion, letter order and reduced-word enumeration.

:func:`encode_letters` is the one byte code of signed letters: each letter
becomes its position in :func:`signed_letters` order (1 -> 0, -1 -> 1,
2 -> 2, ...), so a letter's inverse is its code ``^ 1``.  Factor searches
(Dehn scanning, forbidden factors) run as C-speed ``bytes`` searches on it.
One byte per letter bounds it to ``MAX_GENERATORS`` generators.  The byte
code has its own inversion and product, :func:`invert_code` and
:func:`code_product`, so words spelled from encoded images (the t-words of
a family check) are never decoded to tuples.
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

    def __len__(self):
        return len(self.names)

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise WordError(f"unknown generator {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def extend(self, extra: Iterable[str]) -> "Alphabet":
        return Alphabet(self.names + tuple(extra))


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


MAX_GENERATORS = 128
_BYTE_CODE = {x: c for c, x in enumerate(signed_letters(MAX_GENERATORS))}


def encode_letters(letters: Iterable[int]) -> bytes:
    """Signed letters in the byte code (alphabets of at most MAX_GENERATORS)."""
    try:
        return bytes([_BYTE_CODE[x] for x in letters])
    except KeyError as e:
        raise WordError(f"letter {e.args[0]} outside the byte code of {MAX_GENERATORS} generators") from None


_INVERT_CODE = bytes(c ^ 1 for c in range(256))


def invert_code(code: bytes) -> bytes:
    """The byte code of the inverse word: reversed, each code ``^ 1``."""
    return code[::-1].translate(_INVERT_CODE)


def code_product(factors: Iterable[bytes]) -> bytes:
    """The freely reduced product of freely reduced words in the byte code.

    This is :func:`substitute` on the byte code: each factor cancels
    against the end of the product so far while their codes are inverse
    (``out[-1] == f[j] ^ 1``), and the rest of it is appended.  The tuple
    :func:`substitute` stays the general kernel because stallings,
    cosetenum and hnnforge index tables by signed letters, and alphabets
    over ``MAX_GENERATORS`` generators have no byte code."""
    out = bytearray()
    for f in factors:
        j, n, m = 0, len(f), len(out)
        while j < n and j < m and out[m - 1 - j] == f[j] ^ 1:
            j += 1
        del out[m - j:]
        out += f[j:] if j else f
    return bytes(out)


def substitute(images: Sequence[Sequence[int]], letters: Iterable[int]) -> tuple[int, ...]:
    """Spell ``letters`` through ``images`` and freely reduce: letter k+1
    becomes ``images[k]`` and letter -(k+1) its inverse.

    Every image must be freely reduced (``letters`` need not be).  Then
    letters cancel only where two images join, so each join pops the
    cancelling end of the result and appends the rest of the image.  The
    product of reduced tuples u and v is ``substitute((u, v), (1, 2))``."""
    inverses: dict[int, tuple[int, ...]] = {}
    out: list[int] = []
    for x in letters:
        if x > 0:
            img = images[x - 1]
        else:
            img = inverses.get(x)
            if img is None:
                img = inverses[x] = inverse_letters(images[-x - 1])
        j, n = 0, len(img)
        while j < n and out and out[-1] == -img[j]:
            out.pop()
            j += 1
        out.extend(img[j:] if j else img)
    return tuple(out)


def reduced_words(k: int, max_len: int) -> Iterator[tuple[int, ...]]:
    """The nonempty freely reduced words over k symbols of length at most
    ``max_len``, shortest first, each length in :func:`signed_letters`
    order."""
    symbols = tuple(signed_letters(k))
    level: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        level = [t + (s,) for t in level for s in symbols if not t or t[-1] != -s]
        yield from level


class Word:
    """A freely reduced word over an :class:`Alphabet`.

    >>> ab = alphabet("a b")
    >>> w = Word(ab, [1, 2, -2, 1])
    >>> str(w)
    'a a'
    >>> str(w * w.inverse())
    '1'
    """

    __slots__ = ("alphabet", "letters")

    def __init__(self, alpha: Alphabet, letters: Iterable[int], reduced: bool = False):
        self.alphabet = alpha
        lets = tuple(letters) if reduced else free_reduce_letters(letters)
        n = len(alpha)
        for x in lets:
            if x == 0 or abs(x) > n:
                raise WordError(f"letter {x} outside alphabet of size {n}")
        self.letters = lets

    # -- basic protocol ----------------------------------------------------
    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return (
            isinstance(other, Word)
            and self.letters == other.letters
            and self.alphabet == other.alphabet
        )

    def __hash__(self):
        return hash((self.alphabet.names, self.letters))

    def __bool__(self):
        return bool(self.letters)

    def __repr__(self):
        return f"Word({str(self)!r})"

    def __str__(self):
        return format_word(self)

    # -- group operations --------------------------------------------------
    def __mul__(self, other: "Word") -> "Word":
        if other.alphabet != self.alphabet:
            raise WordError("alphabet mismatch")
        return Word(self.alphabet, substitute((self.letters, other.letters), (1, 2)), reduced=True)

    def inverse(self) -> "Word":
        return Word(self.alphabet, inverse_letters(self.letters), reduced=True)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        return Word(self.alphabet, substitute((self.letters,), (1,) * n), reduced=True)

    def is_reduced(self) -> bool:
        return all(self.letters[i] != -self.letters[i + 1] for i in range(len(self.letters) - 1))

    def is_cyclically_reduced(self) -> bool:
        lets = self.letters
        return self.is_reduced() and not (lets and lets[0] == -lets[-1])

    def is_positive(self) -> bool:
        return all(x > 0 for x in self.letters)

    def shift(self, k: int) -> "Word":
        """Cyclic rotation by k positions (left)."""
        lets = self.letters
        if not lets:
            return self
        k %= len(lets)
        return Word(self.alphabet, lets[k:] + lets[:k], reduced=True)


def word(alpha: Alphabet, text: str) -> Word:
    """Parse a word in the standard text syntax over ``alpha``."""
    return Word(alpha, parse_word_letters(alpha, text))


def conjugate(w: Word, g: Word) -> Word:
    """g^-1 w g, freely reduced."""
    return g.inverse() * w * g


def commutator(u: Word, v: Word) -> Word:
    return u.inverse() * v.inverse() * u * v


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split ``w`` as conjugator^-1 * core * conjugator with the core
    cyclically reduced and the conjugator of minimal length."""
    lets = w.letters
    i, j = 0, len(lets)
    while j - i >= 2 and lets[i] == -lets[j - 1]:
        i += 1
        j -= 1
    return Word(w.alphabet, lets[i:j], reduced=True), Word(w.alphabet, lets[j:], reduced=True)


def proper_power(w: Word) -> Optional[tuple[Word, int]]:
    """Maximal-exponent decomposition root^e (e >= 2) of the cyclic core of
    ``w``, or None if the core is not a proper power.

    The test happens on the cyclically reduced core: a word is a proper
    power exactly when its core is, and powers only matter up to conjugacy
    here.
    """
    if not w.letters:
        raise WordError("empty input")
    core, _ = cyclic_reduce(w)
    lets = core.letters
    n = len(lets)
    for d in range(1, n // 2 + 1):
        if n % d:
            continue
        if lets == lets[d:] + lets[:d]:
            return Word(w.alphabet, lets[:d], reduced=True), n // d
    return None


# -- endomorphisms ---------------------------------------------------------

class EndomorphismSpec:
    """A map generator -> word, applied by substitution then reduction."""

    __slots__ = ("domain", "images")

    def __init__(self, domain: Alphabet, images: Sequence[Word]):
        if len(images) != len(domain):
            raise WordError("one image per generator required")
        for im in images:
            if im.alphabet != domain:
                raise WordError("image over a different alphabet")
        self.domain = domain
        self.images = tuple(images)

    def __eq__(self, other):
        return (
            isinstance(other, EndomorphismSpec)
            and self.domain == other.domain
            and self.images == other.images
        )

    def __hash__(self):
        return hash((self.domain.names, tuple(im.letters for im in self.images)))

    def __repr__(self):
        parts = ", ".join(
            f"{n} -> {format_word(im)}" for n, im in zip(self.domain.names, self.images)
        )
        return f"EndomorphismSpec({parts})"

    def __call__(self, w: Word) -> Word:
        return apply_endo(self, w)

    def is_identity(self) -> bool:
        return all(im.letters == (i + 1,) for i, im in enumerate(self.images))


def endo(alpha: Alphabet, mapping: dict[str, str] | Sequence[str]) -> EndomorphismSpec:
    """Convenience builder: images given as word texts, by name or in order."""
    if isinstance(mapping, dict):
        images = [word(alpha, mapping[n]) for n in alpha.names]
    else:
        images = [word(alpha, t) for t in mapping]
    return EndomorphismSpec(alpha, images)


def identity_endo(alpha: Alphabet) -> EndomorphismSpec:
    return EndomorphismSpec(alpha, [Word(alpha, (i + 1,), reduced=True) for i in range(len(alpha))])


def apply_endo(e: EndomorphismSpec, w: Word) -> Word:
    """Substitute each letter by its image (inverting on negative letters)."""
    if w.alphabet != e.domain:
        raise WordError("word not over the endomorphism's domain")
    return Word(e.domain, substitute([im.letters for im in e.images], w.letters), reduced=True)


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
    target = w.letters
    n = len(target)
    if n == 0:
        return False
    gl = [g.letters for g in gens]
    ok = [False] * (n + 1)
    ok[0] = True
    for i in range(1, n + 1):
        for g in gl:
            m = len(g)
            if m <= i and ok[i - m] and target[i - m:i] == g:
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
    lets = w.letters
    if not lets:
        return "1"
    n = len(lets)
    if len(set(lets)) > 1:  # single-letter runs read better as a^n
        for d in range(2, n // 2 + 1):
            if n % d == 0 and lets == lets[:d] * (n // d):
                inner = format_word(Word(w.alphabet, lets[:d], reduced=True))
                return f"({inner})^{n // d}"
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
