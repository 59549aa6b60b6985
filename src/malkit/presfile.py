"""The presentation text format.

Base presentations:

    gens: a b
    rels: a^6, b^6, (a b)^6

HNN files add four sections, all required, and only HNN files may carry
them (order fixed, comments with '#'):

    stable: t
    mgens: x = <word over the base gens>; z = <word>
    assoc: z^2, x, z^-1 x z          # words over the mgens names
    endo: a -> b; b -> b^-1 a^-1     # base automorphism

The mgens section names the ambient free basis; assoc words are spelled
over those names and expand to base words by substitution.  The
associated subgroup is the normal closure of the assoc words in the
subgroup the mgens words generate; a file over a finite padded quotient
lists Schreier generators, which generate it already.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .hnnforge import HatPresentation, HnnError, HnnPresentation, InputPresentation, padded_quotient
from .smallcancel import RelatorSet, SmallCancelError, endo_order_in_quotient
from .stallings import StallingsError
from .words import Alphabet, EndomorphismSpec, Word, WordError, format_word, parse_word_list, word


class PresentationSyntaxError(ValueError):
    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class ParsedPresentation:
    alphabet: Alphabet
    relators: tuple[Word, ...]
    stable: Optional[str] = None
    mgens_alphabet: Optional[Alphabet] = None
    mgen_words: tuple[Word, ...] = ()
    assoc: tuple[Word, ...] = ()          # over the mgens alphabet
    endo_images: tuple[Word, ...] = ()    # over the base alphabet

    @property
    def is_hnn(self) -> bool:
        return self.stable is not None


def parse_presentation(text: str) -> ParsedPresentation:
    sections: dict[str, tuple[str, int]] = {}
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise PresentationSyntaxError(f"expected 'section: content', got {line!r}", no)
        key, content = line.split(":", 1)
        key = key.strip()
        if key in sections:
            raise PresentationSyntaxError(f"duplicate section {key!r}", no)
        sections[key] = (content.strip(), no)

    if "gens" not in sections:
        raise PresentationSyntaxError("missing 'gens:' line", 1)
    gens_text, gens_line = sections.pop("gens")
    try:
        alpha = Alphabet(tuple(gens_text.split()))
    except WordError as e:
        raise PresentationSyntaxError(str(e), gens_line) from None

    def words_of(key, over, default=()):
        if key not in sections:
            return default
        content, no = sections.pop(key)
        try:
            return tuple(parse_word_list(over, content))
        except WordError as e:
            raise PresentationSyntaxError(str(e), no) from None

    relators = words_of("rels", alpha)

    stable = None
    if "stable" in sections:
        stable_text, no = sections.pop("stable")
        if not stable_text or len(stable_text.split()) != 1:
            raise PresentationSyntaxError("stable section must name one letter", no)
        stable = stable_text
        if stable in alpha:
            raise PresentationSyntaxError("stable letter collides with a generator", no)
    else:
        hnn_only = sorted((no, key) for key, (_, no) in sections.items() if key in ("mgens", "assoc", "endo"))
        if hnn_only:
            no, key = hnn_only[0]
            raise PresentationSyntaxError(f"'{key}:' section without a 'stable:' line", no)

    mgens_alpha = None
    mgen_words: tuple[Word, ...] = ()
    if "mgens" in sections:
        content, no = sections.pop("mgens")
        names, values = [], []
        for chunk in content.split(";"):
            if "=" not in chunk:
                raise PresentationSyntaxError("mgens entries look like 'name = word'", no)
            name, value = chunk.split("=", 1)
            name = name.strip()
            if name in alpha or name == stable:
                raise PresentationSyntaxError(f"mgens name {name!r} collides with a generator or the stable letter", no)
            names.append(name)
            try:
                values.append(word(alpha, value))
            except WordError as e:
                raise PresentationSyntaxError(str(e), no) from None
        try:
            mgens_alpha = Alphabet(tuple(names))
        except WordError as e:
            raise PresentationSyntaxError(str(e), no) from None
        mgen_words = tuple(values)

    assoc = words_of("assoc", mgens_alpha or alpha)

    endo_images: tuple[Word, ...] = ()
    if "endo" in sections:
        content, no = sections.pop("endo")
        images = {}
        for chunk in content.split(";"):
            if "->" not in chunk:
                raise PresentationSyntaxError("endo entries look like 'gen -> word'", no)
            name, value = chunk.split("->", 1)
            name = name.strip()
            if name not in alpha:
                raise PresentationSyntaxError(f"unknown generator {name!r}", no)
            try:
                images[name] = word(alpha, value)
            except WordError as e:
                raise PresentationSyntaxError(str(e), no) from None
        missing = [n for n in alpha.names if n not in images]
        if missing:
            raise PresentationSyntaxError(f"endo misses generators {missing}", no)
        endo_images = tuple(images[n] for n in alpha.names)

    if sections:
        key, (_, no) = next(iter(sections.items()))
        raise PresentationSyntaxError(f"unknown section {key!r}", no)
    if stable is not None:
        for key, given in (("mgens", mgen_words), ("assoc", assoc), ("endo", endo_images)):
            if not given:
                raise PresentationSyntaxError(f"HNN file needs an '{key}:' section", 1)
    return ParsedPresentation(
        alpha, relators, stable, mgens_alpha, mgen_words, assoc, endo_images
    )


def format_presentation(parsed: ParsedPresentation) -> str:
    lines = [
        "gens: " + " ".join(parsed.alphabet.names),
        "rels: " + ", ".join(format_word(r) for r in parsed.relators),
    ]
    if parsed.stable is not None:
        lines.append(f"stable: {parsed.stable}")
        if parsed.mgens_alphabet is not None:
            lines.append(
                "mgens: "
                + "; ".join(
                    f"{n} = {format_word(w)}"
                    for n, w in zip(parsed.mgens_alphabet.names, parsed.mgen_words)
                )
            )
        lines.append("assoc: " + ", ".join(format_word(u) for u in parsed.assoc))
        if parsed.endo_images:
            lines.append(
                "endo: "
                + "; ".join(
                    f"{n} -> {format_word(im)}"
                    for n, im in zip(parsed.alphabet.names, parsed.endo_images)
                )
            )
    return "\n".join(lines) + "\n"


def hnn_to_parsed(hnn) -> ParsedPresentation:
    """Flatten a built HNN presentation into the file form: mgens carry the
    hat generator names with their concrete words, assoc stays abstract."""
    return ParsedPresentation(
        alphabet=hnn.base_alphabet,
        relators=tuple(hnn.base_relators),
        stable=hnn.stable,
        mgens_alphabet=hnn.hat_alphabet,
        mgen_words=hnn.m_gens,
        assoc=hnn.assoc_abstract,
        endo_images=tuple(hnn.phi.images),
    )


def parsed_to_hnn(parsed: ParsedPresentation):
    """Rebuild a working HNN presentation from a file.

    The padded quotient is the group presented by the mgens names with the
    assoc words as relators, since their normal closure is its kernel; it
    gets a coset table as in :func:`~malkit.hnnforge.build_tp`."""
    if not parsed.is_hnn:
        raise HnnError("not an HNN file")
    base_alpha = parsed.alphabet
    hat_alpha = parsed.mgens_alphabet
    phi = EndomorphismSpec(base_alpha, list(parsed.endo_images))
    rs = RelatorSet(base_alpha, parsed.relators)
    try:
        order = endo_order_in_quotient(rs, phi, 6)
    except SmallCancelError as e:  # relators Dehn's algorithm cannot use, or an endo that breaks one
        raise HnnError(f"base relators and endo section: {e}") from None
    if order is None:
        raise HnnError("endo section does not define a finite-order automorphism")
    hat = HatPresentation(InputPresentation(hat_alpha, tuple(parsed.assoc)), padding=())
    hnn = HnnPresentation(
        base_alphabet=base_alpha,
        base_relators=tuple(parsed.relators),
        stable=parsed.stable,
        phi=phi,
        phi_order=order,
        hat=hat,
        m_gens=tuple(parsed.mgen_words),
        assoc_abstract=tuple(parsed.assoc),
        table=padded_quotient(hat.presentation),
    )
    try:  # membership rewrites over the mgens words, which must be a free basis
        hnn.rewriter
    except StallingsError as e:
        raise HnnError(f"mgens: {e}") from None
    return hnn
