"""Property tests: printing round-trips, parsing is invariant under the
presentations of an isomorphism class, the lexer agrees with the
character-by-character reference lexer, and any string of grammar tokens
parses or raises ``ParseError`` inside the text."""

from __future__ import annotations

import string
from collections import Counter

import pytest
from conftest import database_specs, reference_tokenize
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ahrank.cones import ReductiveAlgebra
from ahrank.notation import _MAX_INT_DIGITS, ParseError, _render_factor, _tokenize, parse, render
from ahrank.satake import _COINCIDENCES, RealFormSpec

FORMS = database_specs(8, 8)
#: The images of the coincidences, drawn as often as all other forms together
#: so that most products hold one.
TARGETS = sorted({spec for targets in _COINCIDENCES.values() for spec in targets}, key=str)

products = st.tuples(
    st.lists(st.one_of(st.sampled_from(FORMS), st.sampled_from(TARGETS)), max_size=4),
    st.integers(0, 3),
    st.integers(0, 3),
)


def _text(factors, compact, split) -> str:
    """The expression naming each factor as given, without canonicalizing."""
    parts = [_render_factor(spec) for spec in factors]
    if compact:
        parts.append(f"T^{compact}")
    if split:
        parts.append(f"R^{split}")
    return " x ".join(parts)


@settings(derandomize=True, deadline=None)
@given(products)
def test_parse_invariant_under_presentation(product):
    factors, compact, split = product
    assume(factors or compact or split)
    algebra = ReductiveAlgebra(tuple(factors), compact, split)
    assert parse(_text(factors, compact, split)) == algebra
    assert parse(render(algebra)) == algebra
    for i, spec in enumerate(factors):
        if len(spec.params) == 2:
            swapped = factors[:i] + [RealFormSpec(spec.family, spec.params[::-1])] + factors[i + 1:]
            assert parse(_text(swapped, compact, split)) == algebra
    held = Counter(factors)
    for key, targets in _COINCIDENCES.items():
        if not Counter(targets) - held:
            rest = list((held - Counter(targets)).elements())
            assert parse(_text(rest + [key], compact, split)) == algebra


#: Characters of every token kind, with the Unicode letters, signs and digits
#: the lexer maps, and characters on both sides of its character classes: an
#: Arabic-Indic digit (decimal), a superscript two (a digit but not decimal),
#: an information separator (whitespace) and a zero-width space (not).
_LEXER_ALPHABET = string.ascii_letters + string.digits + "(),^/{}[]+-*_#×−ℝℂℍℤ٣²\x1c\t \u200b"

#: Pieces of alphabet text and digit runs at the integer-length limit, joined
#: and ended by optional whitespace.
lexer_inputs = st.builds(
    lambda parts, tail: "".join(parts) + tail,
    st.lists(
        st.one_of(
            st.text(_LEXER_ALPHABET, max_size=16),
            st.integers(_MAX_INT_DIGITS - 1, _MAX_INT_DIGITS + 1).map(lambda n: "7" * n),
        ),
        max_size=4,
    ),
    st.sampled_from(["", " ", "\t", "\x1c", "  "]),
)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(lexer_inputs)
def test_tokenize_matches_reference_lexer(text):
    try:
        expected = reference_tokenize(text)
    except ParseError as err:
        with pytest.raises(ParseError) as got:
            _tokenize(text)
        assert (got.value.reason, got.value.position) == (err.reason, err.position)
    else:
        assert _tokenize(text) == expected


#: Pieces of the expression grammar: atom names in both cases, separators,
#: quotient suffixes, brackets, signs, a parameter, field letters, form
#: labels, integers, the Unicode letters and signs, and spaces.
_GRAMMAR_TOKENS = [
    "sl", "SL", "su", "SU", "su*", "so", "SO", "so*", "sp", "Sp", "u", "U", "S", "Spin",
    "T", "R", "e", "f", "g", "e6", "e7", "e8", "f4", "g2",
    "x", " x ", "*", "×", "xsu", "/Z_", "/Z_2", "/Z3", "/", "_", "{", "}", "[", "]",
    "(", ")", ",", "^", "+", "-", "−", "k", "2k", "C", "H", "I", "IV", "IX", "split",
    "0", "1", "2", "7", "٣", "ℝ", "ℂ", "ℍ", "ℤ", " ", "\t",
]

grammar_strings = st.lists(st.sampled_from(_GRAMMAR_TOKENS), max_size=14).map("".join)


@settings(derandomize=True, deadline=None, max_examples=500)
@given(grammar_strings, st.sampled_from([None, {"k": 2}, {"k": -1}]))
def test_parse_returns_or_raises_parse_error(text, params):
    try:
        parse(text, params)
    except ParseError as err:
        assert 0 <= err.position <= len(text)
