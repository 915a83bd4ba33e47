"""Property tests: printing round-trips, and parsing is invariant under the
presentations of an isomorphism class."""

from __future__ import annotations

from collections import Counter

from conftest import database_specs
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ahrank.cones import ReductiveAlgebra
from ahrank.notation import _render_factor, parse, render
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
