"""parse_poly and parse_quadint against frozen reference copies of their
two-pass forms.

`reference_parse_poly` is `parse_poly` as it was before it read the terms in
one pass: a `re.findall` split into signed tokens, then one regex match per
token. On every drawn text, well formed or not, both must give the same
polynomial or raise the same exception class with the same message, except
that the reference lets Python's int-string digit limit escape as a plain
ValueError where parse_poly raises ParseError with its message.

`reference_parse_quadint` is `parse_quadint` in the same two-pass form. It
already reported the digit limit as a ParseError, so on every drawn text the
two must give the same QuadInt or the same exception class and message.
"""
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smyth.algebra import MAX_PARSE_DEGREE, FieldParams, Poly, parse_poly
from smyth.errors import ParseError
from smyth.quadratic import QuadField, QuadInt, parse_quadint

_REF_TERM_RE = re.compile(r"^(?:(\d+)\*?)?(t(?:\^(\d+))?)?$")


def reference_parse_poly(field, text):
    if not isinstance(text, str):
        raise ParseError(f"polynomial text must be a string, not {type(text).__name__}")
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty polynomial text")
    tokens = re.findall(r"[+-]?[^+-]+", s)
    if "".join(tokens) != s:
        raise ParseError(f"malformed polynomial text: {text!r}")
    coeffs = {}
    for tok in tokens:
        sign = 1
        body = tok
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = _REF_TERM_RE.match(body)
        if not m or not body:
            raise ParseError(f"bad term {tok!r} in {text!r}")
        cstr, tpart, estr = m.group(1), m.group(2), m.group(3)
        if cstr is None and tpart is None:
            raise ParseError(f"bad term {tok!r} in {text!r}")
        c = int(cstr) if cstr is not None else 1
        k = 0 if tpart is None else (int(estr) if estr is not None else 1)
        if k > MAX_PARSE_DEGREE:
            raise ParseError(f"degree {k} in {text!r} exceeds the cap {MAX_PARSE_DEGREE}")
        coeffs[k] = (coeffs.get(k, 0) + sign * c) % field.q
    if not coeffs:
        return field.zero
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    while out and out[-1] == 0:
        out.pop()
    return Poly(field, tuple(out))


def outcome(field, text):
    try:
        return "ok", parse_poly(field, text)
    except ValueError as err:
        return type(err).__name__, str(err)


def reference_outcome(field, text):
    try:
        return "ok", reference_parse_poly(field, text)
    except ValueError as err:
        # the one intended divergence: parse_poly reports the int-string
        # digit limit, a plain ValueError here, as a ParseError
        return "ParseError" if type(err) is ValueError else type(err).__name__, str(err)


FIELDS = st.sampled_from([FieldParams(2), FieldParams(3), FieldParams(2 ** 61 - 1)])

# digits (one of them not ASCII), the term syntax, spaces, a newline and a
# letter that is no variable
CHARS = st.sampled_from(list("0123456789t^*+- \nx") + ["٣"])


@st.composite
def term_texts(draw):
    """Sums of terms such as 3*t^2, with signs, spaces, a cap-sized exponent
    and a stray character drawn in now and then."""
    parts = []
    for i in range(draw(st.integers(1, 6))):
        sign = draw(st.sampled_from(["", "+", "-", "--", "+-"] if i == 0 else
                                    ["+", "-", "+", "-", "++", "", "+-"]))
        coeff = draw(st.sampled_from(["", "0", "1", "2", "17", str(2 ** 64)]))
        star = draw(st.sampled_from(["", "*", "*", "**"])) if coeff else ""
        var = draw(st.sampled_from(["", "t", "t", "t^", "t^0", "t^3", "t^12",
                                    f"t^{MAX_PARSE_DEGREE}", f"t^{MAX_PARSE_DEGREE + 1}"]))
        tail = draw(st.sampled_from(["", "", "", " ", "\n", "\n\n", "x"]))
        parts.append(sign + coeff + star + var + tail)
    return "".join(parts)


class TestParsePolyMatchesReference:
    @given(FIELDS, term_texts())
    @settings(max_examples=300, deadline=None)
    @example(FieldParams(2), "1\n+t\n")
    @example(FieldParams(2), "t+\n")
    @example(FieldParams(2), "t^99999+t++")
    @example(FieldParams(2), "2t3")
    @example(FieldParams(3), "2*")
    @example(FieldParams(3), "-٣*t")
    @example(FieldParams(3), "1" * 5000 + "+t")
    @example(FieldParams(3), "t^" + "1" * 5000)
    @example(FieldParams(3), "1" * 5000 + "+t+")
    def test_drawn_terms(self, field, text):
        assert outcome(field, text) == reference_outcome(field, text)

    @given(FIELDS, st.text(CHARS, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_drawn_characters(self, field, text):
        assert outcome(field, text) == reference_outcome(field, text)

    @pytest.mark.parametrize("value", [None, 3, b"t+1", ["t"]])
    def test_non_text(self, value):
        field = FieldParams(2)
        assert outcome(field, value) == reference_outcome(field, value)


_REF_QTERM_RE = re.compile(r"^(?:(-?\d+)\*?)?(w)?$")


def reference_parse_quadint(field, text):
    if not isinstance(text, str):
        raise ParseError(f"quadratic integer text must be a string, not {type(text).__name__}")
    s = text.replace(" ", "")
    if not s:
        raise ParseError("empty quadratic integer text")
    tokens = re.findall(r"[+-]?[^+-]+", s)
    if "".join(tokens) != s:
        raise ParseError(f"malformed quadratic integer text: {text!r}")
    x = y = 0
    for tok in tokens:
        sign = 1
        body = tok
        if body[0] in "+-":
            sign = -1 if body[0] == "-" else 1
            body = body[1:]
        m = _REF_QTERM_RE.match(body)
        if not m or not body:
            raise ParseError(f"bad term {tok!r} in {text!r}")
        cstr, wpart = m.group(1), m.group(2)
        if cstr is None and wpart is None:
            raise ParseError(f"bad term {tok!r} in {text!r}")
        try:
            c = sign * (int(cstr) if cstr is not None else 1)
        except ValueError as err:  # an int of too many digits
            raise ParseError(str(err)) from None
        if wpart:
            y += c
        else:
            x += c
    return QuadInt(field, x, y)


def quadint_outcome(parse, field, text):
    try:
        return "ok", parse(field, text)
    except ValueError as err:
        return type(err).__name__, str(err)


QUAD_FIELDS = st.sampled_from([QuadField(-1), QuadField(5)])

# the characters of both variables' term syntax, spaces, a newline, a letter
# that is no variable and a digit that is not ASCII
QUAD_CHARS = st.sampled_from(list("0123456789wt^*+- \nx") + ["٣"])


@st.composite
def quad_term_texts(draw):
    """Sums of terms such as -3*w, with signs, spaces, newlines and a stray
    exponent or character drawn in now and then."""
    parts = []
    for i in range(draw(st.integers(1, 4))):
        sign = draw(st.sampled_from(["", "+", "-", "--"] if i == 0 else ["+", "-", "-", "++", ""]))
        coeff = draw(st.sampled_from(["", "0", "1", "7", "-2", str(2 ** 64)]))
        star = draw(st.sampled_from(["", "*", "*", "**"])) if coeff else ""
        var = draw(st.sampled_from(["", "w", "w", "w^1", "t"]))
        tail = draw(st.sampled_from(["", "", " ", "\n", "\n\n", "x"]))
        parts.append(sign + coeff + star + var + tail)
    return "".join(parts)


class TestParseQuadintMatchesReference:
    @given(QUAD_FIELDS, quad_term_texts())
    @settings(max_examples=300, deadline=None)
    def test_drawn_terms(self, field, text):
        assert (quadint_outcome(parse_quadint, field, text)
                == quadint_outcome(reference_parse_quadint, field, text))

    @given(QUAD_FIELDS, st.text(QUAD_CHARS, max_size=12))
    @settings(max_examples=500, deadline=None)
    @example(QuadField(-1), "1" * 5000 + "+w")
    @example(QuadField(-1), "w^1")
    @example(QuadField(-1), "2*")
    @example(QuadField(-1), "1\n+w\n")
    @example(QuadField(-1), "w+\n")
    @example(QuadField(5), "-٣*w")
    @example(QuadField(5), "3-2*w+w-1")
    @example(QuadField(5), "1" * 5000 + "+w+")
    def test_drawn_characters(self, field, text):
        assert (quadint_outcome(parse_quadint, field, text)
                == quadint_outcome(reference_parse_quadint, field, text))

    @pytest.mark.parametrize("value", [None, 3, b"w", ["w"]])
    def test_non_text(self, value):
        field = QuadField(-1)
        assert (quadint_outcome(parse_quadint, field, value)
                == quadint_outcome(reference_parse_quadint, field, value))
