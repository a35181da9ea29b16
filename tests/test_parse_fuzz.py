"""Fuzzing of the three readers of outside text: parse_word, parse_ring and
certificate_from_json.  Whatever they are given, they either return or
raise ParseError or ParameterError; any other exception would surface as a
traceback (exit 1) in the command line instead of a parse error (exit 2)."""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relcert.certificate import build_certificate, certificate_bytes
from relcert.checker import certificate_from_json
from relcert.errors import ParameterError, ParseError
from relcert.freewords import PresentationParams, parse_word
from relcert.groupring import parse_ring

PARAMS = [PresentationParams((2, 3)), PresentationParams((7,)), PresentationParams((3, 4, 5))]

# Digit runs past CPython's 4300-digit integer-string limit, and digits that
# str.isdigit accepts but int() does not ('²') or does ('٣').
long_digits = st.integers(4301, 5000).map(lambda k: "9" * k)
# Letters with an explicit exponent, such as a1^-3 or b2^7, which the
# one-character tokens rarely spell out; indices run one past n = 3.
letters = st.builds(
    "{}{}^{}".format, st.sampled_from("ab"), st.integers(1, 4), st.integers(-12, 12)
)
tokens = st.one_of(
    st.sampled_from(
        ["a", "b", "e", "1", "2", "3", "0", "12", "^", "-", "+", "*", " ", "\t", "²", "٣",
         "\x1c", "00*", "^ -"]
    ),
    st.text(max_size=3),
    long_digits,
    letters,
)
grammar_text = st.lists(tokens, max_size=12).map("".join)

# ParseError and ParameterError both subclass ValueError, so a plain
# pytest.raises(ValueError) would let a bare ValueError through.
ALLOWED = (ParseError, ParameterError)


def reads_or_rejects(read, *args):
    try:
        read(*args)
    except ALLOWED:
        pass
    except Exception as exc:  # noqa: BLE001 - the assertion names it
        pytest.fail(f"{type(exc).__name__}: {str(exc)[:200]}")


@settings(max_examples=200, deadline=None)
@given(grammar_text, st.sampled_from([None, 1, 2, 3]))
def test_parse_word_fuzz(text, n):
    reads_or_rejects(parse_word, text, n)


@settings(max_examples=200, deadline=None)
@given(grammar_text, st.sampled_from(PARAMS))
def test_parse_ring_fuzz(text, params):
    reads_or_rejects(parse_ring, text, params)


# Long runs that a backtracking term pattern could take quadratic time on:
# each must be rejected with the scanner's message and column within 1 s.
HOSTILE = [
    ("a1 +" + " " * 10**6 + "!", "expected generator 'a' or 'b', found '!'", 10**6 + 5),
    ("2*" + " *" * 10**5 + "a1!", "expected generator 'a' or 'b', found '!'", 2 * 10**5 + 5),
    ("a1 " * 10**5 + "b1^-", "expected exponent digits after '^'", 3 * 10**5 + 5),
]


@pytest.mark.parametrize("text, message, column", HOSTILE)
def test_hostile_ring_text_is_rejected_quickly(text, message, column):
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_ring(text, PARAMS[0])
    elapsed = time.perf_counter() - start
    assert (err.value.raw_message, err.value.column) == (message, column)
    assert elapsed < 1.0, f"{elapsed:.2f} s"


# JSON values as json.loads can produce them: integers stop at 4300 digits
# (json.loads refuses longer ones, which the check-cert CLI tests cover).
json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(-(10**4299), 10**4299),
        st.floats(allow_nan=False, allow_infinity=False),
        grammar_text,
    ),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)

GENUINE = [json.loads(certificate_bytes(build_certificate(p))) for p in PARAMS]


def mutated(data, node):
    """node with one value somewhere inside it replaced or deleted.  The walk
    mostly goes down to a leaf, and a string leaf (most are ring-element
    text) becomes grammar text."""
    if isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 4)):
        copy = dict(node) if isinstance(node, dict) else list(node)
        keys = sorted(copy) if isinstance(copy, dict) else range(len(copy))
        key = data.draw(st.sampled_from(keys))
        if data.draw(st.integers(0, 4)) == 0:
            del copy[key]
        else:
            copy[key] = mutated(data, node[key])
        return copy
    return data.draw(grammar_text if isinstance(node, str) else json_values)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(GENUINE))
def test_certificate_from_json_fuzz(data, genuine):
    reads_or_rejects(certificate_from_json, mutated(data, genuine))


@settings(max_examples=100, deadline=None)
@given(json_values)
def test_certificate_from_json_fuzz_any_tree(tree):
    reads_or_rejects(certificate_from_json, tree)
