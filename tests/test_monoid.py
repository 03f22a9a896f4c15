import math

import pytest
from hypothesis import given, strategies as st

from synckit.errors import UnknownMonoid
from synckit.monoid import IntegerAdd, TropicalMin, monoid_by_name


def test_integer_add_basics():
    m = IntegerAdd()
    assert m.add(3, 4) == 7
    assert m.add(5, m.zero()) == 5


def test_cancellation_gives_zero():
    # opposite-weight parallel edges fold to the identity: a non-edge
    m = IntegerAdd()
    assert m.add(1, -1) == m.zero()


def test_is_zero_examples():
    m = IntegerAdd()
    assert m.zero() == 0
    assert m.add(5, m.zero()) != m.zero()


def test_registry():
    assert monoid_by_name("int-add").kind == "int-add"
    assert monoid_by_name("tropical-min").kind == "tropical-min"
    with pytest.raises(UnknownMonoid):
        monoid_by_name("xor")


def test_tropical_min():
    m = TropicalMin()
    assert m.add(30.0, 15.0) == 15.0
    assert m.zero() == math.inf
    assert m.add(math.inf, math.inf) == m.zero()
    assert m.coerce("inf") == math.inf
    with pytest.raises(ValueError):
        m.coerce(math.nan)  # min() would drop it silently


def test_int_coercion_rejects_floats_and_bools():
    m = IntegerAdd()
    with pytest.raises(TypeError):
        m.coerce(1.5)
    with pytest.raises(TypeError):
        m.coerce(True)


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(-50, 50))
def test_integer_add_laws(a, b, c):
    m = IntegerAdd()
    assert m.add(a, b) == m.add(b, a)
    assert m.add(m.add(a, b), c) == m.add(a, m.add(b, c))
    assert m.add(a, m.zero()) == a


@given(
    st.one_of(st.just(math.inf), st.integers(-20, 20).map(float)),
    st.one_of(st.just(math.inf), st.integers(-20, 20).map(float)),
    st.one_of(st.just(math.inf), st.integers(-20, 20).map(float)),
)
def test_tropical_laws(a, b, c):
    m = TropicalMin()
    assert m.add(a, b) == m.add(b, a)
    assert m.add(m.add(a, b), c) == m.add(a, m.add(b, c))
    assert m.add(a, m.zero()) == a
