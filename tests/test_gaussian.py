"""Gaussian rational arithmetic and the literal grammar."""

from fractions import Fraction as Q
from random import Random

import pytest

from lparams.errors import InputError
from lparams.gaussian import (
    GaussQ,
    ScaledVec,
    format_gauss,
    parse_gauss,
    parse_integer,
    parse_rational,
    read_gauss,
    read_rational,
)


def test_field_ops():
    a = GaussQ(Q(1, 2), Q(3))
    b = GaussQ(Q(-1), Q(1, 3))
    assert a + b == GaussQ(Q(-1, 2), Q(10, 3))
    assert a - b == GaussQ(Q(3, 2), Q(8, 3))
    assert a * b == GaussQ(Q(-3, 2), Q(-17, 6))
    assert -a == GaussQ(Q(-1, 2), Q(-3))
    # i^2 = -1
    i = GaussQ(0, 1)
    assert i * i == GaussQ(-1)


def test_mixed_rational_ops():
    a = GaussQ(Q(1, 2), Q(1))
    assert a + 1 == GaussQ(Q(3, 2), Q(1))
    assert 1 + a == GaussQ(Q(3, 2), Q(1))
    assert 2 * a == GaussQ(Q(1), Q(2))
    assert a * Q(1, 2) == GaussQ(Q(1, 4), Q(1, 2))
    assert 1 - a == GaussQ(Q(1, 2), Q(-1))


def test_eq_and_hash_against_rationals():
    assert GaussQ(Q(3, 2), 0) == Q(3, 2)
    assert hash(GaussQ(Q(3, 2), 0)) == hash(Q(3, 2))
    assert GaussQ(Q(3, 2), 1) != Q(3, 2)
    assert GaussQ(0, 0) == 0


def test_format_parse_round_trip_seeded():
    rng = Random(202)
    for _ in range(500):
        z = GaussQ(Q(rng.randrange(-40, 41), rng.randrange(1, 13)),
                   Q(rng.randrange(-40, 41), rng.randrange(1, 13)))
        assert parse_gauss(format_gauss(z)) == z


def test_parse_literal_forms():
    assert parse_gauss("3/4") == GaussQ(Q(3, 4), 0)
    assert parse_gauss("-2") == GaussQ(-2, 0)
    assert parse_gauss("i") == GaussQ(0, 1)
    assert parse_gauss("-i") == GaussQ(0, -1)
    assert parse_gauss("3/2i") == GaussQ(0, Q(3, 2))
    assert parse_gauss("1/2+3i") == GaussQ(Q(1, 2), 3)
    assert parse_gauss("1/2-1/3i") == GaussQ(Q(1, 2), Q(-1, 3))


@pytest.mark.parametrize("bad", ["", "x", "1+", "i2", "1/0", "2+2", "1//2"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(InputError):
        parse_gauss(bad)


@pytest.mark.parametrize("bad", ["\u0663", "\u0663/\u0664", "1/\u0664", "\u0663i", "1+\u0663i"])
def test_parse_refuses_non_ascii_digits(bad):
    with pytest.raises(InputError, match="bad Gaussian rational"):
        parse_gauss(bad)


def test_numeral_grammar():
    assert parse_rational("3/4") == Q(3, 4)
    assert parse_rational("-6/4") == Q(-3, 2)
    assert parse_rational("+2") == 2
    assert parse_rational(" 1/2 ") == Q(1, 2)
    assert parse_rational(7) == 7 and type(parse_rational(7)) is Q
    assert parse_integer("-12") == -12 and parse_integer(" 3 ") == 3
    for bad in ("0.5", "5e-1", "1_0/4", "1_0", "\u0663", "\u0663/\u0664", "1/0", "1/-2",
                "", "/2", "1/", "+-1", "i", True, 0.5, None, Q(1, 2)):
        with pytest.raises(ValueError):
            parse_rational(bad)
    for bad in ("2/2", "1/2", "0_1", "\u0661", "1.0", "", 1):
        with pytest.raises(ValueError):
            parse_integer(bad)


# ---------------------------------------------------------------------------
# the strict reader of library-API vector entries

def test_read_rational_keeps_ints_and_fractions_and_parses_strings():
    assert read_rational(3) == 3 and read_rational(Q(-1, 2)) == Q(-1, 2)
    assert read_rational(" -3/4 ") == Q(-3, 4)
    assert read_gauss(GaussQ(1, 2)) == GaussQ(1, 2)
    assert read_gauss("1/2-i") == GaussQ(Q(1, 2), -1) and read_gauss(Q(1, 3)) == Q(1, 3)


@pytest.mark.parametrize("bad", ["0.5", "1_0/4", "\u0663", "5e-1", "1e0", "", 0.5, 0.0, 1.0,
                                 True, False, None, GaussQ(0, 1)])
def test_read_rational_refuses_floats_bools_and_non_numerals(bad):
    # Fraction(str) and Fraction(float) used to accept every one of these
    with pytest.raises(InputError):
        read_rational(bad)


@pytest.mark.parametrize("bad", [["5e-1"], ["0.5"], [0.5], [True], ["1e0"], [1, "\u0663"]])
def test_scaled_vec_of_refuses_what_the_document_readers_refuse(bad):
    with pytest.raises(InputError):
        ScaledVec.of(bad)


def test_scaled_vec_of_reads_strings_by_parse_gauss():
    assert ScaledVec.of(["1/2", "-i", 3, Q(1, 4), GaussQ(0, Q(1, 2))]) == \
        ScaledVec([2, 0, 12, 1, 0], [0, -4, 0, 0, 2], 4)


@pytest.mark.parametrize("make", [lambda: GaussQ(0.5), lambda: GaussQ(0, 1.0), lambda: GaussQ(True),
                                  lambda: GaussQ(0, False), lambda: read_gauss(0.5),
                                  lambda: tuple(map(read_gauss, [1, 0.25]))])
def test_parts_are_read_by_read_rational(make):
    with pytest.raises(InputError):
        make()


def test_parts_keep_ints_fractions_and_numerals():
    assert GaussQ(1, "-1/3") == GaussQ(Q(1), Q(-1, 3))
    assert type(GaussQ(2).re) is Q and type(GaussQ(0, Q(1, 2)).im) is Q


@pytest.mark.parametrize("op", [lambda z: z + 0.5, lambda z: 0.5 + z, lambda z: z - 0.5,
                                lambda z: 0.5 - z, lambda z: z * 0.5, lambda z: 0.5 * z,
                                lambda z: z * "1/3", lambda z: "1/3" * z, lambda z: z + "1",
                                lambda z: z - "1", lambda z: "1" - z, lambda z: z + True,
                                lambda z: True + z, lambda z: z - False, lambda z: True - z,
                                lambda z: z * True, lambda z: True * z, lambda z: z + None],
                         ids=["add-float", "radd-float", "sub-float", "rsub-float", "mul-float",
                              "rmul-float", "mul-str", "rmul-str", "add-str", "sub-str",
                              "rsub-str", "add-bool", "radd-bool", "sub-bool", "rsub-bool",
                              "mul-bool", "rmul-bool", "add-none"])
def test_arithmetic_refuses_floats_strings_and_bools(op):
    with pytest.raises(TypeError):
        op(GaussQ(1))


def test_arithmetic_takes_ints_and_fractions_on_either_side():
    z = GaussQ(1, 1)
    assert z + Q(1, 2) == Q(1, 2) + z == GaussQ(Q(3, 2), 1)
    assert z - Q(1, 2) == GaussQ(Q(1, 2), 1) and Q(1, 2) - z == GaussQ(Q(-1, 2), -1)
    assert 3 * z == z * 3 == GaussQ(3, 3) and Q(1, 3) * z == GaussQ(Q(1, 3), Q(1, 3))
    assert sum([z, z, GaussQ(0, -2)]) == GaussQ(2, 0)
