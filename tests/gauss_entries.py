"""GaussQ entries of a ScaledVec, for oracles that recompute a value entry by
entry in GaussQ and Fraction arithmetic.

The library keeps lambda, kappa and the characters as ScaledVecs; an oracle
reads its input through gauss_entries and hands its result back through
ScaledVec.of, so each comparison is between ScaledVecs. Not a test module:
pytest does not collect it.
"""

from fractions import Fraction as Q

from lparams.gaussian import GaussQ


def gauss_entries(v):
    """The entries (re[k] + im[k] i) / den of v as a tuple of GaussQ."""
    return tuple(GaussQ(Q(a, v.den), Q(b, v.den)) for a, b in zip(v.re, v.im))
