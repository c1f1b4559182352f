"""The fixed-base comb and the pinned blinding elements in pcp.pake."""

import random

import pytest

from pcp import pake

BASES = {"G": pake._G, "M": pake._M, "N": pake._N}
EDGE_EXPONENTS = [0, 1, pake._Q - 1, 2**256 - 1]
RANDOM_EXPONENTS = [random.Random(5).randrange(pake._Q) for _ in range(50)]


@pytest.mark.parametrize("name", BASES)
def test_comb_matches_pow(name):
    base = BASES[name]
    for exp in EDGE_EXPONENTS + RANDOM_EXPONENTS:
        assert pake._fixed_pow(base, exp) == pow(base, exp, pake._P), exp


@pytest.mark.parametrize("exp", [-1, 2**256])
def test_comb_refuses_exponents_outside_its_width(exp):
    with pytest.raises(ValueError):
        pake._fixed_pow(pake._G, exp)


@pytest.mark.parametrize(
    "name, seed",
    [("M", b"pcp pake blinding element M"), ("N", b"pcp pake blinding element N")],
)
def test_pinned_blinding_element_is_its_seed_derivation(name, seed):
    element = BASES[name]
    assert element == pake._hash_to_subgroup(seed)
    assert element != 1
    assert pow(element, pake._Q, pake._P) == 1
