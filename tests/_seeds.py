"""Shared fixtures: the standard words, their computed commutation forms, and
powers of eps."""

from functools import lru_cache

from qcfrob.cluster import mutate_seed, seed_from_word
from qcfrob.coeff import CycloInt
from qcfrob.qtorus import SkewForm
from qcfrob.rootdatum import cartan_preset
from qcfrob.uqn import commutation_matrix

A2_WORD = (0, 1, 0)
A3_WORD = (0, 1, 0, 2, 1, 0)
B2_WORD = (0, 1, 0, 1)


@lru_cache(maxsize=None)
def cell_form(preset: str, word) -> SkewForm:
    return SkewForm(commutation_matrix(cartan_preset(preset), word))


@lru_cache(maxsize=None)
def cell_seed(preset: str, word, mutations=()):
    seed = seed_from_word(cartan_preset(preset), word, cell_form(preset, word))
    for pos in mutations:
        seed = mutate_seed(seed, pos)
    return seed


def eps_power(l: int, k: int) -> CycloInt:
    return CycloInt(l, [0] * (k % l) + [1])
