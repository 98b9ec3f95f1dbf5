"""Exact arithmetic for quantum cluster algebras on unipotent cells, their
specializations at roots of unity, and the exponent-scaling maps between
the specialized tori.

Layer map, bottom to top: coeff (integer Laurent, cyclotomic, and rational
coefficient arithmetic), rootdatum (Cartan data and reduced words), qtorus
(quantum torus elements over pluggable coefficient rings), cluster (seeds,
compatible pairs, mutation), uqn (the quantized enveloping algebra used as
an independent oracle for commutation forms and for the minor-level base
case), frobsplit (specialization and the theorem checker), cli (campaign
driver).
"""

from .coeff import CycloInt, IntLaurent, Point, RatFunc, qbinom, qfactorial, qint
from .rootdatum import CartanData, cartan_preset, beta_sequence, is_reduced
from .qtorus import LaurentRing, CycloRing, PrimeField, SkewForm, TorusElement
from .cluster import (ExchangeMatrix, QuantumSeed, btilde_from_word,
                      check_compatible, cluster_monomial, mutate_seed,
                      seed_from_word)
from .uqn import (CheckOutcome, check_frobenius_on_minor, check_minor_power,
                  commutation_matrix, quantum_minor)
from .frobsplit import (SeedExpander, TheoremSession, fr_star, frp_star,
                        modp_split, reduction_commutes, spec_torus)

__version__ = "0.1.0"

__all__ = [
    "CartanData", "CheckOutcome", "CycloInt", "CycloRing", "ExchangeMatrix",
    "IntLaurent", "LaurentRing", "Point", "PrimeField", "QuantumSeed",
    "RatFunc", "SeedExpander", "SkewForm", "TheoremSession", "TorusElement",
    "beta_sequence", "btilde_from_word", "cartan_preset", "check_compatible",
    "check_frobenius_on_minor", "check_minor_power", "cluster_monomial",
    "commutation_matrix", "fr_star", "frp_star", "is_reduced", "modp_split",
    "mutate_seed", "qbinom", "qfactorial", "qint", "quantum_minor",
    "reduction_commutes", "seed_from_word", "spec_torus",
]
