"""Exhaustive search and verification of binary projective plane curves.

Enumerates homogeneous polynomials over F_2 in three variables (degree <= 6),
reduces them modulo GL_3(F_2), counts rational points over F_{2^m}
(m = 3..11), analyzes singularities, certifies absolute irreducibility, and
scores smooth-model point counts against Serre/Ihara/Lauter upper bounds.
"""

from .gf2m import FieldTable, build_field
from .polyrep import PolyMask, encode, decode, evaluate, partials, substitute
from .orbit import enumerate_gl3, orbit_of, sieve
from .count import PointCount, PointCounter, count_points, projective_points
from .bounds import BoundTable, GenusInterval, serre_bound, ihara_bound, genus_interval
from .search import CurveRecord, SearchConfig, run_search, verify, report
from .corpus import CorpusEntry, load_corpus, run_corpus

__all__ = [
    "FieldTable",
    "build_field",
    "PolyMask",
    "encode",
    "decode",
    "evaluate",
    "partials",
    "substitute",
    "enumerate_gl3",
    "orbit_of",
    "sieve",
    "PointCount",
    "PointCounter",
    "count_points",
    "projective_points",
    "BoundTable",
    "GenusInterval",
    "serre_bound",
    "ihara_bound",
    "genus_interval",
    "CurveRecord",
    "SearchConfig",
    "run_search",
    "verify",
    "report",
    "CorpusEntry",
    "load_corpus",
    "run_corpus",
]
