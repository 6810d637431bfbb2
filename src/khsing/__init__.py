"""Khovanov-type link homology over the rank-two Frobenius algebra
k[x]/(x^2 - h*x - t), with a crossing-change chain map extending the
invariant to singular links via iterated mapping cones."""

from .chain import (ChainComplex, ChainMap, Homotopy, cone,
                    cone_cocone_homotopy, cone_factor, cone_functorial_map,
                    cone_hfunc_homotopy, is_chain_map)
from .diagram import Diagram, from_braid, parse
from .exactlinalg import (HomologySummary, QQ, Ring, SmithDecomposition,
                          SparseMatrix, ZZ, homology_at, rank,
                          smith_normal_form)
from .frobenius import FrobeniusAlgebra
from .genusone import (GenusOneMap, genus_one_map, singular_complex,
                       singular_complex_iterated, skein_triangle_report)
from .invariants import (LaurentPoly, homology_signature, jones_by_skein,
                         jones_polynomial, kauffman_bracket_oracle)
from .khcube import CubeComplex, build_cube

__version__ = "0.1.0"

__all__ = [
    "ChainComplex", "ChainMap", "CubeComplex", "Diagram", "FrobeniusAlgebra",
    "GenusOneMap", "HomologySummary", "Homotopy", "LaurentPoly", "QQ", "Ring",
    "SmithDecomposition", "SparseMatrix", "ZZ", "build_cube", "cone",
    "cone_cocone_homotopy", "cone_factor", "cone_functorial_map",
    "cone_hfunc_homotopy", "from_braid",
    "genus_one_map", "homology_at", "homology_signature",
    "is_chain_map", "jones_by_skein", "jones_polynomial",
    "kauffman_bracket_oracle", "parse", "rank",
    "singular_complex", "singular_complex_iterated", "skein_triangle_report",
    "smith_normal_form",
]
