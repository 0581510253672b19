"""Two-dimensional Dyck picture languages.

Deciders for the well-nested, neutralizable, quaternate and crossword
picture languages over the four-corner alphabet, matching-graph circuit
decomposition, and desk-scale search tools.
"""

from .grid import (
    Picture,
    Symbol,
    empty_picture,
    hcat,
    parse_picture,
    render_picture,
    sym,
    vcat,
)
from .dyck1d import (
    Pairing,
    enumerate_dyck,
    is_dyck,
    match_positions,
    neutralize_word,
    parse_word,
    prime_factorize,
)
from .crossword import in_DC, is_quaternate, matching_graph, picture_circuits
from .neutralize import in_DN, in_DN_quaternate, priority_graph
from .wellnest import chinese_accretion, in_DB, in_DW, nesting_accretion, Accretion
from .lab import (
    ClassFlags,
    census,
    classify,
    double_noose,
    embed_row,
    enumerate_dc,
    fixtures,
    hamiltonian_search,
)

__all__ = [
    "Accretion",
    "ClassFlags",
    "Pairing",
    "Picture",
    "Symbol",
    "census",
    "chinese_accretion",
    "classify",
    "double_noose",
    "embed_row",
    "empty_picture",
    "enumerate_dc",
    "enumerate_dyck",
    "fixtures",
    "hamiltonian_search",
    "hcat",
    "in_DB",
    "in_DC",
    "in_DN",
    "in_DN_quaternate",
    "in_DW",
    "is_dyck",
    "is_quaternate",
    "match_positions",
    "matching_graph",
    "nesting_accretion",
    "neutralize_word",
    "parse_picture",
    "parse_word",
    "picture_circuits",
    "prime_factorize",
    "priority_graph",
    "render_picture",
    "sym",
    "vcat",
]
