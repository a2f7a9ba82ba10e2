"""Higher-rank graphs over the positive Baumslag-Solitar monoid.

Builds the category of compatible coloured-graph morphisms out of a
2-coloured directed graph with a complete collection of squares, in two
modes: degrees in BS(2,1)+ (relation ab^2 = ba) and degrees in N^2.
Degrees are plain (N, M) int pairs and edge colours are the letters
'a' (red) and 'b' (blue); the mode objects BS and GRID hold the arithmetic.
"""

from .category import (
    CompositionTable,
    VerificationReport,
    verify,
    verify_category,
    verify_factorization,
    verify_functor,
)
from .errors import BsGraphError
from .fixtures import load_fixture, parse_fixture, serialize_fixture
from .graphs import ColouredGraph, Path, build_graph, validate_path, vertex_path
from .models import ModelGraph, model
from .morphisms import (
    Morphism,
    check_traverses,
    enumerate_morphisms,
    lift_path,
    longest_traversal,
    normal_form,
    shortest_traversal,
    split_traversals,
)
from .squares import (
    CompleteCollection,
    CompletenessReport,
    Square,
    build_square,
    build_square_slots,
    check_complete,
)
from .words import BS, GRID, longest_form, parse_grid_degree, parse_word

__version__ = "0.1.0"
