"""Higher-rank graphs over the positive Baumslag-Solitar monoid.

Builds the category of compatible coloured-graph morphisms out of a
2-coloured directed graph with a complete collection of squares.  Degrees
are plain (N, M) int pairs, standing for a^N b^M in the monoid with
ab^k = ba, and multiply by the one law

    (N1, M1) * (N2, M2) = (N1 + N2, M1 * k^N2 + M2).

Edge colours are the letters 'a' (red) and 'b' (blue), and a colour word,
such as a path's ``colours``, is a ``str`` of them.  The two modes are
the mode objects BS, the positive Baumslag-Solitar monoid BS(2,1)+, and
GRID, N^2 = BS(1,1)+; ``words`` holds their one arithmetic.
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
from .morphisms import (
    Morphism,
    check_traverses,
    enumerate_morphisms,
    factors,
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
