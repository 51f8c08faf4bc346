"""Certified entropy brackets and guessing numbers for small graphs."""

__version__ = "0.1.0"

from .graphs import (
    CapExceededError,
    FormatError,
    Graph,
    GraphError,
    parse_graph,
    render_graph,
)
from .rationals import Rational, rat, rat_str
from .lp import LinearProgram, LpSolution, solve
from .bounds import (
    BoundsReport,
    entropy_bracket,
    fractional_clique_cover_number,
    shannon_entropy,
)
from .guessing import GuessingCode, extend_code, max_guessing
from .structure import (
    Decomposition,
    certify_entropy_minimal_candidate,
    find_reducible_set,
    find_saturating_subset,
)
from .enumeration import (
    enumerate_graphs,
    isomorphism_classes,
    survey_entropy_values,
    verify_g_family,
    verify_small_theorems,
    verify_wheel_lemma,
)

__all__ = [
    "BoundsReport",
    "CapExceededError",
    "Decomposition",
    "FormatError",
    "Graph",
    "GraphError",
    "GuessingCode",
    "LinearProgram",
    "LpSolution",
    "Rational",
    "__version__",
    "certify_entropy_minimal_candidate",
    "entropy_bracket",
    "enumerate_graphs",
    "extend_code",
    "find_reducible_set",
    "find_saturating_subset",
    "fractional_clique_cover_number",
    "isomorphism_classes",
    "max_guessing",
    "parse_graph",
    "rat",
    "rat_str",
    "render_graph",
    "shannon_entropy",
    "solve",
    "survey_entropy_values",
    "verify_g_family",
    "verify_small_theorems",
    "verify_wheel_lemma",
]
