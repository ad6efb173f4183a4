"""Flip-width and cop-width pursuit games with their surrounding machinery:
exact small-instance solvers, classical width-parameter oracles, twin-width
bridging, certificate verification, and strategy transfer."""

from .errors import (CertificateInvalid, FlipwidthError, GenerationError,
                     IllegalMoveError, LimitExceeded, ParseError, SchemaError)
from .graphs import (INF, ColoredGraph, Graph, OrderedGraph, ball, complement,
                     disjoint_union, generate, lexicographic_product,
                     parse_graph, semi_induced, write_graph)
from .flips import (CutFlip, FlipSpec, Partition, apply_flip, cut_flip_ball,
                    enumerate_definable_flips, enumerate_k_flips, s_types)
from .games import (GameSolution, approx_flip_width, bipartite_flip_width,
                    cop_width, copw_prime_width, definable_flip_width,
                    flip_width, isolation_width, ordered_binary_flip_width,
                    ordered_flip_width, pursuer_beats_every_evader,
                    simulate_match, solve_bipartite, solve_cops,
                    solve_copw_prime, solve_definable, solve_flipper,
                    solve_isolation, solve_ordered)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
