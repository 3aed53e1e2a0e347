"""circmix: decide and certify connectivity of circular-colouring
recolouring graphs.

The package answers, for a graph G and parameters (p,q): starting from one
(p,q)-circular colouring, can every other one be reached by recolouring a
single vertex at a time?  It provides an exhaustive oracle, a cycle-wind
characterization with verifiable certificates (for 2 < p/q < 4), a
fold-based criterion for odd-cycle targets, and a polynomial decision
procedure for embedded planar graphs at 3 <= p/q < 4.
"""

from .circular import (CircularParams, Colouring, WindReport, circular_clique,
                       cycle_wind, edge_weight, enumerate_colourings, reflect,
                       shift, validate_colouring, walk_weight)
from .graphs import (Bipartition, Cycle, Graph, bipartition, blocks, build_graph,
                     distance, enumerate_cycles)
from .kernels import DEFAULT_STATE_BUDGET, BudgetExceededError
from .reconfig import (FixedSetReport, MixingBasis, MixingVerdict,
                       NonMixingWitness, col_neighbours, fixed_vertices,
                       is_mixing_oracle, is_mixing_wind,
                       is_reachable_characterized, is_reachable_oracle,
                       locked_vertices, mixing_basis, verify_mixing_basis,
                       verify_witness)

__version__ = "0.1.0"
