"""mflow: momentum-map flows, symplectic contraction, and the exact
combinatorics that certifies them (Gel'fand-Tsetlin patterns, branching
monoids, polygon bending)."""

from .branching import (
    TreeGraph,
    cg_admissible,
    cg_multiplicity,
    dominance_cone_member,
    enumerate_trivalent_trees,
    fiber_chain_member,
    parse_newick,
    pieri_admissible,
    polygon_monoid_member,
    tree_polytope_count,
)
from .config import Config, load_config
from .contraction import (
    ContractedPoint,
    CotangentPoint,
    contract_closed_form,
    contract_point,
    contracted_equal,
    flow_closed_form,
    same_fiber,
    star_action,
)
from .flow import FlowConfig, FlowTrajectory, integrate_flow, vfield
from .gelfand_tsetlin import (
    GTPattern,
    OrbitFunction,
    enumerate_gt,
    gt_pattern,
    iter_gt_patterns,
    poisson_bracket,
    random_orbit_point,
    validate_interlacing,
    weyl_dim,
)
from .matrices import (
    adjugate,
    eig_hermitian,
    haar_special_unitary,
    haar_unitary,
    momentum_right,
    polar_decompose,
    section_sqrt,
    traceless,
)
from .polygons import (
    PolygonConfig,
    Triangulation,
    bend,
    build_polygon,
    caterpillar_triangulation,
    diagonal_lengths,
)

__version__ = "0.1.0"
