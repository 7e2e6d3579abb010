"""chaoscope: exact orbits and chaos verification on a bouquet-cover tower.

The package builds a tower of bouquet graphs connected by bidirectional
edge-surjective covers, represents points of the inverse limit as deep
symbolic addresses, and verifies the system's headline dynamics at desk
scale: a single fixed point, proximality of every orbit to it, topological
mixing witnessed by gap sets, and Li-Yorke behavior of sampled pairs.
"""

from .analysis import (
    DegreeValue,
    LiYorkeReport,
    MixingGapReport,
    degree_of_column,
    degree_stability_check,
    degree_window_min,
    frobenius_number,
    li_yorke_test,
    mixing_gap_report,
    proximal_certificate,
    representable,
    return_length_differences,
)
from .bouquet import (
    BlockSum,
    BlockTerm,
    Formula,
    LevelSpec,
    LiftReport,
    MaterializedLevel,
    OccurrenceReport,
    Run,
    VertexAddr,
    base_addr,
    build_level_spec,
    cycle_length,
    find_occurrences,
    level_spec_json,
    lift_choices,
    materialize_graph,
    project_addr,
)
from .dsl import (
    CoverDocument,
    DslSyntaxError,
    Violation,
    builtin_document,
    document_json,
    document_tower,
    equals_builtin,
    parse,
    resolve,
    serialize,
)
from .dynamics import (
    DistanceValue,
    PointHandle,
    base_changes,
    column_of,
    distance,
    exhaustion_time,
    fixed_point,
    new_handle,
    next_base_time,
    orbit_rows,
    random_handle,
    random_pair,
    step,
    write_orbit_csv,
    write_orbit_jsonl,
)
from .errors import BudgetExceeded, ChaoscopeError, SpineExhausted, StructuralError
from .graphs import (
    CoverMap,
    MaterializedGraph,
    validate_bidirectional,
    validate_edge_surjective,
    validate_homomorphism,
    write_dot,
)

__version__ = "0.1.0"
