"""Configuration spaces of graphs: exact cube-complex homology, symmetric
group actions, and stabilization experiments for glued graph families."""

__version__ = "0.1.0"

from .graphs import (
    CIRCLE_LAMBDA,
    FamilyDescriptor,
    FamilyInstance,
    Graph,
    GraphError,
    INTERVAL_DELTA,
    Subgraph,
    SummandSpec,
    WEDGE_FI,
    circle_family,
    conf_euler,
    glue,
    interval_family,
    make_cycle_graph,
    make_h_graph,
    make_path_graph,
    make_spider,
    make_star,
    normalize_loops,
    realize_family,
    smooth,
    subdivide,
    support_subgraphs,
    wedge,
    wedge_family,
)
from .complexes import (
    BudgetExceeded,
    CubeComplex,
    DEFAULT_CELL_BUDGET,
    MODEL_KIND,
    ModelError,
    ORACLE_KIND,
    build_abrams_oracle,
    build_model,
    subcomplex_supported_in,
)
from .linalg import (
    LinAlgError,
    SparseIntMatrix,
    kernel_with_coords,
    lattice_coords,
    rank_of_columns,
    smith_normal_form,
)
from .homology import (
    ChainMap,
    GeneratedCheck,
    HomologyError,
    HomologyPresentation,
    betti_numbers,
    generated_check,
    homology,
    homology_generators,
    oracle_betti_numbers,
    permutation_action_map,
    push_cycle,
)
from .characters import (
    CharacterError,
    CharacterReport,
    CorruptedCharacterError,
    character_report,
    class_representative,
    class_size,
    decompose,
    homology_character,
    hook_length_dimension,
    mn_character,
    pad,
    pad_is_valid,
    partitions,
    stability_verdict,
    unpad,
)
from .stability import (
    GenerationReport,
    StabilityError,
    dimension_polynomial_check,
    generation_degree_check,
    pushed_cycle_space,
    verify_tree_generators,
)
