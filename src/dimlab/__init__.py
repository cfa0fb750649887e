"""dimlab: dyadic-grid laboratory for entropy, arithmetic, and dimension
of fractal-type subsets of the line and low-dimensional grids."""

from types import ModuleType as _ModuleType

from .errors import (
    DimLabError,
    FormatError,
    HypothesisError,
    MeasureInvariantError,
    ResourceLimitError,
    SpecValidationError,
    ZeroMassError,
)
from .dyadic import (
    DyadicTree,
    Vertex,
    cell_of,
    covering_count,
    descendant_count,
    descendant_range,
    is_full_branching,
    subtree,
    validate,
)
from .measures import (
    ATOMIC,
    BOTH,
    NEITHER,
    UNIFORM,
    CoveringBoundsReport,
    LevelStats,
    ScaleProfile,
    TreeMeasure,
    classify_local,
    cond_entropy,
    counting_measure,
    covering_bounds_check,
    default_window,
    entropy,
    from_leaf_masses,
    greedy_cover,
    local_entropy,
    restrict_renormalize,
    scale_profile,
    splitting_measure,
)
from .generators import (
    GeneratorSpec,
    IfsSpec,
    MoranSpec,
    ReciprocalSpec,
    SemigroupSpec,
    build_tree,
    extract_moran_subset,
    ifs_attractor,
    iterated_ifs,
    moran_tree,
    reciprocal_tree,
    semigroup_tree,
    spec_from_json,
)
from .arithmetic import (
    GridSetD,
    SumsetReport,
    delta_dense_check,
    difference_set,
    distance_set,
    grid_product,
    index_sumset,
    iterated_sumset,
)
from .io import (
    dumps_grid,
    dumps_measure,
    dumps_tree,
    load_grid,
    load_tree,
    loads_grid,
    loads_measure,
    loads_tree,
)
from .dimension import (
    DimEstimate,
    GrowthRow,
    GrowthTable,
    assouad_estimate,
    assouad_slope,
    box_estimate,
    growth_experiment,
    lower_estimate,
)

__version__ = "0.1.0"

# the public names are the ones the imports above bind: every submodule they
# load is bound too, and is left out
__all__ = [name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)]
