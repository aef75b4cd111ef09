"""CR K-theory spectral-sequence calculator for finite k-graphs with involution."""

from .abelian import (
    BoundExceeded,
    CompositionNotZero,
    FgAbGroup,
    GroupHom,
    InfiniteInput,
    IntMatrix,
    NotChainMap,
    NotWellDefined,
    extension_candidates,
    group_from_presentation,
    homology,
    induced_hom,
    kernel_lattice,
    smith_normal_form,
)
from .kgraph import KGraphError, KGraphSpec, VertexPartition, block_decompose, validate
from .spectral import (
    CoreConstraints,
    NoSolution,
    PipelineResult,
    assemble_diagonals,
    compute_e2,
    compute_ku_with_psi,
    compute_mu,
    differential_report,
    enumerate_core_solutions,
    run_pipeline,
)

__version__ = "0.1.0"
