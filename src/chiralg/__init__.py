"""Exact free-field vertex superalgebra computations on affine space.

Fock spaces of polyvector and form type, BRST charges twisted by a potential
or by Lie structure constants, weightwise cohomology dimensions, and the
refined vanishing-cycles character checked against a theta-quotient oracle.
All arithmetic is exact rational.
"""

from .fock import (
    Family,
    FockError,
    ModeKey,
    Side,
    SpaceSpec,
    State,
    TorusWeights,
    UnboundedBasisError,
    enumerate_basis,
    make_space,
    monomial_key,
    monomial_text,
    normalize,
    torus_window_counts,
)
from .oper import (
    OperatorTerm,
    SymbolicCharge,
    instantiate_charge,
    normal_order,
)
from .field import field_mode, field_terms, residue_charge
from .charges import (
    CheckReport,
    Potential,
    StructureConstants,
    check_anticommute,
    check_nilpotent,
    chiral_de_rham,
    combine,
    default_torus_weights,
    lie_charge,
    potential_charge,
)
from .cohomology import (
    CohomologyError,
    CohomologyTable,
    chi_van,
    cohomology_dims_capped,
    cohomology_dims_torus,
    euler_series,
)
from .qseries import (
    CompareReport,
    SeriesError,
    TruncatedSeries,
    chi_closed_form,
    compare,
)
from .modfun import (
    EpsilonReport,
    InducedTruncation,
    ModuleError,
    ZeroModeModule,
    check_epsilon,
    delta_zero_modes,
    polynomial_zero_modes,
    singular_vectors,
)

__version__ = "0.1.0"
