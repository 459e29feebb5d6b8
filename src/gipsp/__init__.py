"""Gauge-independent phase-space distributions of charged particles.

Wigner and Husimi functions of states in electromagnetic fields, including
the gauge-independent chord-phase and radial-phase variants, density-matrix
reconstruction from them, and the classical, Schroedinger, and phase-space
evolution routes that cross-validate each other.
"""

from .lattice import (
    Axis,
    BoundaryMassError,
    Constants,
    LatticeError,
    PhaseGrid,
    QGrid,
    boundary_mass,
    export_csv,
    integrate,
    load_field,
    save_field,
)
from .em_fields import FieldError, GaugeField, GaugeFn, Poly, chord_integral, radial_phase
from .states import (
    DensityMatrix,
    StateError,
    WaveFunction,
    coherent_state,
    density_from_pure,
    gauge_rotate,
    gaussian_packet,
    mix,
    phase_rotate,
)
from .phase_space import (
    GaugeTagError,
    PhaseSpaceFunction,
    gaussian_phase_function,
    inverse_wigner,
    inverse_wigner_gauge,
    inverse_wigner_poincare,
    wigner,
    wigner_gauge_poincare,
    wigner_gauge_stratonovich,
)
from .husimi import (
    DeconvolutionError,
    SmoothingSpec,
    density_from_husimi_gauge,
    density_from_husimi_poincare,
    husimi_from_wigner,
    husimi_gauge,
    husimi_gauge_poincare,
    husimi_overlap,
    quantizer_reconstruct_direct,
    wigner_from_husimi,
)
from .dynamics import (
    EvolutionSpec,
    PropagatorError,
    evolve,
    husimi_gauge_rhs,
    liouville_propagate,
    liouville_rhs,
    moyal_gauge_rhs,
    propagate_phase_space,
    schrodinger_propagate,
)

__version__ = "0.1.0"
