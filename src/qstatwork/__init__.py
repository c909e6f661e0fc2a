"""qstatwork: collective work statistics of quantum Otto engine ensembles.

Two mutually cross-checking computation paths for the average work that
N bosonic-indistinguishable, distinguishable, or fermionic Otto engines
outcouple into an external quantum system: closed-form perturbative
formulas (analytics) and exact numerical propagation with two-point
energy measurement (dynamics).
"""

from .protocols import (
    CouplingSchedule,
    EngineParams,
    ExternalSystem,
    Impulse,
    Sampled,
    SmoothPlateau,
    Statistics,
    g_of_t,
    harmonic_system,
    phase_integral,
)
from .analytics import (
    Amplitudes,
    WorkRecord,
    compute_amplitudes,
    enhancement,
    enhancement_region,
    general_probability,
    general_work,
    impulse_second_moment,
    impulse_work,
    moment_f,
    moment_h,
    verify_inequalities,
)
from .dynamics import (
    CycleResult,
    PropagatorConfig,
    adiabaticity_witness,
    run_cycle,
    run_cycles,
)
from .fermi import (
    FermiEnsemble,
    active_distribution,
    f_N,
    fermi_outcoupled_work,
)

__version__ = "0.1.0"
