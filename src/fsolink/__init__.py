"""Seeded simulator of a GEO-to-ground free-space optical link.

Pipeline: turbulent wavefront synthesis, Hermite-Gauss decomposition,
single-mode vs coherently-combined multimode receiver coupling, closed-loop
phase control of a photonic combiner, and OOK/DPSK bit-error-rate
evaluation.
"""

__version__ = "0.1.0"

from .combiner import (
    CombinerState,
    CombinerTopology,
    align_state,
    combine,
    mm_coupling_efficiency,
)
from .comms import (
    PowerTrace,
    ReceiverModel,
    ber_curve,
    ber_floor_from_phase_jumps,
    ber_instant,
    cumulated_ber,
    frame_rate_invariance_check,
    monte_carlo_cumulated_ber,
    power_penalty,
    select_windows,
    sync_loss_stats,
)
from .controller import (
    ControllerConfig,
    LoopTrace,
    NelderMead,
    correction_bandwidth,
    run_closed_loop,
    wrap_event_rate,
)
from .field import (
    ComplexFieldGrid,
    GridSpec,
    angular_spectrum_propagate,
    apply_aperture,
    apply_phase_screen,
    plane_wave,
    read_field_bin,
    total_power,
    uniform_disc_field,
    write_field_bin,
)
from .modes import (
    MODE_ORDER,
    ModeBasis,
    ModeCoefficients,
    ModeStatistics,
    decompose,
    mode_statistics,
    optimize_smf_waist,
    smf_coupling_efficiency,
)
from .scenario import Scenario, load_scenario, scenario_from_dict
from .turbulence import (
    AtmosphereProfile,
    PhaseScreen,
    TurbulenceLayer,
    build_time_series,
    default_profile,
    kolmogorov_structure_function,
    measure_structure_function,
    synth_phase_screen,
)
from .wdm import (
    OpticalSpectrum,
    VodlScan,
    two_path_efficiency,
    vodl_scan,
    wdm_link_run,
)
