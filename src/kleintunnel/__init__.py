"""kleintunnel: relativistic spin-0 tunneling through a rectangular barrier.

Exact boundary-matched transmission amplitudes, closed forms, stationary
phase (tunneling) times, the transmitted wave packet at x = L and parameter
sweeps for the 1D rectangular electrostatic barrier in natural units
(hbar = c = 1).
"""

from .errors import (
    ClippedWindowError,
    DomainError,
    KleinTunnelError,
    NoPeakError,
    NonConvergentError,
    NonPropagatingError,
    QuadratureError,
    SupportError,
    ZeroLengthError,
    ZoneCrossingError,
    ZoneError,
)
from .kinematics import (
    BarrierChannel,
    BarrierSetup,
    IncidentMode,
    Zone,
    barrier_channel,
    classify_zone,
    mode_from_energy,
    mode_from_n2,
    rho_n2,
    tunneling_interval_n2,
)
from .phasetime import (
    classical_tau,
    edge_limit_magnitude_nr_form,
    edge_limit_ratio,
    edge_phase_time_ratio,
    normalized_phase_time,
    normalized_phase_time_numeric,
    small_rho_ratio,
)
from .scattering import (
    ScatteringSolution,
    TransmissionPoint,
    match_boundaries,
    transmission_closed_form,
    transmission_magnitude_nr_form,
)
from .sweep import (
    SweepRecord,
    SweepRecords,
    SweepRequest,
    fig1_preset,
    read_csv,
    run_sweep,
    write_csv,
    write_json,
)
from .wavepacket import (
    ArrivalEstimate,
    DistortionMetrics,
    PacketRun,
    QuadratureReport,
    SpectrumSpec,
    run_packet,
)

__version__ = "0.9.0"

__all__ = [name for name in dir() if not name.startswith("_")]
