"""Deterministic planning and simulation toolkit for assistive listening alignment.

Submodules: signals (deterministic audio), acoustics (venue geometry and
propagation delay), perception (residual classification, comb filter),
planner (delay zones), broadcast (control-plane rules), autoconnect
(stream selection by cross-correlation), cli.
"""

from .acoustics import (
    Position,
    Seat,
    SeatDelay,
    Venue,
    delay_map,
    load_venue,
    propagation_delay_ms,
    seat_acoustic_delay_ms,
)
from .autoconnect import (
    CandidateStream,
    SelectionResult,
    autoconnect_pipeline,
    estimate_alignment_delay,
    select_stream,
)
from .broadcast import (
    AdvertisingTrain,
    AudioStreamDescriptor,
    BroadcastSink,
    BroadcastSource,
    BufferExceededError,
    ParameterUnsupportedError,
    SpecMode,
    TransportKind,
    Violation,
    airtime_occupancy,
    default_sink,
    end_to_end_residual_ms,
    sink_apply_delays,
    transport_propagation_delay_ms,
    validate_config,
)
from .perception import (
    DistortionClass,
    DistortionReport,
    MixSpec,
    classify_residual,
    comb_filter_magnitude,
    ear_signal,
    notch_frequencies,
)
from .planner import (
    DelayPlan,
    PlanVerification,
    UncoveredDelayError,
    Zone,
    load_plan,
    plan_zones,
    residual_delay_ms,
    verify_plan,
    zone_for_delay,
)
from .prng import SplitMix64
from .signals import (
    Signal,
    add_noise_snr,
    delay_signal,
    gen_sine,
    gen_white_noise,
    mix,
    read_wav,
    write_wav,
)

__version__ = "0.1.0"
