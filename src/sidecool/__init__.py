"""sidecool: forward model and inverse analysis for resolved-sideband optical
cooling of a membrane inside a cavity.

Submodules:
    physics  -- susceptibilities, damping/occupancy budget, cooling limits
    spectra  -- displacement-spectrum model, detection filter, synthesis
    dataio   -- spectrum files, calibration tone, config, unit conversions
    report   -- the campaign's result records and their JSON fit report
    fitting  -- background/peak/cooling-curve fits, noise discrimination
"""

from .physics import (
    CavitySpec,
    DriveField,
    InstabilityError,
    LaserNoise,
    MechMode,
    OccupancyBudget,
    amplitude_factor,
    backaction_occupancy,
    chi_c,
    effective_occupancy,
    excess_occupancy,
    min_occupancy,
    sideband_angle,
    spring_shift,
    thermal_occupation,
)
from .spectra import (
    BackgroundModel,
    CalibrationTone,
    DetectionConfig,
    LineshapeCoeffs,
    Spectrum,
    SpectrumUnits,
    model_coefficients,
    output_psd,
    peak_model,
    synthesize_campaign,
    synthesize_measured_spectrum,
)
from .fitting import (
    FitConvergenceError,
    PeakNotFoundError,
    analyze_campaign,
    analyze_peak,
    discriminate_noise,
    extract_noise_psd,
    fit_background,
    fit_cooling_curve,
    fit_peak,
    nlls_fit,
    summarize_peaks,
)
from .dataio import (
    ExperimentConfig,
    calibrate_with_tone,
    load_config,
    read_spectrum,
    save_config,
    write_spectrum,
)
from .report import (
    CoolingCurveResult,
    FitReport,
    NoiseDiscrimination,
    NoiseExtraction,
    PeakFitResult,
    TOOL_VERSION,
    effective_temperature,
)

__version__ = TOOL_VERSION
