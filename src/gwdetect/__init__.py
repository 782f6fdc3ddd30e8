"""gwdetect: statistical damage detection for active-sensing guided waves.

Spectral estimation (averaged windowed periodograms), per-frequency test
statistics with inherent decision thresholds, reference time-domain damage
indices, confidence bands, dataset orchestration with ROC evaluation, and a
synthetic pitch-catch signal generator for end-to-end verification.
"""

from .detectors import (
    DAMAGED,
    HEALTHY,
    BaselineEnsemble,
    ConfidenceBand,
    StatSeries,
    experimental_band,
    f_statistic,
    fm_statistic,
    janapati_di,
    qiu_di,
    theoretical_band,
    z_statistic,
)
from .pipeline import (
    METRICS,
    DatasetManifest,
    DetectionReport,
    ManifestEntry,
    RocCurve,
    compute_path_scores,
    default_alpha_grid,
    extract_packet,
    load_set,
    locate_packet,
    roc_sweep,
    run_inspection,
    summary_table,
)
from .simulate import (
    DamageSpec,
    ToneBurstSpec,
    attenuation_ladder,
    propagate,
    synth_dataset,
    tone_burst,
)
from .spectral import (
    PsdEstimate,
    Signal,
    WelchConfig,
    make_window,
    welch_psd,
    welch_theoretical_moments,
)
from .statdist import (
    chi2_cdf,
    chi2_quantile,
    f_cdf,
    f_quantile,
    normal_cdf,
    normal_quantile,
)

__version__ = "0.1.0"
