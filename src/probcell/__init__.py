"""Probabilistic 3D cell detection and spatial analysis on density maps."""

from .bayescore import RegressorOutput, bayes_loss, l2_loss
from .classifier import (
    ForestModel,
    MlpModel,
    classify_proposals,
    load_model,
    predict_proba,
    save_model,
    train_forest,
    train_mlp,
)
from .coords import CoordSet, load_coords, save_coords
from .densitymap import KernelSpec, gaussian_value, render_dm
from .detect import NmsConfig, detect_peaks
from .evalmetrics import (
    MatchReport,
    aggregate_reports,
    hungarian_match,
    score_calibration,
    score_detection,
    score_probability_terms,
)
from .features import FeatureSpec, extract_features, feature_names
from .pipeline import run_pipeline, tiled_detect
from .spatial import (
    DistanceCdf,
    SpatialReport,
    analyze_deterministic,
    analyze_probabilistic,
    cell_distances,
    distance_transform,
    esd_pool,
    ks_2sample,
    prepare_spatial,
    scott_bandwidth,
    wilcoxon_signed_rank,
)
from .synth import SynthSpec, generate_coords, generate_structures, oracle_regress
from .volume import (
    M_CONV,
    M_PEAK,
    PatchGrid,
    TilingConfig,
    Volume3D,
    load_volume,
    plan_tiling,
    save_volume,
)

__version__ = "0.1.0"
