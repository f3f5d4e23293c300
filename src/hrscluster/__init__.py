"""Hierarchical rate splitting over correlated MIMO channels.

Simulates a two-layer rate-splitting downlink, searches for rate-maximizing
user clusterings by subspace-similarity agglomeration, builds labeled
datasets from those clusterings, and trains a shallow classifier that
predicts the best clustering straight from noisy channel estimates.
"""

from .channel import (
    ArrayGeometry,
    ChannelSet,
    CovarianceMatrix,
    build_covariance,
    corrupt_csi,
    sample_channels,
)
from .clustering import (
    Dendrogram,
    SimilarityCalibration,
    agglomerate,
    best_partition,
    calibrate_similarity,
    exhaustive_best,
    normalized_similarity,
    pf_similarity,
    projection_matrix,
)
from .data import (
    DatasetSplit,
    Sample,
    ScenarioConfig,
    augment,
    balance,
    build_dataset,
    generate_samples,
    load,
    serialize,
    split,
)
from .errors import (
    ConfigurationError,
    DataFormatError,
    FeasibilityError,
    HrsError,
    NumericalConsistencyError,
)
from .hrs import (
    HrsConfig,
    PrecoderSet,
    RateBreakdown,
    compute_inner_precoders,
    compute_outer_precoders,
    evaluate_partition,
    evaluate_partitions,
    rate,
)
from .mlp import (
    AdamState,
    FeatureStats,
    MlpModel,
    TrainingHyper,
    TrainReport,
    adam_step,
    backward,
    evaluate_topk,
    featurize_all,
    forward,
    load_model,
    loss,
    save_model,
    train,
)
from .partitions import Partition, bell_number, enumerate_partitions

__version__ = "0.1.0"
