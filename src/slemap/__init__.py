"""Supervised Laplacian eigenmaps for short clinical text.

Embeds free-text fields into a low-dimensional Euclidean space using a
transformation-graph similarity measure, co-trains the embedding with an
L2-regularized logistic classifier, estimates embeddings for unseen documents
by similarity-weighted nearest neighbors, and ships an evaluation harness
with TF-IDF/LSI and numeric-only baselines.
"""

from .config import PipelineConfig
from .dataset import Dataset, DatasetRecord, ingest_csv, load_dataset, write_dataset_csv
from .dictionary import (
    TransformationDictionary,
    build_dictionary,
    default_dictionary,
    load_dictionary,
    load_dictionary_dir,
)
from .errors import (
    ConfigError,
    DegenerateLambda,
    DimensionMismatch,
    EmptyVocabulary,
    FoldTooSmall,
    InvalidSpec,
    KTooLarge,
    NonFiniteValue,
    NonSymmetricInput,
    ParseError,
    RankDeficient,
    SchemaError,
    SingleClass,
    SlemapError,
    TokenCapExceeded,
)
from .estimator import estimate_batch
from .evaluation import EvalReport, compare_methods, cross_validate, run_methods, stratified_folds
from .laplacian import (
    Laplacian,
    build_laplacian,
    d_orthonormalize,
    descend_eigenmap,
    objective_phi,
    phi_gradient,
    solve_eigenmap,
)
from .logistic import (
    LabeledFeatures,
    LearnerParams,
    grad_embedding,
    grad_theta,
    loss,
    predict_proba,
    train,
)
from .lsi import TermDocumentMatrix, build_counts, build_tfidf, fit_lsi
from .metrics import (
    ConfusionCounts,
    best_mcc_threshold,
    compute_auc,
    compute_mcc,
    confusion_at,
    likelihood_ratios,
    sensitivity_specificity,
)
from .model_io import TrainedModel, load_model, predict_model, save_model, train_model
from .similarity import SimilarityComputer, SimilarityMatrix, build_similarity_matrix, document_similarity
from .sle import SleConfig, SleModel, fit_sle, joint_objective
from .synth import GeneratorSpec, generate_arrays, generate_synthetic, parse_generator_spec
from .text import Document, NormalizationConfig, Statement, normalize
from .transforms import TransformKind, TransformWeights, edit_distance, statement_similarity

__version__ = "0.1.0"
