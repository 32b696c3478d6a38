"""Surname-origin inference pipeline.

Curates concentration-filtered "core names" from surname-country occurrence
data, derives a data-driven region typology by clustering countries on their
n-gram profiles, trains a multinomial naive Bayes origin classifier, corrects
aggregate guesses through a prior-reweighted confusion matrix, and compares
populations by representativeness ratios.
"""

import os

# numpy's OpenBLAS starts a worker per extra CPU at import, each spinning for
# about 0.1 s of CPU; onoma's regions-sized products need none. Set before
# numpy is first imported; a caller's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .classifier import (
    Classification,
    EvalReport,
    TrainedModel,
    Labeled,
    classify,
    classify_batch,
    classify_rows,
    evaluate,
    split,
    train,
)
from .corpus import (
    CoreSet,
    CountryRegistry,
    OccurrenceTable,
    filter_core_names,
    ingest,
    normalize_surname,
)
from .correction import (
    ConfusionCounts,
    CorrectionOperator,
    correct_counts,
    correction_operator,
    reweight_priors,
)
from .diversity import (
    OriginDistribution,
    RepresentationProfile,
    canberra,
    distribution,
    emit_report,
    order_profiles,
    representation_ratios,
)
from .errors import ConfigError, InputFormatError, InvariantError, OnomaError, SurnameError
from .features import (
    FeatureMatrix,
    FeatureVector,
    NGramConfig,
    build_vocabulary,
    extract,
    featurize,
)
from .synth import (
    MarkovChain,
    PopulationSpec,
    RegionGenerator,
    Scorecard,
    SynthSpec,
    generate,
    generate_population,
    score_pipeline,
    standard_spec,
)
from .typology import (
    DEFAULT_REGION_LABELS,
    CountryFeatureMatrix,
    Dendrogram,
    Merge,
    Override,
    RegionTypology,
    agglomerate,
    build_country_matrix,
    cut_dendrogram,
    relabel,
    ward_cluster,
)

__version__ = "0.1.0"
