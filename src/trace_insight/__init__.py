"""Analysis toolkit for co-located datacenter traces: parsing, gap repair,
per-interval usage attribution, DTW similarity, workload-distribution
classification, and isolation-forest anomaly ranking."""

__version__ = "0.1.0"

from .trace_model import (  # noqa: F401
    IntervalGrid,
    TraceBundle,
    TraceParseError,
    parse_trace_dir,
    write_trace_dir,
)
from .preprocess import (  # noqa: F401
    AmbiguousDuplicateError,
    filter_container_events,
    interpolate_gap,
    supplement_server_usage,
)
from .aggregate import (  # noqa: F401
    SeriesTable,
    aggregate_batch_usage,
    aggregate_container_usage,
    build_machine_series,
    overlap_runtime,
)
from .similarity import (  # noqa: F401
    dtw_distance,
    score_similarity,
    select_standard,
)
from .classify import (  # noqa: F401
    category_report,
    kmeans_fit,
    label_clusters,
    occupancy_matrix,
)
from .anomaly import (  # noqa: F401
    build_feature_matrix,
    diagnose,
    iforest_fit,
    rank_anomalies,
    score_machines,
)
from .synth import (  # noqa: F401
    SynthConfig,
    generate_trace,
    plant_gap,
)
