"""Analysis toolkit for co-located datacenter traces: parsing, gap repair,
per-interval usage attribution, DTW similarity, workload-distribution
classification, and isolation-forest anomaly ranking.

Import the submodule that defines a name (``from trace_insight import
pipeline``); ``import trace_insight`` itself loads no submodule (and no
numpy)."""

__version__ = "0.1.0"
