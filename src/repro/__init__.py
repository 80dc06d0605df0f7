"""repro — reproduction of "Performance Evaluation of Analytical Queries on a
Stand-alone and Sharded Document Store" (EDBT 2017).

Subpackages
-----------
``repro.documentstore``
    A from-scratch, in-process document store (the substitute for the
    document database benchmarked in the paper).
``repro.sharding``
    Sharded-cluster components: shards, config server, query router,
    chunk management, balancer, and a simulated network.
``repro.server``
    The served front door: a length-prefixed binary wire protocol, a
    threaded socket server fronting either deployment environment, and a
    pooled remote client re-speaking the Collection API.
``repro.tpcds``
    A scaled-down TPC-DS-style data generator and the four analytical
    queries (7, 21, 46, 50) used in the evaluation.
``repro.core``
    The paper's contribution: the data-migration algorithm, the
    denormalization (document-embedding) algorithm, the SQL-to-document
    query-translation algorithms, and the six experimental setups.
"""

from importlib.metadata import PackageNotFoundError, version

try:  # pragma: no cover - depends on installation mode
    __version__ = version("repro")
except PackageNotFoundError:  # pragma: no cover
    __version__ = "0.0.0.dev0"

__all__ = ["__version__"]
