"""Metaheuristic optimization, evolutionary clustering, and formal-context
reduction under one roof.

The pieces: a benchmark catalog with seeded population optimizers and exact
rank statistics; an evolutionary clusterer with k-means baselines and six
quality criteria; formal concept analysis with a taxonomy-driven context
reducer. The `evoclust` CLI fronts all of it.
"""

from .benchmarks import (CATALOG, BenchmarkFunction, catalog_rows, evaluate,
                         evaluate_batch, get_function, reference_minimum)
from .datasets import Dataset, gaussian_blobs, load_dataset, load_points, save_points
from .ecastar import (EcaParams, EcaState, clustering_one, clustering_two,
                      init_assign, mut_over, run_eca_star)
from .fca import (Concept, ConceptLattice, FormalContext, PackedConcepts,
                  build_lattice, derive_concepts, hasse_edges, invariants,
                  lattice_quality, read_cxt, write_cxt)
from .kmeans import KmConfig, kmeans, kmeans_pp_seed
from .measures import (Clustering, assign_nearest, intra_cluster,
                       percentile_ranks, solution_inter)
from .metrics import (QualityReport, centroid_index, csi, eps_ratio, nmi,
                      nmse, quality_report, sse)
from .optimizers import (ALGORITHMS, OptimizerConfig, RunResult,
                         boundary_control, bsa_crossover, bsa_init,
                         bsa_mutation, bsa_selection1, bsa_selection2,
                         run_optimizer, run_repetitions)
from .reducer import (MergeEvent, ReduceParams, Taxonomy, classify_pair,
                      common_hypernym, enumerate_pairs, load_taxonomy,
                      merge_pair, reduce_context)
from .reports import (BenchConfig, ClusterConfig, FcaConfig, run_bench_suite,
                      run_cluster_suite, run_fca_suite, run_report,
                      scrub_timing)
from .rng import (GENERATOR_NAME, LevyParams, RngStream, levy_step, permute,
                  standard_normal, stream_for_run, uniform, uniform_matrix)
from .stats import (SummaryStats, WilcoxonResult, success_ratio, summarize,
                    wilcoxon_signed_rank)

__version__ = "0.1.0"
