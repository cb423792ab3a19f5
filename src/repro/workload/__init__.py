"""Query families, constant selection, and workload sampling."""

from .nref_families import generate_nref2j, generate_nref3j
from .sampling import sample_benchmark_workload, stratified_sample
from .tpch_families import generate_skth3j, generate_skth3js, generate_unth3j
from .updates import break_even_inserts, nref_neighboring_batch
from .workload import QueryInstance, Workload, make_instance

__all__ = [
    "QueryInstance", "Workload", "generate_nref2j", "generate_nref3j",
    "generate_skth3j", "generate_skth3js", "generate_unth3j",
    "make_instance", "sample_benchmark_workload", "stratified_sample",
    "break_even_inserts", "nref_neighboring_batch",
]
