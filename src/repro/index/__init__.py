"""B+-tree indexes: definitions, size model, built data."""

from .data import IndexData
from .definition import IndexDefinition, estimate_index_size

__all__ = ["IndexData", "IndexDefinition", "estimate_index_size"]
