"""deidkit: detect, verify, and replace PII in text corpora."""

__version__ = "0.1.0"

from .corpus import Category, Document, Placeholder, Span

__all__ = [
    "__version__",
    "Category",
    "Document",
    "Placeholder",
    "Span",
]
