"""Sequence retrieval for photo stories: skip-gated recurrent cells, a
bidirectional multi-thread RNN, unsupervised skip-structure detection, and a
storyline-constrained contrastive training objective.

Everything operates on precomputed feature and embedding vectors; no image or
text processing happens here.
"""

from .errors import (
    BmrnnError,
    ConfigError,
    DataError,
    DivergenceError,
    ShapeMismatchError,
)
from .numeric import SeededRng, init_params

__version__ = "0.1.0"
