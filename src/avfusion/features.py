"""Ordered sets of equal-dimension feature vectors.

A FeatureSet is one sample's input to an intra-modal fusion, and the unit
that feature files and the patch embedder produce: n vectors of a common
dimension d, validated finite and stored as an (n, d) float64 array.  The
pipeline stacks equal-size sets into (B, n, d) arrays.  A synthetic dataset
is already stacked; its ``samples`` build FeatureSets only on access.
"""

import numpy as np

from .errors import DimMismatch
from .numeric import check_finite


class FeatureSet:
    __slots__ = ("vectors",)

    def __init__(self, vectors):
        arr = np.asarray(vectors, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise DimMismatch(
                f"FeatureSet needs n >= 1 vectors of uniform dim >= 1, got shape {arr.shape}"
            )
        self.vectors = check_finite(arr, "FeatureSet")

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return self.n

    def __iter__(self):
        return iter(self.vectors)

    def __repr__(self) -> str:
        return f"FeatureSet(n={self.n}, dim={self.dim})"

