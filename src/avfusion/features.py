"""Ordered sets of equal-dimension feature vectors.

A FeatureSet is the unit every intra-modal fusion consumes: n vectors of a
common dimension d, stored as an (n, d) float64 array.  The same container
doubles as the bag of per-transform features that the enhancement
aggregators reduce.
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

    def permuted(self, order) -> "FeatureSet":
        """New FeatureSet with rows reordered by the given index sequence."""
        order = np.asarray(order, dtype=np.int64)
        if sorted(order.tolist()) != list(range(self.n)):
            raise DimMismatch("permutation must reorder exactly the existing rows")
        return FeatureSet(self.vectors[order])


# Enhancement aggregators operate on the same container; the alias keeps call
# sites readable where order carries no meaning.
FeatureBag = FeatureSet
