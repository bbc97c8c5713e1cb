"""Stream-sampling substrates.

The paper's fundamental building block — *graph reservoir sampling* —
is assembled from these pieces:

* :class:`RandomPairingReservoir` — bounded-size uniform sample under
  insertions **and** deletions (random pairing), whose batch update
  takes a veto hook so the clusterer can refuse constraint-violating
  admissions.
  The clusterer runs its packed-edge-key subclass
  (:class:`~repro.sampling.random_pairing.PackedEdgeReservoir`), or the
  numpy kernel's (:mod:`repro.sampling.vectorized`).
* :class:`WeightedReservoir` — weight-proportional sampling, the
  substrate of the weighted clusterer extension.
"""

from repro.sampling.random_pairing import RandomPairingReservoir
from repro.sampling.weighted import WeightedReservoir

__all__ = [
    "RandomPairingReservoir",
    "WeightedReservoir",
]
