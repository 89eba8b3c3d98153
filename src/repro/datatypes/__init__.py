"""MPI derived datatypes with vectorized flattening.

MPI-IO expresses non-contiguous file access through *file views* built
from derived datatypes.  This package implements the constructors the
paper's workloads need — contiguous, vector/hvector, indexed/hindexed,
struct, subarray, resized — and flattens every type to a pair of NumPy
``int64`` arrays ``(offsets, lengths)`` describing its data regions within
one extent.  All downstream segment math (view tiling, file-domain
intersection, ParColl file-area partitioning) is array arithmetic on these
flattened forms, never per-segment Python loops.
"""

from repro.datatypes.base import (BYTE, CHAR, DOUBLE, FLOAT, INT, INT64,
                                  Datatype, Primitive)
from repro.datatypes.constructors import (Contiguous, HIndexed, HVector,
                                          Indexed, Resized, Struct, Subarray,
                                          Vector)
from repro.datatypes.flatten import coalesce, validate_segments
from repro.datatypes.packing import (copy_segments, gather_segments,
                                     scatter_segments)

__all__ = [
    "Datatype",
    "Primitive",
    "BYTE",
    "CHAR",
    "INT",
    "INT64",
    "FLOAT",
    "DOUBLE",
    "Contiguous",
    "Vector",
    "HVector",
    "Indexed",
    "HIndexed",
    "Struct",
    "Subarray",
    "Resized",
    "coalesce",
    "validate_segments",
    "copy_segments",
    "gather_segments",
    "scatter_segments",
]
