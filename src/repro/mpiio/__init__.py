"""MPI-IO layer: file views, independent I/O, extended two-phase collective I/O.

This is the open-source MPI-IO implementation the paper layers ParColl on
(their OPAL library, itself a ROMIO-derived stack).  It provides:

* file views (displacement + etype + filetype) over derived datatypes,
  tiled across the file with vectorized segment math;
* independent read/write (the POSIX-like ``AD_Sysio`` path);
* the **extended two-phase protocol** (``ext2ph``): file-range gathering,
  file-domain partitioning among I/O aggregators, and interleaved rounds
  of data exchange and file I/O bounded by the collective buffer size —
  with every blocking step charged to the paper's time categories
  ('sync' for collective coordination, 'exchange' for point-to-point
  data movement, 'io' for file reads/writes);
* user hints (``cb_buffer_size``, ``cb_nodes``, ParColl controls);
* the collective protocols (``ext2ph``, ``independent``, ``nodeagg``,
  ``parcoll``) the ``protocol`` hint selects from
  :data:`~repro.mpiio.file.PROTOCOLS`.

Running ext2ph on ``COMM_WORLD`` is the paper's baseline ("Cray"
equivalent); :mod:`repro.parcoll` reuses the same engine per subgroup.
"""

from repro.mpiio.fileview import FileView
from repro.mpiio.hints import IOHints
from repro.mpiio.file import MPIIO, PROTOCOLS, MPIFile

__all__ = ["FileView", "IOHints", "MPIIO", "MPIFile", "PROTOCOLS"]
