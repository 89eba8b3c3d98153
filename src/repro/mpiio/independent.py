"""Independent (non-collective) I/O: the AD_Sysio-like direct path.

Each process translates its view access to physical segments and issues
the file-system operation itself — no coordination, no aggregation.  This
is the paper's "Cray w/o Coll" configuration: fine for large contiguous
requests, catastrophic for fine-grained interleaved access (every client
fights for OST locks and pays per-RPC overheads on small chunks).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

import numpy as np

from repro.datatypes.flatten import Segments
from repro.mpiio.two_phase import IOEnv


def independent_write(env: IOEnv, segs: Segments,
                      data: Optional[np.ndarray]
                      ) -> Generator[Any, Any, int]:
    """Write my segments directly; returns bytes written."""
    comm = env.comm
    offs, lens = segs
    total = int(lens.sum())
    if total == 0:
        return 0
    t0 = comm.now
    yield from env.fs.write(env.lfile, client=comm.proc.rank,
                            offsets=offs, lengths=lens, data=data)
    env.charge_io(t0)
    return total


def independent_read(env: IOEnv, segs: Segments
                     ) -> Generator[Any, Any, Optional[np.ndarray]]:
    """Read my segments directly; returns dense bytes (None in model mode)."""
    comm = env.comm
    offs, lens = segs
    if int(lens.sum()) == 0:
        return np.empty(0, np.uint8) if env.lfile.store is not None else None
    t0 = comm.now
    out = yield from env.fs.read(env.lfile, client=comm.proc.rank,
                                 offsets=offs, lengths=lens)
    env.charge_io(t0)
    return out
