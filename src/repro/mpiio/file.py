"""MPI-IO file objects: open/view/read/write/close.

``MPIIO`` is the per-simulation library instance (binds the world to a
file system); ``MPIFile`` is one rank's handle on an open file.  Explicit
offsets are in *etype units* (MPI semantics); data buffers are dense
``uint8`` arrays matching the view's data order, or ``None`` with an
explicit ``nbytes`` in model mode.

``*_all`` operations look the ``protocol`` hint up in :data:`PROTOCOLS`
and delegate — the file layer holds no strategy logic of its own:
``ext2ph`` (the paper's baseline), ``independent`` (the paper's "w/o
Coll" configuration), ``nodeagg`` (intra-node request aggregation) and
``parcoll`` (partitioned collective I/O).  All ranks of one collective
call must use the same protocol; divergence raises
:class:`~repro.errors.ParCollError` (the same symmetry contract the
collective backends enforce).

On close, every rank's per-category times since open are gathered to rank
0 — the run summary the paper's profiling reports at file close.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Mapping, Optional

import numpy as np

from repro.datatypes.base import BYTE, Datatype
from repro.errors import MPIIOError, ParCollError
from repro.lustre.fs import LustreFS
from repro.mpiio.fileview import FileView
from repro.mpiio.hints import IOHints
from repro.mpiio.independent import independent_read, independent_write
from repro.mpiio.nodeagg import nodeagg_read, nodeagg_write
from repro.mpiio.two_phase import IOEnv, collective_read, collective_write
from repro.simmpi.world import Communicator, World


def _parcoll_write(env, segs, data, state):
    # imported on first use: repro.parcoll itself imports repro.mpiio
    from repro.parcoll.driver import parcoll_write

    return parcoll_write(env, segs, data, state)


def _parcoll_read(env, segs, state):
    from repro.parcoll.driver import parcoll_read

    return parcoll_read(env, segs, state)


#: the ``protocol`` hint's values -> ``(write, read)``: generator
#: functions ``write(env, segs, data, state)`` (returns the bytes this
#: rank wrote) and ``read(env, segs, state)`` (returns dense bytes, None
#: in model mode) that every rank of the communicator runs.  ``state``
#: is the protocol's slot of the shared file handle.
PROTOCOLS: dict[str, tuple[Callable, Callable]] = {
    # the paper's baseline: extended two-phase over the whole communicator
    "ext2ph": (lambda env, segs, data, state:
               collective_write(env, segs, data),
               lambda env, segs, state: collective_read(env, segs)),
    # the paper's "w/o Coll": every rank issues its own file operations
    "independent": (lambda env, segs, data, state:
                    independent_write(env, segs, data),
                    lambda env, segs, state: independent_read(env, segs)),
    # cores funnel their requests to a node leader (Kang et al.)
    "nodeagg": (nodeagg_write, nodeagg_read),
    # the paper's partitioned collective I/O
    "parcoll": (_parcoll_write, _parcoll_read),
}


class _SharedFile:
    """State shared by all ranks holding one (communicator, file) pair."""

    __slots__ = ("lfile", "protocol_state", "protocol_ops")

    def __init__(self, lfile):
        self.lfile = lfile
        #: per-protocol shared-state slots, keyed by protocol name
        #: (cached subgroup communicators, partition plans, leader comms)
        self.protocol_state: dict[str, dict] = {}
        #: per-collective-op protocol ledger for the symmetry check
        self.protocol_ops: dict[int, list] = {}

    def state_for(self, name: str) -> dict:
        """This protocol's private shared-state slot (created on demand)."""
        return self.protocol_state.setdefault(name, {})

    def invalidate_state(self) -> None:
        """Drop every protocol's cached shared state (hints changed)."""
        self.protocol_state.clear()

    @property
    def parcoll_cache(self) -> dict:
        """ParColl's state slot (kept under its historical name)."""
        return self.state_for("parcoll")


class MPIIO:
    """The MPI-IO library instance for one simulated world.

    ``validate`` turns on the :mod:`repro.validate` correctness oracle
    for every file opened through this instance: ``True``/``False`` are
    explicit, ``None`` (default) defers to the ``REPRO_VALIDATE``
    environment variable.
    """

    def __init__(self, world: World, fs: LustreFS,
                 validate: Optional[bool] = None,
                 default_hints: Optional[Mapping[str, Any]] = None):
        self.world = world
        self.fs = fs
        #: hint defaults applied under every dict/None ``open`` (explicit
        #: IOHints instances bypass them); how ExperimentConfig threads a
        #: platform-wide protocol choice through to workloads
        self.default_hints = dict(default_hints) if default_hints else None
        self._shared: dict[tuple, _SharedFile] = {}
        if validate is None:
            from repro.validate import env_validate_enabled

            validate = env_validate_enabled()
        self.validator = None
        if validate:
            from repro.validate import Validator

            self.validator = Validator()

    def open(self, comm: Communicator, name: str,
             hints: Optional[IOHints | dict] = None,
             stripe_count: Optional[int] = None,
             stripe_size: Optional[int] = None
             ) -> Generator[Any, Any, "MPIFile"]:
        """Collective open: every rank of ``comm`` must call."""
        if hints is None or isinstance(hints, dict):
            merged = dict(self.default_hints or {})
            merged.update(hints or {})
            hints = IOHints.from_dict(merged)
        t0 = comm.now
        lfile = yield from self.fs.open(name, create=True,
                                        stripe_count=stripe_count,
                                        stripe_size=stripe_size,
                                        client=comm.proc.rank)
        comm.proc.breakdown.add("meta", comm.now - t0)
        key = (comm.desc.ctx, name)
        shared = self._shared.get(key)
        if shared is None:
            shared = _SharedFile(lfile)
            self._shared[key] = shared
        return MPIFile(self, comm, shared, hints)


class MPIFile:
    """One rank's handle on an open file."""

    def __init__(self, io: MPIIO, comm: Communicator, shared: _SharedFile,
                 hints: IOHints):
        self.io = io
        self.comm = comm
        self.shared = shared
        self.hints = hints
        self.view = FileView(0, BYTE, BYTE)
        self._fp = 0  # individual file pointer, in etype units
        self._coll_seq = 0  # collective-op counter (protocol symmetry)
        self._open_snapshot = comm.proc.breakdown.snapshot()
        self._closed = False
        #: active correctness oracle for this file (None = off)
        self._validator = io.validator

    # ------------------------------------------------------------------
    @property
    def lfile(self):
        return self.shared.lfile

    def _env(self) -> IOEnv:
        return IOEnv(comm=self.comm, machine=self.io.world.machine,
                     fs=self.io.fs, lfile=self.lfile, hints=self.hints,
                     validator=self._validator)

    def set_view(self, disp: int = 0, etype: Datatype = BYTE,
                 filetype: Optional[Datatype] = None) -> None:
        """Install a new file view; resets the individual file pointer."""
        self._check_open()
        self.view = FileView(disp, etype, filetype)
        self._fp = 0

    def set_hints(self, **kwargs: Any) -> None:
        """Adjust hints on an open file (e.g. switch protocol per phase).

        Like ``MPI_File_set_info`` this is called symmetrically on every
        rank.  Changing any hint drops the per-protocol shared state:
        every hint shapes some cached state (a ParColl partition plan,
        the subgroup or leader communicators split from the file's
        communicator), and state cached under the old hints must not
        leak into the new epoch.
        """
        old = self.hints
        self.hints = old.with_(**kwargs)
        if self.hints != old:
            self.shared.invalidate_state()

    def set_info(self, info: Mapping[str, Any]) -> None:
        """MPI_File_set_info analog: apply a hint mapping to an open file."""
        self.set_hints(**dict(info))

    def _dispatch(self):
        """The protocol's ``(write, read)`` pair and its shared-state
        slot for one collective op.

        Each rank logs the protocol it uses for its n-th collective op
        in a shared ledger; the first divergence raises
        :class:`ParCollError` on the rank that exposes it.  Entries clear
        once every rank arrived, so the ledger stays O(in-flight ops).
        """
        name = self.hints.protocol
        ledger = self.shared.protocol_ops
        self._coll_seq += 1
        entry = ledger.get(self._coll_seq)
        if entry is None:
            entry = [name, self.comm.rank, 0]
            ledger[self._coll_seq] = entry
        elif entry[0] != name:
            raise ParCollError(
                f"collective protocol mismatch on {self.lfile.name!r} "
                f"op #{self._coll_seq}: rank {self.comm.rank} uses "
                f"{name!r} but rank {entry[1]} used {entry[0]!r}; all "
                f"ranks must use the same protocol (one of "
                f"{', '.join(PROTOCOLS)})"
            )
        entry[2] += 1
        if entry[2] == self.comm.size:
            del ledger[self._coll_seq]
        return PROTOCOLS[name], self.shared.state_for(name)

    def _check_open(self) -> None:
        if self._closed:
            raise MPIIOError("operation on a closed file")

    def _access(self, offset_et: int, nbytes: int):
        if offset_et < 0 or nbytes < 0:
            raise MPIIOError(f"invalid access (offset {offset_et}, {nbytes}B)")
        es = self.view.etype.size
        lo = offset_et * es
        return self.view.segments_for(lo, lo + nbytes)

    @staticmethod
    def _data_nbytes(data: Optional[np.ndarray], nbytes: Optional[int]) -> int:
        if data is not None:
            arr = np.asarray(data)
            return int(arr.size * arr.itemsize)
        if nbytes is None:
            raise MPIIOError("model-mode access needs an explicit nbytes")
        return int(nbytes)

    @staticmethod
    def _as_bytes(data: Optional[np.ndarray]) -> Optional[np.ndarray]:
        if data is None:
            return None
        arr = np.asarray(data)
        return np.frombuffer(arr.tobytes(), dtype=np.uint8) if arr.dtype != np.uint8 \
            else arr.ravel()

    # ------------------------------------------------------------------
    # collective operations (every rank of the communicator must call)
    # ------------------------------------------------------------------
    def write_at_all(self, offset_et: int, data: Optional[np.ndarray] = None,
                     nbytes: Optional[int] = None
                     ) -> Generator[Any, Any, int]:
        """Collective write at an explicit offset (etype units)."""
        self._check_open()
        n = self._data_nbytes(data, nbytes)
        segs = self._access(offset_et, n)
        payload = self._as_bytes(data)
        env = self._env()
        if self._validator is not None:
            self._validator.record_write(self.lfile, segs, payload)
        (write, _read), state = self._dispatch()
        written = yield from write(env, segs, payload, state)
        if self._validator is not None:
            self._validator.after_collective_write(self.lfile, self.comm.size)
        return written

    def read_at_all(self, offset_et: int, nbytes: int
                    ) -> Generator[Any, Any, Optional[np.ndarray]]:
        """Collective read at an explicit offset (etype units)."""
        self._check_open()
        segs = self._access(offset_et, nbytes)
        env = self._env()
        (_write, read), state = self._dispatch()
        out = yield from read(env, segs, state)
        if self._validator is not None:
            self._validator.check_read(self.lfile, segs, out)
        return out

    def write_all(self, data: Optional[np.ndarray] = None,
                  nbytes: Optional[int] = None) -> Generator[Any, Any, int]:
        """Collective write at the individual file pointer."""
        n = self._data_nbytes(data, nbytes)
        es = self.view.etype.size
        if n % es:
            raise MPIIOError(f"access of {n}B is not a multiple of etype ({es}B)")
        written = yield from self.write_at_all(self._fp, data, nbytes)
        self._fp += n // es
        return written

    def read_all(self, nbytes: int) -> Generator[Any, Any, Optional[np.ndarray]]:
        """Collective read at the individual file pointer."""
        es = self.view.etype.size
        if nbytes % es:
            raise MPIIOError(f"access of {nbytes}B is not a multiple of etype")
        out = yield from self.read_at_all(self._fp, nbytes)
        self._fp += nbytes // es
        return out

    # ------------------------------------------------------------------
    # independent operations
    # ------------------------------------------------------------------
    def write_at(self, offset_et: int, data: Optional[np.ndarray] = None,
                 nbytes: Optional[int] = None) -> Generator[Any, Any, int]:
        """Independent write at an explicit offset (etype units)."""
        self._check_open()
        n = self._data_nbytes(data, nbytes)
        segs = self._access(offset_et, n)
        payload = self._as_bytes(data)
        token = None
        if self._validator is not None:
            token = self._validator.record_write(self.lfile, segs, payload)
        written = yield from independent_write(self._env(), segs, payload)
        if self._validator is not None:
            # the calling rank applied its own bytes, so call return
            # means the write landed: retire its happens-before token
            self._validator.after_write(self.lfile, token)
        return written

    def read_at(self, offset_et: int, nbytes: int
                ) -> Generator[Any, Any, Optional[np.ndarray]]:
        """Independent read at an explicit offset (etype units)."""
        self._check_open()
        segs = self._access(offset_et, nbytes)
        out = yield from independent_read(self._env(), segs)
        if self._validator is not None:
            # oracle-checked only when the read provably happens after
            # every overlapping write (shadow happens-before tracker)
            self._validator.check_independent_read(self.lfile, segs, out)
        return out

    # ------------------------------------------------------------------
    def close(self) -> Generator[Any, Any, Optional[dict]]:
        """Collective close; rank 0 gets the per-category time summary."""
        self._check_open()
        comm = self.comm
        yield from comm.barrier(category="sync")
        if self._validator is not None and comm.rank == 0:
            # all ranks passed the barrier, so every recorded write —
            # collective or independent — has reached the file system
            self._validator.check_file(self.lfile)
        t0 = comm.now
        yield from self.io.fs.mds_close(client=comm.proc.rank)
        comm.proc.breakdown.add("meta", comm.now - t0)
        delta = {
            cat: t - self._open_snapshot.get(cat, 0.0)
            for cat, t in comm.proc.breakdown.snapshot().items()
        }
        all_deltas = yield from comm.gather(delta, root=0, category="sync")
        self._closed = True
        if comm.rank != 0:
            return None
        cats = sorted({c for d in all_deltas for c in d})
        return {
            c: {
                "max": max(d.get(c, 0.0) for d in all_deltas),
                "mean": sum(d.get(c, 0.0) for d in all_deltas) / len(all_deltas),
            }
            for c in cats
        }
