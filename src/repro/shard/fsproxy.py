"""The shard-local stand-in for the machine-global Lustre instance.

OST bandwidth, MDS serialization, lock-manager state, fault RPC
schedules and jitter RNG streams are machine-global — they cannot be
partitioned along subgroup boundaries, because ParColl's file areas
stripe over shared OSTs.  The coordinator therefore owns the one real
:class:`~repro.lustre.LustreFS`, and every shard talks to it through
this proxy: each operation becomes a timestamped request, the shard's
engine parks until the reply injects the authoritative completion time,
and the elapsed virtual time (hence every 'io'/'meta' breakdown charge)
is exactly what the unsharded run would have measured.

The proxy keeps *replica* :class:`~repro.lustre.fs.LustreFile` objects:
layout parameters come from the open reply, and the local store/extent
tracker absorb this shard's own writes.  That makes the PR 5 shadow-file
oracle work per shard — the worker's validator compares shard-local
shadow state against shard-local replica state, which is the "oracle on
a sampled shard" check the sharding gate runs.  Reads return the
coordinator's data (the authoritative global content).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

import numpy as np

from repro.errors import FileSystemError
from repro.lustre.fs import LustreFile, LustreParams
from repro.lustre.layout import StripeLayout


class RemoteOpError:
    """A coordinator-side exception, shipped as a reply value.

    The proxy re-raises it inside the requesting task's generator at the
    reply's virtual time, so e.g. a
    :class:`~repro.errors.FaultExhaustedError` surfaces through exactly
    the same stack it would in an unsharded run.
    """

    __slots__ = ("exc",)

    def __init__(self, exc: BaseException):
        self.exc = exc

    def __getstate__(self):
        return self.exc

    def __setstate__(self, exc):
        self.exc = exc


class ShardFS:
    """Duck-typed :class:`~repro.lustre.LustreFS` backed by round trips."""

    def __init__(self, engine, params: LustreParams, runtime):
        self.engine = engine
        self.params = params
        self._rt = runtime
        self._files: dict[str, LustreFile] = {}
        self._retry_accum: dict[int, tuple[float, int]] = {}
        self.bytes_written = 0
        self.bytes_read = 0

    # ------------------------------------------------------------------
    # metadata
    # ------------------------------------------------------------------
    def open(self, name: str, create: bool = True,
             stripe_count: Optional[int] = None,
             stripe_size: Optional[int] = None,
             client: int = -1) -> Generator[Any, Any, LustreFile]:
        layout = yield from self._rt.fs_call(
            client, "open", (name, create, stripe_count, stripe_size))
        f = self._files.get(name)
        if f is None:
            ssize, scount, n_osts, start_ost, store_data = layout
            f = LustreFile(name, StripeLayout(stripe_size=ssize,
                                              stripe_count=scount,
                                              n_osts=n_osts,
                                              start_ost=start_ost),
                           store_data)
            self._files[name] = f
        return f

    def lookup(self, name: str) -> LustreFile:
        f = self._files.get(name)
        if f is None:
            raise FileSystemError(f"no such file: {name!r}")
        return f

    def unlink(self, name: str, client: int = -1) -> Generator[Any, Any, None]:
        yield from self._rt.fs_call(client, "unlink", (name,))
        self._files.pop(name, None)

    def mds_close(self, client: int = -1) -> Generator[Any, Any, None]:
        yield from self._rt.fs_call(client, "mds_close", ())

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def take_retry(self, client: int) -> tuple[float, int]:
        return self._retry_accum.pop(client, (0.0, 0))

    def _add_retry(self, client: int, delta: tuple[float, int]) -> None:
        if delta and (delta[0] or delta[1]):
            held_s, held_n = self._retry_accum.get(client, (0.0, 0))
            self._retry_accum[client] = (held_s + delta[0],
                                         held_n + delta[1])

    def write(self, f: LustreFile, client: int, offsets, lengths,
              data: Optional[np.ndarray] = None) -> Generator[Any, Any, int]:
        offsets = np.asarray(offsets, dtype=np.int64).ravel()
        lengths = np.asarray(lengths, dtype=np.int64).ravel()
        total = int(lengths.sum())
        flat = None
        if f.store is not None:
            if data is None:
                raise FileSystemError(
                    "verified-mode write requires data (or set "
                    "store_data=False)")
            flat = np.asarray(data, dtype=np.uint8).ravel()
            if flat.size != total:
                raise FileSystemError(
                    f"data has {flat.size} bytes, segments cover {total}")
            f.store.write_segments(offsets, lengths, flat)
        for off, ln in zip(offsets.tolist(), lengths.tolist()):
            f.tracker.write(off, ln)
        got, delta = yield from self._rt.fs_call(
            client, "write", (f.name, offsets, lengths, flat))
        self._add_retry(client, delta)
        self.bytes_written += total
        return got

    def read(self, f: LustreFile, client: int, offsets, lengths
             ) -> Generator[Any, Any, Optional[np.ndarray]]:
        offsets = np.asarray(offsets, dtype=np.int64).ravel()
        lengths = np.asarray(lengths, dtype=np.int64).ravel()
        data, delta = yield from self._rt.fs_call(
            client, "read", (f.name, offsets, lengths))
        self._add_retry(client, delta)
        self.bytes_read += int(lengths.sum())
        return data
