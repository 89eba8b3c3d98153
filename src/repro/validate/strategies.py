"""Hypothesis strategies for the validation generator fleet.

Kept in the package (not the test tree) so property tests, the CI smoke
harness, and future fuzz drivers share one vocabulary of "interesting"
configurations.  Importing this module requires Hypothesis; nothing else
in :mod:`repro.validate` does.
"""

from __future__ import annotations

from hypothesis import strategies as st

from repro.faults import FaultPlan
from repro.validate.differential import BACKENDS, PATTERNS, DiffCase
from repro.workloads.synthetic import SyntheticConfig


def synthetic_configs(max_procs: int = 8) -> st.SearchStrategy[SyntheticConfig]:
    """Random file views: the Figure 4 families over small rank counts."""
    return st.builds(
        SyntheticConfig,
        pattern=st.sampled_from(PATTERNS),
        nprocs=st.integers(2, max_procs),
        bytes_per_rank=st.sampled_from([256, 512, 1024, 2048, 4096]),
        piece_bytes=st.sampled_from([64, 128, 256]),
        seed=st.integers(0, 100_000),
    )


def stripe_settings() -> st.SearchStrategy[dict]:
    """Lustre tilings: stripe size/count over a small OST pool."""
    return st.sampled_from([2, 4]).flatmap(lambda n_osts: st.fixed_dictionaries({
        "stripe_size": st.sampled_from([256, 512, 1024]),
        "stripe_count": st.sampled_from(sorted({1, 2, n_osts})),
        "n_osts": st.just(n_osts),
    }))


def backend_modes() -> st.SearchStrategy[str]:
    """Every backend of the differential grid."""
    return st.sampled_from(BACKENDS)


def protocol_hints() -> st.SearchStrategy[dict]:
    """Hint dicts spanning every collective protocol."""
    parcoll = st.fixed_dictionaries({
        "protocol": st.just("parcoll"),
        "parcoll_ngroups": st.sampled_from([2, 3, 4, 8]),
        "parcoll_data_path": st.sampled_from(["physical", "logical"]),
    })
    ext2ph = st.fixed_dictionaries({
        "protocol": st.just("ext2ph"),
        "cb_buffer_size": st.sampled_from([512, 4 << 20]),
    })
    nodeagg = st.fixed_dictionaries({
        "protocol": st.just("nodeagg"),
        "parcoll_ngroups": st.sampled_from([1, 2, 4]),
    })
    return st.one_of(st.just({"protocol": "independent"}), ext2ph, parcoll,
                     nodeagg)


def fault_plans() -> st.SearchStrategy[FaultPlan]:
    """Byte-preserving fault plans (perf-only faults, or none at all)."""
    return st.one_of(
        st.just(FaultPlan()),
        st.builds(FaultPlan.straggler_ost,
                  ost=st.integers(0, 1),
                  factor=st.floats(0.25, 0.9)),
        st.builds(FaultPlan.slow_node,
                  node=st.just(0),
                  factor=st.floats(0.3, 0.9)),
    )


def diff_cases(workload: str = "synthetic") -> st.SearchStrategy[DiffCase]:
    """Full differential-harness cases (see :func:`run_case`).

    ``workload`` selects the case source: ``'synthetic'`` (default)
    draws Figure 4 patterns, ``'btio'``/``'flash_io'`` run the workload
    program (btio cases pin a square process count).
    """
    def build(cfg: SyntheticConfig, stripes: dict, backend: str,
              ngroups: int, data_path: str, plan: FaultPlan,
              nprocs_sq: int) -> DiffCase:
        return DiffCase(
            workload=workload,
            pattern=cfg.pattern,
            nprocs=nprocs_sq if workload == "btio" else cfg.nprocs,
            bytes_per_rank=cfg.bytes_per_rank,
            piece_bytes=cfg.piece_bytes, seed=cfg.seed,
            stripe_size=stripes["stripe_size"],
            stripe_count=stripes["stripe_count"],
            n_osts=stripes["n_osts"],
            ngroups=ngroups, data_path=data_path, backend=backend,
            faults=None if plan.is_empty else plan.to_dict(),
        )

    return st.builds(
        build,
        cfg=synthetic_configs(),
        stripes=stripe_settings(),
        backend=backend_modes(),
        ngroups=st.sampled_from([2, 3, 4, 8]),
        data_path=st.sampled_from(["physical", "logical"]),
        plan=fault_plans(),
        nprocs_sq=st.sampled_from([4, 9]),
    )
