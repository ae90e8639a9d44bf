"""repro: a reproduction of CausalEC (Cadambe & Lyu, PODC 2023).

CausalEC is a causally consistent read/write data store that stores data
with an arbitrary linear erasure code -- including *cross-object* codes,
where a server's codeword symbol mixes several objects -- while keeping
writes local and serving reads from any recovery set of the code.

Public API highlights::

    from repro import (
        CausalECCluster, ServerConfig,       # the protocol
        example1_code, six_dc_code,          # paper example codes
        reed_solomon_code, replication_code, # standard codes
        PrimeField, GF256,                   # finite fields
        check_causal_consistency,            # Definition 5 checker
    )

See README.md for a tour, DESIGN.md for the system inventory, and
EXPERIMENTS.md for the paper-vs-measured record.
"""

from .consistency import (
    CausalViolation,
    History,
    Operation,
    check_causal_consistency,
    check_eventual_visibility,
    check_returns_written_values,
)
from .core import (
    LOCALHOST,
    CausalECCluster,
    CausalECServer,
    Client,
    Cluster,
    CostModel,
    DurableStore,
    HomeServerUnavailable,
    RetryPolicy,
    ServerConfig,
    Tag,
    VectorClock,
    zero_tag,
)
from .protocol import (
    FailureDetectorConfig,
    RepairConfig,
)
from .ec import (
    GF256,
    BinaryExtensionField,
    Field,
    LinearCode,
    PrimeField,
    default_field,
    example1_code,
    partial_replication_code,
    reed_solomon_code,
    replication_code,
    six_dc_code,
)
from .sim import (
    ChaosConfig,
    ChaosResult,
    ChaosSchedule,
    ConstantLatency,
    ExponentialLatency,
    LinkFaults,
    MatrixLatency,
    Network,
    PartitionPlan,
    PartitionWindow,
    ReliableTransport,
    Scheduler,
    TransportConfig,
    UniformLatency,
    run_chaos,
    run_chaos_suite,
)

__version__ = "1.0.0"

__all__ = [
    # core
    "CausalECCluster",
    "CausalECServer",
    "Cluster",
    "Client",
    "ServerConfig",
    "CostModel",
    "Tag",
    "VectorClock",
    "zero_tag",
    "LOCALHOST",
    # erasure coding
    "Field",
    "PrimeField",
    "BinaryExtensionField",
    "GF256",
    "default_field",
    "LinearCode",
    "replication_code",
    "partial_replication_code",
    "reed_solomon_code",
    "example1_code",
    "six_dc_code",
    # simulation
    "Scheduler",
    "Network",
    "ConstantLatency",
    "MatrixLatency",
    "UniformLatency",
    "ExponentialLatency",
    # fault tolerance
    "LinkFaults",
    "PartitionPlan",
    "PartitionWindow",
    "ReliableTransport",
    "TransportConfig",
    "RetryPolicy",
    "HomeServerUnavailable",
    "DurableStore",
    "FailureDetectorConfig",
    "RepairConfig",
    "ChaosConfig",
    "ChaosSchedule",
    "ChaosResult",
    "run_chaos",
    "run_chaos_suite",
    # consistency
    "History",
    "Operation",
    "CausalViolation",
    "check_causal_consistency",
    "check_eventual_visibility",
    "check_returns_written_values",
]

# subpackages re-exported for convenience
from . import analysis, baselines, workloads  # noqa: E402
from .baselines import (  # noqa: E402
    FullReplicationCluster,
    IntraObjectCluster,
    PartialReplicationCluster,
)
from .workloads import (  # noqa: E402
    ClosedLoopDriver,
    UniformGenerator,
    WorkloadConfig,
    ZipfianGenerator,
)

__all__ += [
    "analysis",
    "baselines",
    "workloads",
    "FullReplicationCluster",
    "PartialReplicationCluster",
    "IntraObjectCluster",
    "ClosedLoopDriver",
    "WorkloadConfig",
    "UniformGenerator",
    "ZipfianGenerator",
]

from . import kv  # noqa: E402
from .kv import CausalKVStore, single_store  # noqa: E402

__all__ += ["kv", "CausalKVStore", "single_store"]
