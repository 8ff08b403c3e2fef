"""qlayout: an RL-based qubit layout engine.

Maps logical qubits of a quantum circuit onto physical qubits of a device
by scoring layouts with a quadratic-assignment SWAP-cost objective,
generating candidates with a graph-attention pointer policy, and refining
them with stochastic local search.
"""

from .circuit import (
    Circuit,
    Gate,
    ProgramGraph,
    build_program_graph,
    extract_features,
    parse_qasm,
)
from .objective import (
    CostModel,
    Layout,
    brute_force_optimal,
    reward,
    swap_cost,
)
from .policy import DecoderConfig, EncoderConfig, PolicyNetwork
from .postprocess import SearchConfig, SearchStats, local_search, neighbor
from .topology import (
    CouplingGraph,
    DistanceMatrix,
    all_pairs_distances,
    build_grid,
    build_heavy_hex,
    load_coupling_graph,
)
from .training import (
    DecodeStrategy,
    TrainConfig,
    decode,
    gen_random_instance,
    rollout,
    train,
    train_new,
)

__version__ = "0.1.0"

__all__ = [
    "Circuit", "Gate", "ProgramGraph", "build_program_graph",
    "extract_features", "parse_qasm",
    "CostModel", "Layout", "brute_force_optimal", "reward", "swap_cost",
    "DecoderConfig", "EncoderConfig", "PolicyNetwork",
    "SearchConfig", "SearchStats", "local_search", "neighbor",
    "CouplingGraph", "DistanceMatrix", "all_pairs_distances", "build_grid",
    "build_heavy_hex", "load_coupling_graph",
    "DecodeStrategy", "TrainConfig", "decode", "gen_random_instance",
    "rollout", "train", "train_new",
]
