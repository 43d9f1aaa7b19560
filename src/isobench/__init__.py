"""Deterministic testbed for isomorphism-preserving graph transforms
and the expressivity of exact and floating-point graph embedders."""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .errors import (
    ContractError,
    ConvergenceError,
    CorpusIntegrityError,
    GraphParseError,
    IsobenchError,
    NumericError,
    ResourceLimitError,
    UnsupportedSizeError,
)
from .graphs import (
    Graph,
    GraphBatch,
    Permutation,
    apply_permutation,
    parse_edge_list,
    parse_graph6,
    write_edge_list,
    write_graph6,
)
from .quant import quantize_matrix, quantized_row_bytes
from .centrality import (
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    eigenvector_centrality,
)
from .spectral import (
    SIGN_MODES,
    jacobi_eigh,
    laplacian_encoding_columns,
    normalized_laplacian,
    simple_spectrum,
)
from .wl import (
    ColorKey,
    IsoVerdict,
    WLSignature,
    are_isomorphic,
    distinguishes,
    wl1_signature,
    wlk_signature,
)
from .transforms import (
    KINDS,
    TRANSFORMS,
    TransformSpec,
    all_method_specs,
    apply_transform,
    distance_encoding,
    extra_node,
    parse_transform_token,
    subgraph_extraction,
    virtual_node,
)
from .models import (
    ARCHS,
    Embedding,
    MLPParams,
    ModelParams,
    forward,
    init_model,
    node_states,
)
from .evaluate import (
    DEFAULT_CLUSTER_EPS,
    EMBEDDERS,
    LabeledPair,
    PairDataset,
    REPORT_FORMATS,
    ReportRow,
    augment_with_iso_pairs,
    cluster_embeddings,
    ecc,
    evaluate_grid,
    evaluate_pairs,
    make_pair_dataset,
    report_table,
    sort_rows,
    verify_pair_labels,
)
from .corpus import (
    EXPECTATIONS,
    PairingWarning,
    cycle,
    complete,
    disjoint_cycles,
    erdos_renyi,
    hard_pair_library,
    load_dataset,
    pairs_from_graphs,
    path,
    rook4x4,
    shrikhande,
    srg_parameters,
    star,
)

# Every public name imported above; the submodules are reachable as
# attributes but are not part of the star-import surface.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
