"""Exact connected-partition profiles, connected max cuts, and certified
constructive lower bounds for small graphs."""

from .arith import (
    build_t_table,
    count_partitions,
    erdos_lehner_estimate,
    t_preimage_closed_form,
    t_runs,
    t_value,
)
from .bounds import (
    connected_cut_bound,
    dense_core,
    long_path,
    ordered_vertex_partitions,
    packing_partitions,
    path_cut_partitions,
    spanning_tree_packing,
)
from .errors import PartctlError
from .exact import (
    cmc,
    cut_size,
    edge_partition_profile,
    gyori_lovasz,
    validate_vertex_partition,
    vertex_partition_profile,
)
from .families import (
    make_binary_clique_graph,
    make_complete_ternary,
    make_nonmonotone_example,
    make_T_ell,
    random_connected_graph,
    random_tree,
)
from .graph import (
    Graph,
    RootedTree,
    bits,
    blocks,
    components,
    is_biconnected,
    is_connected,
    is_connected_edge_set,
    is_connected_vertex_set,
    mask_of,
    min_degree,
    read_graph,
    st_numbering,
    write_graph,
)
from .splits import (
    nested_split_sequence,
    profile_of,
    recursive_k_partitions,
    tree_exact_P2,
    tree_lower_bound_partitions,
    validate_edge_partition,
)

__version__ = "0.1.0"
