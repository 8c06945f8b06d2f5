"""Benchmark dataset registry (synthetic stand-ins for Table II), with
the streaming SNAP edge-list loader of :mod:`repro.graph.io`."""

from repro.datasets.registry import (
    DATASETS,
    Dataset,
    dataset_names,
    get_dataset,
    load_snap_edge_list,
    load_snap_graph,
    stream_snap_edges,
)

__all__ = [
    "DATASETS",
    "Dataset",
    "dataset_names",
    "get_dataset",
    "load_snap_edge_list",
    "load_snap_graph",
    "stream_snap_edges",
]
