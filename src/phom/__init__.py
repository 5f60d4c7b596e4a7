"""Vietoris-Rips persistent homology engine.

Pipeline: point cloud -> distance matrix -> Vietoris-Rips filtration ->
GF(2) column reduction -> persistence barcode -> Betti numbers / SVG
plots / p-Wasserstein comparisons. Everything is deterministic and pure;
see the README for the CLI walkthrough.
"""

from .errors import ComputationError, InputError, PhomError, ResourceError
from .geometry import (
    DistanceMatrix,
    PointCloud,
    distance_matrix,
    read_point_csv,
    write_point_csv,
)
from .generators import (
    ModalResult,
    MsdConfig,
    gen_fibonacci_sphere,
    gen_msd_manifold,
    gen_sphere_latlon,
    natural_frequencies,
    read_msd_config,
    stiffness_matrix,
    write_msd_config,
)
from .persistence import (
    Barcode,
    Pairing,
    PersistenceInterval,
    betti_curve,
    betti_numbers,
    intervals,
    read_barcode_csv,
    reduce,
    write_barcode_csv,
)
from .svgplot import render_barcode_svg, render_diagram_svg
from .vr import (
    DIAMETER_EPS,
    EDGE_RULES,
    PAPER_2EPS,
    Filtration,
    build_vr,
)
from .wasserstein import MatchingProblem, wasserstein_p

__version__ = "0.1.0"

__all__ = [
    "Barcode",
    "ComputationError",
    "DIAMETER_EPS",
    "DistanceMatrix",
    "EDGE_RULES",
    "Filtration",
    "InputError",
    "MatchingProblem",
    "ModalResult",
    "MsdConfig",
    "PAPER_2EPS",
    "Pairing",
    "PersistenceInterval",
    "PhomError",
    "PointCloud",
    "ResourceError",
    "betti_curve",
    "betti_numbers",
    "build_vr",
    "distance_matrix",
    "gen_fibonacci_sphere",
    "gen_msd_manifold",
    "gen_sphere_latlon",
    "intervals",
    "natural_frequencies",
    "read_barcode_csv",
    "read_msd_config",
    "read_point_csv",
    "reduce",
    "render_barcode_svg",
    "render_diagram_svg",
    "stiffness_matrix",
    "wasserstein_p",
    "write_barcode_csv",
    "write_msd_config",
    "write_point_csv",
]
