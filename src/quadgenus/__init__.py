"""Explicit minimum-genus embeddings for repeated Cartesian products of
balanced complete bipartite graphs with even cycles and even paths.

The package builds the embeddings constructively, one factor at a time,
and certifies every level's minimality by tracing every face and
matching the genus against the quadrilateral lower bound for bipartite
graphs.  Closed-form genus formulas, an independent brute-force oracle
for tiny graphs, and a CLI with reproducible JSON artifacts round out
the toolkit.
"""

__version__ = "0.1.0"

from .constructions import (ConstructionResult, classify_family, embed_cube,
                            embed_family, embed_K2r2r)
from .embeddings import (Embedding, EmbeddingCertificate,
                         components_certificate, euler_genus, face_lengths,
                         genus_lower_bound, trace_faces)
from .errors import (BudgetExceededError, ConstructionError, EmbeddingError,
                     ExprSyntaxError, InvalidParameterError, LocalProofError,
                     NotApplicableError, SurgeryError, ToolError,
                     UnsupportedFamilyError, VerificationError)
from .formulas import (FORMULAS, corollary_genus, cube_cycle_genus,
                       cube_genus, cube_path_genus, hypercube_genus,
                       main_cycles_genus, main_paths_genus, ringel_genus,
                       white_cycle_genus, white_path_genus)
from .graphs import (Graph, build_family, components, from_edges,
                     make_complete_bipartite, make_cycle, make_path,
                     parse_family_expr, product_graph)
from .oracle import (OracleResult, SearchBudget, exhaustive_min_genus,
                     rotation_space_size, stochastic_search)
from .surgery import check_reservoir, handle_faces
