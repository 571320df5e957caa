"""Label-graph superimposing toolkit.

Builds a label graph that blends co-occurrence statistics with knowledge
priors, propagates label embeddings over it with graph convolutions, injects
those embeddings into a convolutional backbone through lateral connections,
and evaluates multi-label predictions with the standard ranking and
precision/recall suite.
"""

from .checks import grad_check
from .graph import (
    GraphPipelineConfig,
    build_ks_graph,
    cooccurrence_counts,
    edge_set,
    identity_mix,
    knowledge_adjacency,
    normalize,
    statistical_adjacency,
    superimpose,
    threshold_filter,
)
from .ingest import (
    AnnotationSet,
    EmbeddingTable,
    FormatError,
    KnowledgeEdgeList,
    LabelVocabulary,
    UnresolvedLabelError,
    build_initial_embeddings,
    load_annotations,
    load_embedding_table,
    load_knowledge_edges,
    load_vocabulary,
)
from .metrics import average_precision, map_score, prf_suite
from .model import (
    Adam,
    KssModel,
    TrainConfig,
    TrainingDiverged,
    make_depth_variant,
    train_toy,
)

__version__ = "0.1.0"
