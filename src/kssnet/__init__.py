"""Label-graph superimposing toolkit.

Builds a label graph that blends co-occurrence statistics with knowledge
priors, propagates label embeddings over it with graph convolutions, injects
those embeddings into a convolutional backbone through lateral connections,
and evaluates multi-label predictions with the standard ranking and
precision/recall suite.  The package exports nothing itself: import the
submodules (``kssnet.graph``, ``kssnet.model``, ...).
"""

__version__ = "0.1.0"
