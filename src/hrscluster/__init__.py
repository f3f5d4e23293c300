"""Hierarchical rate splitting over correlated MIMO channels.

Simulates a two-layer rate-splitting downlink, searches for rate-maximizing
user clusterings by subspace-similarity agglomeration, builds labeled
datasets from those clusterings, and trains a shallow classifier that
predicts the best clustering straight from noisy channel estimates. The
root re-exports nothing: import names from the submodules.
"""

__version__ = "0.1.0"
