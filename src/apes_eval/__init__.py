"""Summary evaluation toolkit: cloze-question generation, pluggable QA
readers, the question-answering accuracy metric (APES), a from-scratch
ROUGE implementation, penalty-aware beam search, and saliency-attention
loss kernels.

The API is the submodules (``apes_eval.corpus``, ``apes_eval.rouge``, ...);
this package imports none of them, so each command loads only what it runs.
"""

__version__ = "0.1.0"
