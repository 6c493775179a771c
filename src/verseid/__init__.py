"""Verse-level authorship attribution for classical Persian poetry.

The package covers the full pipeline: corpus ingestion and filtering,
orthographic normalization, stylometric and semantic verse features, a small
transformer verse encoder trained from scratch, a fused classification head,
leakage-free poem-level splitting, poem-level aggregation of verse
predictions, and evaluation reports.
"""

import os

# One OpenBLAS thread unless the user chose otherwise. OpenBLAS reads this
# when it loads, so it holds only where numpy is first imported after this
# package. A second thread spins while it waits for work and buys little
# speed at these matrix sizes, and a product split across threads can round
# differently, so one thread also keeps the bytes the same on every core count.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
