"""Surname-origin inference pipeline.

Curates concentration-filtered "core names" from surname-country occurrence
data, derives a data-driven region typology by clustering countries on their
n-gram profiles, trains a multinomial naive Bayes origin classifier, corrects
aggregate guesses through a prior-reweighted confusion matrix, and compares
populations by representativeness ratios. Import each name from its module.
"""

import os

# numpy's OpenBLAS starts a worker per extra CPU at import, each spinning for
# about 0.1 s of CPU; onoma's regions-sized products need none. Any `onoma`
# import runs this before numpy's; a caller's value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
