"""Kolmogorov-Arnold networks on numpy, plus a credit-default scoring pipeline.

The library implements spline-parametrised networks (learnable activations
on edges, plain sums on nodes), manual reverse-mode gradients, Adam, rank
based ROC analysis, and edge-score feature attribution.  The ``kancredit``
CLI wires these into train / eval / explain / sweep workflows for the
Give Me Some Credit dataset.
"""

from kancredit.splines import *
from kancredit.network import *
from kancredit.training import *
from kancredit.metrics import *
from kancredit.data import *
from kancredit.explain import *
from kancredit.baseline import *

__version__ = "0.1.0"
