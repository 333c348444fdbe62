"""Adaptive deterministic block coordinate descent for linear least squares.

Solvers (cd, fbcd, mrbgs, madbcd and its count-sketch variant), problem
generators and Matrix Market ingestion, independent verification oracles,
and a benchmark harness with a CLI front end.
"""

__version__ = "0.1.0"

from .matrix import *
from .oracle import *
from .problems import *
from .sketch import *
from .solvers import *
from .bench import *
