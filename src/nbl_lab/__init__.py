"""nbl-lab: a desk-scale simulation laboratory for instantaneous
noise-based logic built on clocked random telegraph waves, with a
sinusoidal-representation counterpart for bandwidth and degeneracy
comparisons."""

from . import experiments, hyperspace, readout, rtw, sinus
from ._version import __version__
from .experiments import *
from .hyperspace import *
from .readout import *
from .rtw import *
from .sinus import *

__all__ = ["__version__", *experiments.__all__, *hyperspace.__all__, *readout.__all__,
           *rtw.__all__, *sinus.__all__]
