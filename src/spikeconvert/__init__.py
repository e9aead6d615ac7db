"""Loss-less conversion of float transformer blocks to spike dynamics.

The package is organized bottom-up: exact matrix primitives, the three
spiking neuron kernels, calibration of thresholds and piecewise kernels,
spike-domain transformer components, energy accounting, and finally whole
toy blocks with conversion, serialization, and a CLI. Each name is imported
from the module that defines it (`spikeconvert.model.convert`); the package
itself provides only `__version__`.
"""

__version__ = "0.1.0"
