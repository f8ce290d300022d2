"""Exact-arithmetic toolkit for minimal-orbit quantization data.

Layers: sparse exact linear algebra (`sparse`), variable contexts and
operator calculus (`opcalc`), the case registry (`jordan`), bundle
classification (`bundles`), the spectral ladder engine (`ladder`),
series (`hyperg`), concrete operator models (`models`), and the `orbit`
CLI (`cli`).  Import each by name (`from orbitq import models`):
importing the package loads none of them.
"""

__version__ = "0.1.0"
