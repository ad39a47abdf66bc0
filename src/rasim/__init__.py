"""rasim: frame-based random access with traffic prediction, grid slicing and barring.

The package holds only ``__version__``; callers import the modules
(``rasim.engine``, ``rasim.slicing``, ...), which are its public surface.
"""

__version__ = "0.1.0"
