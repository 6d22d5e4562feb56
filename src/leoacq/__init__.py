"""Software-defined acquisition engine for LEO navigation-augmentation signals.

Synthesizes spread-spectrum IF signals with LEO-realistic Doppler and power
dynamics, acquires them via FFT-based parallel code-phase search under five
weak-signal integration strategies, and evaluates detection statistics,
thresholds, and successful-acquisition duration across a simulated pass.
"""

__version__ = "0.1.0"
