"""Software-defined acquisition engine for LEO navigation-augmentation signals.

Synthesizes spread-spectrum IF signals with LEO-realistic Doppler and power
dynamics, acquires them via FFT-based parallel code-phase search under five
weak-signal integration strategies, and evaluates detection statistics,
thresholds, and successful-acquisition duration across a simulated pass.
"""

from .prn_code import ChipSequence, generate_code, sample_code, samples_per_code
from .geometry import (PassSample, PassScenario, doppler_shift,
                       free_space_loss, radial_velocity, simulate_pass)
from .signal_synth import (SampledSignal, SynthParams, noise_sigma,
                           synthesize, synthesize_pass_signal)
from .acq_core import (CorrelationGrid, FrequencyPlan, make_plan,
                       process_unit, process_units)
from .integrators import (IntegrationSpec, Strategy, integrate,
                          integrate_alternate_half_bit, integrate_coherent,
                          integrate_differential, integrate_noncoherent,
                          integrate_pre_guess)
from .detector import (AcqResult, DEFAULT_MTSMR_THRESHOLD, acquire, decide,
                       mtmr, mtsmr, peak)
from .eval_harness import (EpochLabel, EpochTruth, PfCurve, TimelineSummary,
                           acquisition_timeline, label_epochs, pf_sweep,
                           threshold_bounds)

__version__ = "0.1.0"
