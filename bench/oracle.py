"""Agreement in bits between a benchmark output and its prec+64 reference.

Every output of a timed pass is recomputed, outside the timing, by the same
call at ``prec + 64`` bits.  The agreement of two values is
``-log2(|a - b| / scale)``, capped at the precision the output can carry:
the call's own precision for spectra and mpmath transform values, 53 bits for
float64 samples.  An output below its floor counts as a failed operation.

Outputs of different precisions are compared on one scale, ``53 * bits / cap``,
so a loss of digits in a 512-bit solve lowers the workload's minimum as much
as the same share lost in a float64 sample.
"""

import math

import mpmath
import numpy as np
from mpmath import mp, mpf

REFERENCE_EXTRA_BITS = 64
FLOAT_BITS = 53
# A spectrum or a closed-form transform value may lose at most the solver's
# guard bits (today both agree to their full precision).  The Born series
# cancels: its 256-bit Fourier values agree to 227-240 bits at K=40 and 80,
# and to 150 bits for experiment 1's conductivity steps at K=150.  float64
# samples agree to all 53 bits today.
SPECTRUM_SLACK_BITS = 32
SERIES_SLACK_BITS = 128
FLOAT_FLOOR_BITS = 40
# ode_log_derivative_oracle is a double-precision RK-Taylor integrator,
# documented to about 1e-8; it agrees to about 1e-12 on the sweep inputs.
ODE_TOLERANCE = 1e-7


def _bits(diff, scale, cap):
    if diff == 0:
        return float(cap)
    if scale == 0:
        return 0.0
    return min(float(cap), -math.log2(diff / scale))


def spectrum_bits(spec, ref):
    """Worst per-degree agreement of two spectra, relative to max(|lambda_k|, 1)."""
    cap = spec.prec
    if len(spec.lambdas) != len(ref.lambdas):
        return 0.0
    worst = float(cap)
    with mp.workprec(ref.prec + 64):
        for a, b in zip(spec.lambdas, ref.lambdas):
            diff = abs(mpf(a) - mpf(b))
            if diff:
                scale = max(abs(mpf(b)), mpf(1))
                worst = min(worst, float(-mpmath.log(diff / scale, 2)))
    return min(worst, float(cap))


def samples_bits(values, ref_values):
    """Agreement of two float64 sample vectors, relative to max |reference|."""
    a = np.asarray(values, dtype=float)
    b = np.asarray(ref_values, dtype=float)
    if a.shape != b.shape:
        return 0.0
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        return 0.0
    return _bits(float(np.max(np.abs(a - b), initial=0.0)),
                 float(np.max(np.abs(b), initial=0.0)), FLOAT_BITS)


def decimal_column_bits(column, ref_column, cap):
    """Agreement of two columns of decimal strings, relative to max |reference|."""
    if len(column) != len(ref_column):
        return 0.0
    with mp.workprec(cap + 2 * REFERENCE_EXTRA_BITS):
        a = [mpf(x) for x in column]
        b = [mpf(x) for x in ref_column]
        diff = max((abs(x - y) for x, y in zip(a, b)), default=mpf(0))
        scale = max((abs(y) for y in b), default=mpf(0))
        if diff == 0:
            return float(cap)
        if scale == 0:
            return 0.0
        return min(float(cap), float(-mpmath.log(diff / scale, 2)))


def floor_for(cap, kind):
    """Accuracy floor of one output: ``kind`` is exact, series or samples.

    ``exact`` covers spectra and closed-form transform values, ``series``
    the Born series' Fourier values.
    """
    if kind == "exact":
        return cap - SPECTRUM_SLACK_BITS
    if kind == "series":
        return cap - SERIES_SLACK_BITS
    return FLOAT_FLOOR_BITS


def normalized_bits(bits, cap):
    """Agreement on the float64 scale: ``bits`` out of ``cap`` as bits out of 53."""
    return FLOAT_BITS * bits / cap
