"""Resolution of the target scale of the Gaussian-disc toy's Metropolis chains.

The toy's conditional chains (`toy._toy_chains`) reward candidates that move
the response toward zero through a Gaussian factor
exp(-response^2 / (2 sigma^2)).  By default sigma is the disc radius; it can
also be coupled to each chain's level threshold ("threshold") or pinned to
any positive float.  The reward biases the chains away from the prior
restricted to the level.  The conflict chains no longer use it: they sample
their level by conditional sampling in whitened coordinates
(`conflict._conflict_chains`).
"""

from __future__ import annotations

from typing import Optional, Union

TiltSpec = Union[None, float, str]

THRESHOLD_COUPLED = "threshold"


def resolve_tilt(spec: TiltSpec, fixed_scale: float, threshold):
    """Turn a tilt specification into the sigma used at the current level.

    `threshold` may be an array of per-chain thresholds; a threshold-coupled
    sigma is then that array.
    """
    if spec is None:
        return fixed_scale
    if isinstance(spec, str):
        if spec == THRESHOLD_COUPLED:
            return threshold
        raise ValueError(f"unknown tilt specification {spec!r}; use a float or 'threshold'")
    value = float(spec)
    if not value > 0:
        raise ValueError(f"tilt scale must be positive, got {value}")
    return value
