"""Hidden Markov model substrate (paper Sec. II-C, Eq. 2).

Discrete-observation HMMs with forward/backward filtering and smoothing,
Baum-Welch learning, posterior-usage statistics (the quantities REASON's
flow pruning ranks transitions/emissions by), and unrolling into the
unified DAG representation.
"""

from repro.hmm.model import HMM
from repro.hmm.inference import (
    forward,
    backward,
    log_likelihood,
    posteriors,
    transition_posteriors,
)
from repro.hmm.learn import baum_welch
from repro.hmm.constrained import constrained_decode, DFAConstraint

__all__ = [
    "HMM",
    "forward",
    "backward",
    "log_likelihood",
    "posteriors",
    "transition_posteriors",
    "baum_welch",
    "constrained_decode",
    "DFAConstraint",
]
