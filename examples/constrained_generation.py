"""GeLaTo/Ctrl-G-style constrained generation: HMM × DFA decoding.

Distills an HMM from a synthetic corpus, compiles a keyword constraint
to a DFA, samples exactly from the product distribution (constraint
guaranteed by construction), and shows the unrolled DAG running on the
REASON accelerator model.

Run:  python examples/constrained_generation.py
"""

import random

from repro import ReasonSession
from repro.hmm.constrained import DFAConstraint, constrained_decode
from repro.hmm.inference import posteriors, transition_posteriors
from repro.workloads.gelato import GeLaToWorkload, bleu2


def main() -> None:
    workload = GeLaToWorkload()
    instance = workload.generate_instance("CommonGen", seed=3)
    keyword, length = instance.payload
    hmm, corpus = workload._distilled_hmm("CommonGen", 0)
    print(f"constraint: sequence of length {length} must contain {keyword}")

    dfa = DFAConstraint.contains_word(keyword, workload.vocab_size)
    print(f"compiled DFA: {dfa.num_states} states")

    rng = random.Random(1)
    for attempt in range(3):
        result = constrained_decode(hmm, dfa, length, rng=rng)
        assert result.satisfied, "product decoding guarantees the constraint"
        score = bleu2(result.sequence, corpus.sequences)
        print(
            f"sample {attempt}: {result.sequence}  "
            f"logP={result.log_probability:.2f}  BLEU-2={score:.1f}"
        )

    # Smoothing on the last sample: each step's most probable hidden
    # state, and the transition the sample most expects to use.
    gamma = posteriors(hmm, result.sequence)
    usage = transition_posteriors(hmm, result.sequence).sum(axis=0)
    source, target = divmod(int(usage.argmax()), hmm.num_states)
    print(
        f"smoothed states: {gamma.argmax(axis=1).tolist()}  "
        f"busiest transition: {source}->{target}"
    )

    # Time the HMM kernel on REASON (unroll → prune → compile → run).
    session = ReasonSession()
    calibration = workload.calibration_sequences(instance)
    timing = session.run(hmm, calibration=calibration)
    print(
        f"REASON HMM step: {timing.cycles} cycles = {timing.seconds * 1e6:.2f} us, "
        f"energy {timing.energy_j * 1e9:.1f} nJ"
    )

    # An infeasible constraint is reported, not silently violated.
    impossible = DFAConstraint.contains_word(
        [0, 1] * (length // 2 + 1), workload.vocab_size
    )
    result = constrained_decode(hmm, impossible, length)
    print(f"infeasible constraint handled: satisfied={result.satisfied}")


if __name__ == "__main__":
    main()
