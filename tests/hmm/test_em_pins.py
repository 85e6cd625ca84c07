"""Every Baum-Welch fit and HMM pass, pinned to the byte.

Each EM fit below is pinned by the sha256 of its fitted ``initial``,
``transition`` and ``emission`` bytes and of ``repr(history)``; each
inference pass by the sha256 of the arrays (or the float) it returns.
The digests were recorded from the per-sequence recurrences at
c5a703d, before the passes were batched, so a rewrite of
:mod:`repro.hmm.inference` or :mod:`repro.hmm.learn` that is meant to
keep every number must pass this file unedited.

Every seed is a literal (no ``hash()``), so no digest depends on the
hash salt.  The six GeLaTo-shaped fits use the corpus seeds
``GeLaToWorkload`` derives under ``PYTHONHASHSEED=0``.
"""

import hashlib
import random

import numpy as np
import pytest

from repro.hmm.inference import (
    backward,
    forward,
    log_likelihood,
    posteriors,
    transition_posteriors,
)
from repro.hmm.learn import baum_welch
from repro.hmm.model import HMM
from repro.workloads.datasets import generate_text_corpus


def digest(*parts) -> str:
    """sha256 over each part's shape and bytes (an array) or repr (anything else)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr(part.shape).encode())
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def zero_emission_hmm() -> HMM:
    """No state emits symbol 3, so any sequence holding it has likelihood 0."""
    return HMM(
        initial=[0.5, 0.3, 0.2],
        transition=[[0.6, 0.3, 0.1], [0.2, 0.5, 0.3], [0.3, 0.3, 0.4]],
        emission=[[0.5, 0.3, 0.2, 0.0], [0.1, 0.6, 0.3, 0.0], [0.2, 0.2, 0.6, 0.0]],
    )


def gelato_fit(corpus_seed: int, student_seed: int):
    corpus = generate_text_corpus(12, 6, num_sequences=40, length=14, seed=corpus_seed)
    return HMM.random(6, 12, seed=student_seed), corpus.sequences, 4


def ctrlg_fit():
    corpus = generate_text_corpus(10, 5, num_sequences=40, length=16, seed=99)
    return HMM.random(5, 10, seed=7), corpus.sequences, 4


def mixed_lengths_fit():
    teacher = HMM.random(4, 5, seed=21)
    rng = random.Random(22)
    sequences = [[], [3]] + [teacher.sample(length, rng)[1] for length in (1, 2, 7, 3, 11, 2)]
    sequences.insert(5, [])
    return HMM.random(4, 5, seed=23), sequences, 6


def early_stop_fit():
    teacher = HMM.random(3, 4, seed=31)
    rng = random.Random(32)
    sequences = [teacher.sample(9, rng)[1] for _ in range(6)]
    return HMM.random(3, 4, seed=33), sequences, 500


def zero_likelihood_fit():
    sequences = [[0, 1, 2, 1], [2, 3, 0], [1, 1, 0, 2, 2], [3]]
    return zero_emission_hmm(), sequences, 5


FITS = {
    "gelato-CommonGen-0": lambda: gelato_fit(47983, 0),
    "gelato-CommonGen-1": lambda: gelato_fit(22593, 1),
    "gelato-CommonGen-2": lambda: gelato_fit(49050, 2),
    "gelato-News-0": lambda: gelato_fit(36982, 0),
    "gelato-News-1": lambda: gelato_fit(63439, 1),
    "gelato-News-2": lambda: gelato_fit(38049, 2),
    "ctrlg-CoAuthor": ctrlg_fit,
    "mixed-lengths": mixed_lengths_fit,
    "early-stop": early_stop_fit,
    "zero-likelihood": zero_likelihood_fit,
}

#: name -> (len(history), sha256 of initial/transition/emission bytes, sha256 of repr(history))
FIT_PINS = {
    "gelato-CommonGen-0": (4, "618a4387fed238b6817b38f0248e08914f8d69c0bdb0db574f0ffb06e7f40ee0", "14d1be08198561b02032b30b532bf186daf4d520a83ce4275945ace00a9bce07"),
    "gelato-CommonGen-1": (4, "abbeedc85511328242ed981a749c3ea22eae0ab4b087a0f4242f633d00f899a7", "2ad3e1b8370a191c703b2964e7b1271b500c99e5114c1e2d32715db9f85552c3"),
    "gelato-CommonGen-2": (4, "fef13fb2c94070f704d68118a943a4ae4a9417ae8d3b3a8fcc0c4f639840ae02", "d6ce69961f0cc2baa8f9cb1672a1b3465d5cd8f08708eff37181bbef3e3bd50c"),
    "gelato-News-0": (4, "d1a0cf72cc97cbde3279a4f79c9382b465ba913eee5ed3aa18f1390de458314c", "2b1861e410c8df9c6d9eb812d9bb72ca8edb22b3a7f4fcd63fb811a9ad300691"),
    "gelato-News-1": (4, "317b3d4c505a18b484f1fe202851bb1953147a21fcb95babb5cac03b36f692fc", "15975f8a2145f9101578357d492648aa78682bacc9221b914b27426244146697"),
    "gelato-News-2": (4, "25926d7db66520772da59c8f9e1a592e09cc0a7059d2596d9a3c46194f4167e4", "07642f78f9a05316272dba467d8594f62edddfba4fedf37f588665092fc70ba8"),
    "ctrlg-CoAuthor": (4, "327f3101ee66755cfd8f42687312919bd5a3134f0402b33e936ee8a9bbd8b480", "a8701e9d34e8c135e3ec9d5e288b1268f45743d0d3195d77168ea5032d088f6a"),
    "mixed-lengths": (6, "95aab14da7446347598a90d59479c6778852bda63e3b678545a31293a1861b78", "f5d6bfc5fbcbd62c405550d763b5b57b9a1a083c0a9c83d32f884a84fc861e62"),
    "early-stop": (38, "f84a21ea4302ff1712df83de3df8025fa4a05caf7699cef9d09f2540c2c68e4a", "d77d86292b8ac314c7322ebc004e7b1f77bd046a980e260d84aeacbdf5bef548"),
    "zero-likelihood": (5, "3ed0de0e27fa0c9aca71ab7b006ed951b07ccece34972c418e38013535df2fed", "baf7569c246cfc98d1684e53de5676a9cc222c2eb9234b73cf3282d76dfc87bf"),
}


def fit_digests(name: str):
    student, sequences, iterations = FITS[name]()
    model, history = baum_welch(student, sequences, iterations=iterations)
    return (
        len(history),
        digest(model.initial, model.transition, model.emission),
        digest(history),
    )


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_is_pinned(name):
    assert fit_digests(name) == FIT_PINS[name]


def test_the_early_stop_fit_stops_early():
    assert FIT_PINS["early-stop"][0] < 500


PASS_MODELS = {
    "random-6x12": lambda: HMM.random(6, 12, seed=41),
    "random-5x10": lambda: HMM.random(5, 10, seed=42),
    "zero-emission": zero_emission_hmm,
}

PASS_SEQUENCES = {
    "random-6x12": [[4], [0, 11], [3, 7, 7, 1, 0, 9, 2, 11, 5, 6, 10, 4, 8, 1]],
    "random-5x10": [[9, 0], [1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 1, 2, 3, 4, 5, 6]],
    "zero-emission": [[0, 1, 2], [0, 3, 1, 2], [3]],
}


def pass_digests(model_name: str):
    hmm = PASS_MODELS[model_name]()
    rows = []
    for observations in PASS_SEQUENCES[model_name]:
        alpha, scales = forward(hmm, observations)
        beta = backward(hmm, observations, scales)
        rows.append(
            (
                digest(alpha, scales),
                digest(beta),
                digest(posteriors(hmm, observations)),
                digest(transition_posteriors(hmm, observations)),
                log_likelihood(hmm, observations).hex(),
            )
        )
    return rows


#: model -> one (forward, backward, posteriors, transition_posteriors,
#: log_likelihood.hex()) row per sequence of PASS_SEQUENCES.
PASS_PINS = {
    "random-6x12": [
        (
            "3ec30127f37957dd83432e16c2a561180f9f0c3071cb1b26bd296f53a264bcbf",
            "948aba2eb1fcf3e95280249d020ceefcebb5f42b3b02b7cd9e16e1970a32babf",
            "f1d823e5615e88507c1b3ec04452e62f4e805a21832aaecfc40f2f0bfa03ea45",
            "c1091968adce321227c7dda1242821cddc512bc8c4a51a1ef710a814ce19692e",
            "-0x1.432dcf398ce84p+1",
        ),
        (
            "1ee6e73e85263bad9f1c54deae7957e50344acf40af7fd6b3a4016696fa3dedc",
            "3d9fbf81d42e71c48bb3200410d456d9ff28bd9bdc11e2fa3994fe6f944c41b1",
            "004b69704a581a83a434883722f8c99d1923a33a4230dc54bff801493f7c010f",
            "61d00acd8c2c3705e78a90341096b19d6151d4c94be14870cd5d06c3b7c4a48f",
            "-0x1.0384778bf0c9bp+2",
        ),
        (
            "1e147b8fc2b5afb68934c92316ba1bea923789883947ea6e924fefa3dd4cd373",
            "be730a1ccd3f020f48123a61a02781a6b29731a3a1befe68cc4df8477b93249c",
            "aa787cb18ac3ed38d86d318d72220891808dae930a19fac15cf1f81f42622b1e",
            "2fd86bda50a4441ef49bbf6eeb7d70a8caa35648a71dcca867ad8f0722b6231a",
            "-0x1.2f8029997ae01p+5",
        ),
    ],
    "random-5x10": [
        (
            "b3f2a33eaa23494a08cfb4163ff893cdd89acef59b7810e5c4ffc3d7eba6d8a5",
            "f4a734ec31f52279239a1e39add93f44d99f3b0b37ef540a7eef46bfb0cce918",
            "e4892ba8fd8e8db6c27d7c59199db407639d33c04f45c93d522ca4c09f1196b4",
            "2f0f5cc7496fa87edca9c589d71fcca6be6d4995d46b8d80200acd63e031e129",
            "-0x1.833f7a75774cep+2",
        ),
        (
            "1eb6b5de0ac7d11f8b8bf3e2b91cbc44bb21b00e6357d6ee2e87aed074dfeed1",
            "799ccb2849b83192d77f29530c6298fe1e39d8f4c14f508ea7877f5962a19c1e",
            "9381d9602b05f472597ae7347ce59baf9f149f4dc198486c8f70b47dc394b4d0",
            "416ea02bffb482cbe677cf20ac68e35734b8c75d0036972a46caf04ebab26a52",
            "-0x1.28cd912eeb69fp+5",
        ),
    ],
    "zero-emission": [
        (
            "d161fa8469d8a6e9bf001536d28d665aeef303be118b5f61e4aee042bceb9d3c",
            "dbe4b99bb79a6542775d855800dd417b3922e386fc25b7da12ac5076076f0882",
            "8b6953f00952e167615cc63d7ce5d7954001bbe021e378378e55c5e05f5465c8",
            "f03c796d3f0798d5488ed352d3d3089bdd0900a43af9a774888ebb746ec7b398",
            "-0x1.9b87d732a632ap+1",
        ),
        (
            "97cf8faca6bb3859a5c70b7cdaf9f20046b56976491ed45778ad008054f969b1",
            "5b74d8fc13e16d613175472e5bada71695e88988f38ea7c6d262e3165fb812d2",
            "45095b8afb66a9d908c1cf0631160a1de977d893c94105659f177b42351271c1",
            "a65a9d13422ee0a72ed34cc7a47a3005d09aaaa5f9f58574d8344ba7033b2516",
            "-inf",
        ),
        (
            "00913fa17f398309107ef2ce278d81e3cacac3333ac853e25411716289609bf7",
            "d8a5ec0665f1ba8ab41493f4a260d4e81949503b55b5f62b7dd3ddc231f3f593",
            "b43736752e7a387b4ad04b9ae6dc3d534e7f699965e54d6e005458f0a0357c7e",
            "ab53df903f6f83b062ddd27f80a390315e7f1d647666b04574d7101f39d1c45e",
            "-inf",
        ),
    ],
}


@pytest.mark.parametrize("model_name", sorted(PASS_MODELS))
def test_passes_are_pinned(model_name):
    assert pass_digests(model_name) == PASS_PINS[model_name]


def test_an_impossible_sequence_has_log_likelihood_minus_inf():
    assert PASS_PINS["zero-emission"][1][4] == float("-inf").hex()
