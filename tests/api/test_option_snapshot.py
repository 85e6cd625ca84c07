"""Option snapshots: every request compares what its ``calibration``
holds by a builtins-only pickle, and its ``hmm_observations`` by a
tuple of exact ints, and packs them only on a miss.

Every case checks the remembered answer against ``fresh_key``: the key
of a never-keyed ``copy.deepcopy`` of the kernel under a fresh
``RunOptions``, which has no memo to consult.  ``1``, ``1.0``, ``True``
and ``np.int64(1)`` compare equal with ``==``, and ``marshal`` writes a
numpy array as the bytes of its buffer: a snapshot that used either
would serve one of these the key of another."""

import pickle
from collections import OrderedDict

import numpy as np
import pytest

import repro.api.adapters as adapters_module
from repro.api.cache import key_part
from repro.hmm.model import HMM
from repro.pc.learn import random_circuit, sample_dataset

from tests.corpus import fresh_key, key, small


def circuit():
    return random_circuit(6, depth=3, seed=13)


def alternate(kernel, calibrations, rounds=3):
    """Key one kernel with each calibration in turn, ``rounds`` times;
    every key must be the never-keyed copy's."""
    expected = [fresh_key(kernel, calibration=c) for c in calibrations]
    for _ in range(rounds):
        assert [key(kernel, calibration=c) for c in calibrations] == expected
    return expected


def test_evidence_values_equal_under_eq_keep_their_own_keys():
    one, real, true, wide = alternate(
        circuit(), [[{0: 1}], [{0: 1.0}], [{0: True}], [{0: np.int64(1)}]]
    )
    # struct packs an int, a bool and a numpy int alike; a float is repr-ed.
    assert one == true == wide != real


def test_variable_names_equal_under_eq_keep_their_own_keys():
    integral, real = alternate(circuit(), [[{1: 0}], [{1.0: 0}]])
    assert integral != real


def test_an_array_and_its_bytes_are_two_keys():
    """``marshal`` writes both of these as the same bytes."""
    array, raw = alternate(
        HMM.random(4, 5, seed=13), [[np.array([3])], [np.array([3]).tobytes()]]
    )
    assert array != raw


def test_an_evidence_dict_written_in_place_between_requests():
    kernel = circuit()
    calibration = sample_dataset(kernel, 4, seed=1)
    before = key(kernel, calibration=calibration)
    assert key(kernel, calibration=calibration) == before
    calibration[2][3] = 1 - calibration[2][3]
    moved = key(kernel, calibration=calibration)
    assert moved == fresh_key(kernel, calibration=calibration) != before
    calibration[2][3] = 1 - calibration[2][3]
    assert key(kernel, calibration=calibration) == before


def test_an_appended_or_popped_item_moves_the_key():
    kernel = circuit()
    calibration = sample_dataset(kernel, 4, seed=2)
    before = key(kernel, calibration=calibration)
    calibration.append({0: 1})
    appended = key(kernel, calibration=calibration)
    assert appended == fresh_key(kernel, calibration=calibration) != before
    calibration.pop()
    assert key(kernel, calibration=calibration) == before
    value = calibration[0].pop(4)
    popped = key(kernel, calibration=calibration)
    assert popped == fresh_key(kernel, calibration=calibration) not in (before, appended)
    calibration[0][4] = value
    assert key(kernel, calibration=calibration) == before


def test_a_reordered_dict_is_the_same_key():
    kernel = circuit()
    calibration = sample_dataset(kernel, 3, seed=3)
    reordered = [dict(reversed(list(item.items()))) for item in calibration]
    same = key(kernel, calibration=calibration)
    assert alternate(kernel, [calibration, reordered]) == [same, same]


def test_one_dict_listed_twice_against_two_equal_dicts():
    kernel = circuit()
    evidence = {0: 1, 1: 0, 2: 1}
    shared, separate = alternate(kernel, [[evidence, evidence], [evidence, dict(evidence)]])
    assert shared == separate


def test_one_kernel_alternates_two_calibrations():
    kernel = circuit()
    first, second = alternate(
        kernel, [sample_dataset(kernel, 4, seed=4), sample_dataset(kernel, 4, seed=5)]
    )
    assert first != second


def test_hmm_sequences_alternate_with_and_without_a_calibration():
    hmm = HMM.random(4, 5, seed=14)
    calibrations = [[[0, 1, 2, 3]], [[0, 1, 2, 4]], None, [(0, 1, 2, 3)]]
    expected = alternate(hmm, calibrations)
    assert len(set(expected)) == 3 and expected[0] == expected[3]


@pytest.mark.parametrize(
    "calibration",
    [
        np.array([[0, 1, 2], [2, 1, 0]]),
        [{0: np.int64(1), 1: 0}],
        [OrderedDict([(0, 1), (1, 0)])],
        [bytearray(b"\x00\x01")],
    ],
    ids=["array", "numpy-value", "ordered-dict", "bytearray"],
)
def test_anything_but_exact_builtins_is_compared_packed(calibration):
    """Such a calibration stands in the memo as the packed key itself,
    so it keys as it did before snapshots, and is re-packed each time."""
    kernel = HMM.random(4, 5, seed=15)
    first = key(kernel, calibration=calibration)
    assert first == fresh_key(kernel, calibration=calibration)
    assert key(kernel, calibration=calibration) == first
    packed = key_part(adapters_module._OPTIONS["calibration"][1](calibration))
    assert packed in kernel._key_memo[1]


def test_a_numpy_calibration_written_in_place():
    kernel = HMM.random(4, 5, seed=16)
    calibration = np.array([[0, 1, 2, 3], [3, 2, 1, 0]])
    before = key(kernel, calibration=calibration)
    assert key(kernel, calibration=calibration) == before
    calibration[1, 2] = 4
    moved = key(kernel, calibration=calibration)
    assert moved == fresh_key(kernel, calibration=calibration) != before
    calibration[1, 2] = 1
    assert key(kernel, calibration=calibration) == before


class Lossy(list):
    """A sequence whose pickle drops what it holds."""

    def __reduce__(self):
        return (Lossy, ())


def test_a_pickle_that_drops_content_is_not_trusted():
    hmm = HMM.random(4, 5, seed=18)
    first, second = alternate(hmm, [[Lossy([0, 1, 2])], [Lossy([0, 1, 3])]])
    assert first != second


def test_a_pickle_buffer_is_not_taken_for_its_bytes():
    """Protocol 5 writes a read-only ``PickleBuffer`` as the bytes it
    views; unlike the bytes, it is no observation sequence."""
    hmm = HMM.random(4, 5, seed=19)
    assert key(hmm, calibration=[b"\x03"]) == key(hmm, calibration=[b"\x03"])
    with pytest.raises(TypeError, match="not iterable"):
        key(hmm, calibration=[pickle.PickleBuffer(b"\x03")])


@pytest.fixture
def packing(monkeypatch):
    """Every calibration snapshot, calibration pack and ``_int_record``
    the adapters take, by name."""
    calls = []

    def counted(name, function):
        def count(*args):
            calls.append(name)
            return function(*args)

        return count

    snapshot, pack = adapters_module._OPTIONS["calibration"]
    monkeypatch.setitem(
        adapters_module._OPTIONS,
        "calibration",
        (counted("snapshot", snapshot), counted("pack", pack)),
    )
    monkeypatch.setattr(
        adapters_module, "_int_record", counted("record", adapters_module._int_record)
    )
    return calls


@pytest.mark.parametrize("family", ["circuit", "hmm"])
def test_a_warm_unchanged_calibration_is_not_packed_again(family, packing):
    if family == "circuit":
        kernel = circuit()
        calibration = sample_dataset(kernel, 8, seed=6)
    else:
        kernel = HMM.random(4, 5, seed=17)
        calibration = [[0, 1, 2, 3, 4], [4, 3, 2, 1, 0]]
    first = key(kernel, calibration=calibration)
    # First sight: one snapshot, then one packing for the hash.
    assert packing.count("snapshot") == packing.count("pack") == 1
    # Every warm request, the first included, only takes the snapshot.
    del packing[:]
    assert all(key(kernel, calibration=calibration) == first for _ in range(5))
    assert packing == ["snapshot"] * 5
    # Changed: one snapshot, one packing, then warm again.
    del packing[:]
    calibration.pop()
    changed = key(kernel, calibration=calibration)
    assert packing.count("snapshot") == packing.count("pack") == 1
    del packing[:]
    assert key(kernel, calibration=calibration) == changed
    assert packing == ["snapshot"]


def test_a_kernel_seen_anew_is_snapshotted_and_packed_once(packing):
    kernel = circuit()
    calibration = sample_dataset(kernel, 4, seed=7)
    key(kernel, calibration=calibration)
    kernel.plan().leaves[0].probabilities = np.full(2, 0.5)
    del packing[:]
    assert key(kernel, calibration=calibration) == fresh_key(kernel, calibration=calibration)
    # The kernel and its never-keyed copy: each a miss.
    assert packing.count("snapshot") == packing.count("pack") == 2


def test_a_warm_hmm_hit_packs_no_observation_sequence(monkeypatch):
    records = []
    real = adapters_module._int_record

    def counting(*args):
        records.append(args)
        return real(*args)

    monkeypatch.setattr(adapters_module, "_int_record", counting)
    hmm, options = small("hmm")
    first = key(hmm, **options)
    assert len(records) == 1
    assert all(key(hmm, **options) == first for _ in range(5))
    assert len(records) == 1


def test_observation_symbols_equal_under_eq_keep_their_own_keys():
    """``(1, 2) == (1.0, 2.0) == (True, 2)``, but a float symbol packs
    apart from an int: a tuple snapshot of anything but exact ints
    would serve one the key of another."""
    hmm = HMM.random(4, 5, seed=20)
    cases = [[1, 2], [1.0, 2.0], [True, 2], [np.int64(1), 2], np.array([1, 2])]
    expected = [fresh_key(hmm, hmm_observations=c) for c in cases]
    for _ in range(3):
        assert [key(hmm, hmm_observations=c) for c in cases] == expected
    ints, floats, bools, wide, array = expected
    assert ints == bools == wide == array != floats


def test_an_observation_sequence_written_in_place_between_requests():
    hmm = HMM.random(4, 5, seed=21)
    observations = [0, 1, 2, 3]
    before = key(hmm, hmm_observations=observations)
    observations[2] = 4
    moved = key(hmm, hmm_observations=observations)
    assert moved == fresh_key(hmm, hmm_observations=observations) != before
    observations[2] = 2
    assert key(hmm, hmm_observations=observations) == before
