"""``RunOptions`` keeps the dataclass contract with a hand-written
``__init__``: the same signature, checks and messages, ``==``, ``hash``,
``repr``, :func:`dataclasses.replace`, pickling, fields and frozenness
as the generated class had."""

import copy
import dataclasses
import inspect
import pathlib
import pickle

import pytest

from repro.api.adapters import RunOptions

DEFAULTS = {
    "optimize": True,
    "keep_fraction": 0.8,
    "calibration": None,
    "hmm_observations": None,
    "trace": None,
    "verify": None,
}


def test_fields_signature_and_defaults():
    fields = dataclasses.fields(RunOptions)
    assert [field.name for field in fields] == list(DEFAULTS)
    assert {field.name: field.default for field in fields} == DEFAULTS
    assert list(RunOptions.__dataclass_fields__) == list(DEFAULTS)
    assert RunOptions.__dataclass_params__.frozen
    parameters = inspect.signature(RunOptions).parameters
    assert {name: p.default for name, p in parameters.items()} == DEFAULTS
    assert vars(RunOptions()) == DEFAULTS


def test_eq_hash_and_repr():
    by_keyword = RunOptions(keep_fraction=0.5, hmm_observations=(1, 2))
    by_position = RunOptions(True, 0.5, None, (1, 2))
    assert by_keyword == by_position and by_keyword != RunOptions()
    assert hash(by_keyword) == hash(by_position) == hash((True, 0.5, None, (1, 2), None, None))
    assert repr(by_keyword) == (
        "RunOptions(optimize=True, keep_fraction=0.5, calibration=None, "
        "hmm_observations=(1, 2), trace=None, verify=None)"
    )


def test_replace_builds_through_the_checks():
    options = RunOptions(calibration=[[0, 1]])
    assert dataclasses.replace(options, verify=True) == RunOptions(calibration=[[0, 1]], verify=True)
    with pytest.raises(ValueError, match="non-empty path"):
        dataclasses.replace(options, trace="")


def test_pickle_and_copies_round_trip():
    options = RunOptions(keep_fraction=0.25, trace=pathlib.Path("run.trace"), verify=False)
    for clone in (pickle.loads(pickle.dumps(options)), copy.copy(options), copy.deepcopy(options)):
        assert clone == options and vars(clone) == vars(options)


def test_assignment_and_deletion_are_refused():
    options = RunOptions()
    with pytest.raises(dataclasses.FrozenInstanceError):
        options.keep_fraction = 0.1
    with pytest.raises(dataclasses.FrozenInstanceError):
        del options.trace
    assert options == RunOptions()


@pytest.mark.parametrize(
    "kwargs, error, message",
    [
        ({"trace": 1}, TypeError, "trace must be None, a bool or a path (str or os.PathLike), not 1"),
        ({"trace": b"x.trace"}, TypeError, "trace must be None, a bool or a path (str or os.PathLike), not b'x.trace'"),
        ({"trace": ""}, ValueError, "trace must be None, a bool or a non-empty path, not ''"),
        ({"calibration": "abc"}, TypeError, "calibration must be a sequence of evidence dicts or observation sequences, not a str"),
        ({"calibration": {0: 1}}, TypeError, "calibration must be a sequence of evidence dicts or observation sequences, not a dict"),
        ({"hmm_observations": "012"}, TypeError, "hmm_observations must be a sequence of ints, not a str"),
    ],
)
def test_bad_options_raise_what_they_raised(kwargs, error, message):
    with pytest.raises(error) as raised:
        RunOptions(**kwargs)
    assert str(raised.value) == message


def test_unknown_and_surplus_arguments_are_type_errors():
    with pytest.raises(TypeError):
        RunOptions(queries=2)
    with pytest.raises(TypeError):
        RunOptions(True, 0.8, None, None, None, None, "extra")
