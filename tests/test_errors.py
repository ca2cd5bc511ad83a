"""Typed errors keep their message, fields and stage across pickling."""

import inspect
import pickle

import pytest

from spotvol import errors

ARGS = {
    errors.MalformedRow: (7, "bad price 'x'"),
    errors.GapTooLong: ("2016-06-15T05:00:00", 9),
    errors.NonFiniteInput: ([(0, 1), (2, 3)],),
}
CLASSES = [
    cls for _, cls in inspect.getmembers(errors, inspect.isclass)
    if issubclass(cls, errors.SpotvolError)
]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
def test_error_survives_pickle(cls, protocol):
    exc = cls(*ARGS.get(cls, ("something went wrong",)))
    exc.stage = "ingest"
    back = pickle.loads(pickle.dumps(exc, protocol=protocol))
    assert type(back) is cls
    assert str(back) == str(exc)
    assert vars(back) == vars(exc)
    assert back.stage == "ingest"


def test_unstaged_error_round_trips_without_stage():
    back = pickle.loads(pickle.dumps(errors.MalformedRow(3, "bad date")))
    assert back.stage is None
    assert (back.line_number, back.reason) == (3, "bad date")
