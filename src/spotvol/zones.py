"""Epoch hours and whole-hour time-zone offsets.

Instants, and wall-clock times read as if they were UTC, are int64 counts
of whole hours since 1970-01-01T00:00 ("epoch hours").  ZoneOffsets gives
a zone's UTC offsets for arrays of them after probing the zone once per
day the data touch, in place of per-row datetime arithmetic.
"""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

import numpy as np

from .errors import InputError

HOURS_PER_DAY = 24
EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
# probed days, 0001-01-02 to 9999-12-30, keep any UTC offset inside datetime's range
_DAY_RANGE = (2 - EPOCH_ORDINAL, date.max.toordinal() - 1 - EPOCH_ORDINAL)
_SECOND = timedelta(seconds=1)


def zone_info(zone: str) -> ZoneInfo:
    """The named zone; InputError if the time-zone database lacks it."""
    try:
        return ZoneInfo(zone)
    except (ZoneInfoNotFoundError, ValueError):
        raise InputError(f"unknown time zone {zone!r}") from None


def epoch_hour(day: date) -> int:
    """Epoch hour of midnight starting ``day``."""
    return (day.toordinal() - EPOCH_ORDINAL) * HOURS_PER_DAY


def iso_hour(hour: int, offset: int | None = None) -> str:
    """ISO-8601 text of an epoch hour, with a UTC offset in hours if given."""
    stamp = datetime(1970, 1, 1) + timedelta(hours=int(hour))
    if offset is not None:
        stamp = stamp.replace(tzinfo=timezone(timedelta(hours=int(offset))))
    return stamp.isoformat()


def changes(a: np.ndarray) -> np.ndarray:
    """True where an element differs from the one before it, and at 0."""
    out = np.ones(a.size, dtype=bool)
    out[1:] = a[1:] != a[:-1]
    return out


def years_of(hours: np.ndarray) -> np.ndarray:
    """Calendar years of epoch hours."""
    return hours.astype("datetime64[h]").astype("datetime64[Y]").astype(np.int64) + 1970


def _offsets_at(tz: ZoneInfo, hours: np.ndarray) -> np.ndarray:
    """The zone's UTC offsets in hours at the given instants; InputError
    where one is not a whole number of hours."""
    seconds = np.array(
        [datetime.fromtimestamp(h * 3600, tz).utcoffset() // _SECOND for h in hours.tolist()],
        dtype=np.int64,
    )
    uneven = np.flatnonzero(seconds % 3600)
    if uneven.size:
        i = uneven[0]
        offset = ("-" if seconds[i] < 0 else "") + str(timedelta(seconds=abs(int(seconds[i]))))
        raise InputError(f"zone {tz.key} is {offset} from UTC at {iso_hour(hours[i])}Z")
    return seconds // 3600


class ZoneOffsets:
    """Whole-hour UTC offsets of a zone near the days some epoch hours touch.

    The offset is probed at each UTC day start from three days before to
    four days after every such day, and hourly on days where it changes.
    ``covers`` tells for which hours lookups are exact: ``hours`` and any
    within a day of them, as instants and as wall times.
    """

    def __init__(self, zone: str, hours: np.ndarray):
        self.zone = zone
        days = np.sort(np.asarray(hours, dtype=np.int64) // HOURS_PER_DAY)
        near = np.sort(np.clip(days[changes(days), None] + np.arange(-3, 5), *_DAY_RANGE), axis=None)
        self._days = near[changes(near)]
        self._starts, self._offsets = self._probe(zone_info(zone), self._days)

    @staticmethod
    def _probe(tz: ZoneInfo, days: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The hours where the offset changes and the offsets from there
        on, probed at each day start and hourly through each day that ends
        at another offset than it starts."""
        offsets = _offsets_at(tz, days * HOURS_PER_DAY)
        changed = days[:-1][(np.diff(days) == 1) & (offsets[1:] != offsets[:-1])]
        hourly = (changed[:, None] * HOURS_PER_DAY + np.arange(1, HOURS_PER_DAY)).ravel()
        starts = np.concatenate([days * HOURS_PER_DAY, hourly])
        offsets = np.concatenate([offsets, _offsets_at(tz, hourly)])
        order = np.argsort(starts)
        keep = changes(offsets[order])
        return starts[order][keep], offsets[order][keep]

    def covers(self, hours: np.ndarray) -> bool:
        """Whether lookups are exact for ``hours``, as instants and as wall
        times: whether the days from two before to two after each of them
        (what ``resolve`` reads), and the day after those, were probed, as
        far as the probed days reach (``_DAY_RANGE``)."""
        days = np.asarray(hours, dtype=np.int64) // HOURS_PER_DAY
        first, last = np.clip(days[changes(days)] + np.array([[-2], [3]]), *_DAY_RANGE)
        lo, end = np.searchsorted(self._days, first), np.searchsorted(self._days, last, "right")
        return bool((end - lo == last - first + 1).all())

    def at(self, utc: np.ndarray) -> np.ndarray:
        """UTC offsets in hours at the given instants."""
        i = np.searchsorted(self._starts, utc, side="right") - 1
        return self._offsets[np.maximum(i, 0)]

    def resolve(self, wall: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Instants of wall times read with fold 0 and fold 1 (as PEP 495
        datetimes), and the mask of wall times the zone skips.

        26 hours either side of a wall time bracket every instant it names.
        """
        before, after = self.at(wall - 26), self.at(wall + 26)
        first, second = wall - before, wall - after
        first_ok = self.at(first) == before
        second_ok = self.at(second) == after
        fold0 = np.where(first_ok | ~second_ok, first, second)
        fold1 = np.where(second_ok | ~first_ok, second, first)
        return fold0, fold1, ~(first_ok | second_ok)
