"""Calendar-month arithmetic used throughout the pipeline.

All window logic works on whole calendar months; day-of-month is ignored
everywhere except when materializing concrete dates inside a month.
"""

from __future__ import annotations

import calendar
import datetime as dt
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Month:
    """A (year, month) pair, totally ordered, hashable."""

    year: int
    month: int  # 1..12

    def __post_init__(self):
        if not 1 <= self.month <= 12:
            raise ValueError(f"month out of range: {self.month}")

    @classmethod
    def parse(cls, text: str) -> "Month":
        """Parse 'YYYY-MM'."""
        parts = text.strip().split("-")
        if len(parts) != 2:
            raise ValueError(f"bad year-month: {text!r}")
        return cls(int(parts[0]), int(parts[1]))

    @classmethod
    def of(cls, d: dt.date) -> "Month":
        return cls(d.year, d.month)

    @classmethod
    def from_index(cls, i: int) -> "Month":
        return cls(i // 12, i % 12 + 1)

    @staticmethod
    def index_of(d: dt.date) -> int:
        """``Month.of(d).index`` without building the Month."""
        return d.year * 12 + (d.month - 1)

    @property
    def index(self) -> int:
        # months since year 0, used for arithmetic
        return self.year * 12 + (self.month - 1)

    def plus(self, n: int) -> "Month":
        return Month.from_index(self.index + n)

    def diff(self, other: "Month") -> int:
        """Whole months from `other` to `self` (positive when self is later)."""
        return self.index - other.index

    def last_day(self) -> dt.date:
        return dt.date(self.year, self.month, calendar.monthrange(self.year, self.month)[1])

    def day(self, day_of_month: int) -> dt.date:
        """Date at `day_of_month`, clamped to the month's length."""
        return dt.date(self.year, self.month,
                       min(day_of_month, calendar.monthrange(self.year, self.month)[1]))

    def __str__(self) -> str:
        return f"{self.year:04d}-{self.month:02d}"

    def yymm(self) -> str:
        """Two-digit-year month code, e.g. 2011-10 -> '1110'."""
        return f"{self.year % 100:02d}{self.month:02d}"


def month_range(start: Month, end: Month) -> list[Month]:
    """Inclusive list of consecutive months from start to end."""
    if end < start:
        raise ValueError(f"empty month range {start}..{end}")
    return [start.plus(i) for i in range(end.diff(start) + 1)]
