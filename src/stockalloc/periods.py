"""Year-month arithmetic on "YYYY-MM" strings.

Parsing is memoized with `functools.lru_cache`: a ledger repeats a few
dozen period strings on every line.
"""

import functools
import re

import numpy as np

_PERIOD_RE = re.compile(r"^(\d{4})-(\d{1,2})$")
_MALFORMED, _BAD_MONTH = -1, -2  # month counts themselves are never negative


def period_index(period):
    """Map "YYYY-MM" to an absolute month count usable for ordering and lags."""
    index = _month_count(str(period).strip())
    if index == _MALFORMED:
        raise ValueError(f"bad period {period!r}, expected YYYY-MM")
    if index == _BAD_MONTH:
        raise ValueError(f"bad month in period {period!r}")
    return index


@functools.lru_cache(maxsize=4096)
def _month_count(text):
    """`period_index` of a stripped string, or a negative code naming the fault."""
    m = _PERIOD_RE.match(text)
    if not m:
        return _MALFORMED
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        return _BAD_MONTH
    return year * 12 + (month - 1)


@functools.lru_cache(maxsize=4096)
def normalize_period(period):
    """The "YYYY-MM" spelling of a hashable `period`; raises as `period_index` does."""
    return period_str(period_index(period))


def period_indices(periods):
    """`period_index` of every item, as an int64 array; the first bad item raises.

    Each distinct spelling is parsed once: a table repeats a few dozen."""
    texts = list(map(str, periods))
    place = dict.fromkeys(texts)
    for k, text in enumerate(place):
        place[text] = k
    distinct = np.array([_month_count(text.strip()) for text in place], dtype=np.int64)
    months = distinct[np.fromiter(map(place.__getitem__, texts), dtype=np.intp, count=len(texts))]
    if len(months) and months.min() < 0:
        period_index(periods[int(np.argmax(months < 0))])
    return months


def period_str(index):
    return f"{index // 12:04d}-{index % 12 + 1:02d}"
