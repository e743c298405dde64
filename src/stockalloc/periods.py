"""Year-month arithmetic on "YYYY-MM" strings."""

import re

_PERIOD_RE = re.compile(r"^(\d{4})-(\d{1,2})$")


def period_index(period):
    """Map "YYYY-MM" to an absolute month count usable for ordering and lags."""
    m = _PERIOD_RE.match(str(period).strip())
    if not m:
        raise ValueError(f"bad period {period!r}, expected YYYY-MM")
    year, month = int(m.group(1)), int(m.group(2))
    if not 1 <= month <= 12:
        raise ValueError(f"bad month in period {period!r}")
    return year * 12 + (month - 1)


def period_str(index):
    return f"{index // 12:04d}-{index % 12 + 1:02d}"


def month_of(period):
    return period_index(period) % 12 + 1


def year_of(period):
    return period_index(period) // 12
