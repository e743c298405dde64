"""Two-class synthetic scenario for stress-testing decision-blind training.

Facilities come in two populations. Low-inventory facilities hold less
stock than they dispense, so they depend on replenishment; their demand
rises steeply with prior inventory. High-inventory facilities sit on more
stock than they dispense (demand scales only weakly with their inventory),
so they need no replenishment at all. A single global model fitted across
both populations interpolates between the two demand lines and makes
systematic errors exactly where allocations are decided.

The generator emits the same feature-table format the ingest stage
produces, so downstream stages treat synthetic and real data identically.
Feature 0 is prior inventory, named `ingest.INVENTORY_COLUMN`; because of
that name every stage judges allocations on this data by the net
requirement (demand minus on-hand inventory, floored at zero), which is
what the budget actually has to cover.
"""

from dataclasses import dataclass

import numpy as np

from .config import check, is_int, is_real
from .errors import ConfigError
from .ingest import INVENTORY_COLUMN, FeatureTable
from .periods import period_index, period_str

PRODUCT_ID = "synthetic"
_FIRST_PERIOD = "2020-01"


@dataclass(frozen=True)
class TwoClassScenario:
    n_low: int = 50
    n_high: int = 50
    slope_low: float = 0.9
    slope_high: float = 0.2
    intercept_low: float = 10.0
    intercept_high: float = 0.0
    low_inventory: tuple = (0.0, 40.0)
    high_inventory: tuple = (45.0, 70.0)
    noise_sd: float | None = None  # None -> 0.1 * analytic mean demand
    seed: int = 0

    def __post_init__(self):
        for name in ("n_low", "n_high", "seed"):
            check(self, name, is_int(getattr(self, name), 0), "an integer >= 0")
        if self.n_low + self.n_high == 0:
            raise ConfigError("need a positive facility count")
        for name in ("slope_low", "slope_high", "intercept_low", "intercept_high"):
            check(self, name, is_real(getattr(self, name)), "a finite number")
        if self.slope_low <= 0 or self.slope_high <= 0:
            raise ConfigError("slopes must be positive")
        if self.slope_low <= self.slope_high:
            raise ConfigError("low-inventory demand must scale faster with inventory")
        for name in ("low_inventory", "high_inventory"):
            r = getattr(self, name)
            check(self, name, isinstance(r, tuple) and len(r) == 2 and all(map(is_real, r))
                  and r[0] < r[1], "a (low, high) pair of finite numbers, low < high")
        if self.low_inventory[1] > self.high_inventory[0]:
            raise ConfigError("low-class inventory range must lie below the high-class range")
        noise_sd = self.noise_sd
        check(self, "noise_sd", noise_sd is None or (is_real(noise_sd) and noise_sd >= 0),
              "None or a finite number >= 0")

    @property
    def mean_demand(self):
        """Analytic mean demand across both classes (no noise, no truncation)."""
        mid_low = 0.5 * (self.low_inventory[0] + self.low_inventory[1])
        mid_high = 0.5 * (self.high_inventory[0] + self.high_inventory[1])
        total = self.n_low + self.n_high
        return (
            self.n_low * (self.intercept_low + self.slope_low * mid_low)
            + self.n_high * (self.intercept_high + self.slope_high * mid_high)
        ) / total

    @property
    def effective_noise_sd(self):
        if self.noise_sd is not None:
            return self.noise_sd
        return 0.1 * self.mean_demand


def generate(scenario, periods=24):
    """Draw the scenario: (FeatureTable, per-row true mean demand).

    Per period each facility draws a fresh prior inventory uniformly from
    its class range; demand is the class line at that inventory plus
    Gaussian noise, truncated at zero. Features are class-blind:
    [prior inventory, month-of-year, uniform noise]. Row order is
    low-class facilities then high-class facilities within each period.
    """
    if periods < 1:
        raise ConfigError("periods must be >= 1")
    rng = np.random.default_rng(scenario.seed)
    sd = scenario.effective_noise_sd

    fac_ids = [f"low_{i:03d}" for i in range(scenario.n_low)] + [
        f"high_{i:03d}" for i in range(scenario.n_high)
    ]
    lows = np.array([1.0] * scenario.n_low + [0.0] * scenario.n_high)
    intercepts = np.where(lows == 1.0, scenario.intercept_low, scenario.intercept_high)
    slopes = np.where(lows == 1.0, scenario.slope_low, scenario.slope_high)

    start = period_index(_FIRST_PERIOD)
    periods_col, Xs, demands, truths = [], [], [], []
    n = len(fac_ids)
    for t in range(periods):
        inv_low = rng.uniform(*scenario.low_inventory, size=scenario.n_low)
        inv_high = rng.uniform(*scenario.high_inventory, size=scenario.n_high)
        inventory = np.concatenate([inv_low, inv_high])
        mean = intercepts + slopes * inventory
        noise = rng.normal(0.0, sd, size=n) if sd > 0 else np.zeros(n)
        demands.append(np.clip(mean + noise, 0.0, None))
        month = float((start + t) % 12 + 1)
        Xs.append(np.column_stack(
            [inventory, np.full(n, month), rng.uniform(0.0, 1.0, size=n)]
        ))
        periods_col += [period_str(start + t)] * n
        truths.append(mean)

    table = FeatureTable(
        facility_ids=fac_ids * periods,
        product_ids=[PRODUCT_ID] * (n * periods),
        periods=periods_col,
        X=np.vstack(Xs),
        y=np.concatenate(demands),
        weights=np.ones(n * periods),
        feature_names=[INVENTORY_COLUMN, "month", "noise"],
    )
    return table, np.concatenate(truths)
