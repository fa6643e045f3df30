"""Resource limits, overridable through APRINGS_* environment variables."""

from __future__ import annotations

import os
from dataclasses import dataclass

from .errors import CarrierBoundExceeded, ExpressionError, OrderBoundExceeded


@dataclass(frozen=True)
class Limits:
    """Hard bounds for the enumerative parts of the package.

    All values are inclusive caps.  ``default_limits`` reads the
    environment once per call, so tests can monkeypatch the variables.
    """

    max_group_order: int = 5040        # permutation-group closure
    max_subgroup_order: int = 720      # subgroup-lattice enumeration
    max_carrier: int = 4096            # finite-quotient carrier size
    max_oracle_spectrum: int = 256     # exhaustive ideal enumeration
    max_sumset: int = 20000            # |T_n| cap during sum-set extension
    max_summands: int = 8              # n cap for root_sum_set

    def check_group_order(self, size: int) -> None:
        """Raise OrderBoundExceeded when a group closure reaches `size` > max_group_order."""
        if size > self.max_group_order:
            raise OrderBoundExceeded(
                f"group closure exceeds the limit max_group_order = {self.max_group_order}: "
                f"reached {size} elements"
            )

    def check_carrier(self, size: int) -> None:
        """Raise CarrierBoundExceeded when `size` elements of a finite ring,
        about to be or being materialised, are more than max_carrier."""
        if size > self.max_carrier:
            raise CarrierBoundExceeded(
                f"carrier exceeds the limit max_carrier = {self.max_carrier}: "
                f"reached {size} elements"
            )

    def check_oracle_spectrum(self, size: int) -> None:
        """Raise CarrierBoundExceeded when the ideals of a finite ring of
        `size` elements, more than max_oracle_spectrum, are to be enumerated."""
        if size > self.max_oracle_spectrum:
            raise CarrierBoundExceeded(
                f"ideal enumeration exceeds the limit max_oracle_spectrum = "
                f"{self.max_oracle_spectrum}: reached a carrier of {size} elements"
            )


_ENV_FIELDS = {
    "max_group_order": "APRINGS_MAX_GROUP_ORDER",
    "max_carrier": "APRINGS_MAX_CARRIER",
    "max_sumset": "APRINGS_MAX_SUMSET",
}


def default_limits() -> Limits:
    overrides = {}
    for field, env in _ENV_FIELDS.items():
        raw = os.environ.get(env)
        if raw is None:
            continue
        if not raw.strip().isdecimal() or int(raw) < 1:
            raise ExpressionError(f"{env} must be a positive integer, got {raw!r}")
        overrides[field] = int(raw)
    return Limits(**overrides)
