"""Operation counting and the accumulate-vs-multiply energy estimate.

The spike path is charged in SOPs (event-gated accumulations, E_AC each);
the float reference path in FLOPs (multiply-accumulates plus fixed charges
for native nonlinearities, E_MAC each). The headline figure is

    ratio = (SOPs * E_AC) / (FLOPs * E_MAC)

so values below 1 mean the event-driven path is estimated cheaper than the
float path it replaces. Threshold comparisons are charged nothing; a config
flag can charge multi-level events at ceil(log2(levels)) accumulations each
instead of one.
"""
from __future__ import annotations

import numbers

from .errors import EnergyAccountingError
from .neurons import _check_type

E_AC = 0.9
E_MAC = 4.6

# Float-path charges for one evaluation of each native operator.
DEFAULT_FLOP_COSTS: dict[str, int] = {"mac": 1, "gelu": 70, "exp": 20, "sqrt": 12}


class EnergyLedger:
    """Monotone per-site SOP/FLOP counters with fixed energy constants.

    sop_weight is the charge per spike event (1 by default; the multi-level
    alternative charges each event as its bit width).
    """

    def __init__(self, sop_weight: int = 1) -> None:
        if sop_weight < 1:
            raise EnergyAccountingError(f"sop_weight must be >= 1, got {sop_weight}")
        self.e_ac = E_AC
        self.e_mac = E_MAC
        self.sop_weight = sop_weight
        self.sops = 0
        self.flops = 0
        self.by_site: dict[str, dict[str, int]] = {}

    def _bucket(self, site: str) -> dict[str, int]:
        return self.by_site.setdefault(site, {"sops": 0, "flops": 0})

    def record_sop(self, site: str, n: int) -> None:
        """Charge n spike events (each sop_weight accumulations) at site."""
        if n < 0:
            raise EnergyAccountingError(f"cannot record {n} SOPs at {site!r}")
        charged = int(n) * self.sop_weight
        self.sops += charged
        self._bucket(site)["sops"] += charged

    def record_flop(self, site: str, n: int) -> None:
        if n < 0:
            raise EnergyAccountingError(f"cannot record {n} FLOPs at {site!r}")
        self.flops += int(n)
        self._bucket(site)["flops"] += int(n)

    def charge(self, site: str, kind: str, count: int) -> None:
        """Record count evaluations of a native float operator at site,
        each at its DEFAULT_FLOP_COSTS charge."""
        if kind not in DEFAULT_FLOP_COSTS:
            known = ", ".join(sorted(DEFAULT_FLOP_COSTS))
            raise EnergyAccountingError(f"unknown op kind {kind!r}; known kinds: {known}")
        self.record_flop(site, DEFAULT_FLOP_COSTS[kind] * count)

    def to_dict(self) -> dict:
        ratio = energy_ratio(self) if self.flops > 0 else None
        return {
            "e_ac": self.e_ac,
            "e_mac": self.e_mac,
            "sop_weight": self.sop_weight,
            "sops": self.sops,
            "flops": self.flops,
            "ratio": ratio,
            "by_site": {k: dict(v) for k, v in sorted(self.by_site.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EnergyLedger":
        # checked, not coerced: int(2.7) would read a corrupt count as 2
        sop_weight = d.get("sop_weight", 1)
        _check_type("sop_weight", sop_weight, numbers.Integral)
        ledger = cls(sop_weight=sop_weight)
        by_site = d.get("by_site", {})
        _check_type("by_site", by_site, dict)
        for site, counts in by_site.items():
            _check_type(f"by_site[{site!r}]", counts, dict)
            for key in ("sops", "flops"):
                _check_type(f"by_site[{site!r}].{key}", counts[key], numbers.Integral)
            ledger.record_sop(site, counts["sops"] // ledger.sop_weight)
            ledger.record_flop(site, counts["flops"])
        for key in ("sops", "flops"):
            _check_type(key, d[key], numbers.Integral)
        if ledger.sops != d["sops"] or ledger.flops != d["flops"]:
            raise EnergyAccountingError("ledger totals do not match site breakdown")
        return ledger


def energy_ratio(ledger: EnergyLedger) -> float:
    """The accumulate-vs-multiply energy quotient. Undefined without FLOPs."""
    if ledger.flops <= 0:
        raise EnergyAccountingError(
            "energy ratio is undefined: no float-path FLOPs were recorded"
        )
    return (ledger.sops * ledger.e_ac) / (ledger.flops * ledger.e_mac)
