"""Operation counting and the accumulate-vs-multiply energy estimate.

The spike path is charged in SOPs (event-gated accumulations, E_AC each);
the float reference path in FLOPs (multiply-accumulates plus fixed charges
for native nonlinearities, E_MAC each). The headline figure is

    ratio = (SOPs * E_AC) / (FLOPs * E_MAC)

so values below 1 mean the event-driven path is estimated cheaper than the
float path it replaces. Threshold comparisons are charged nothing, and each
spike event is charged one accumulation. Charging a multi-level event at its
bit width, ceil(log2(2H)) accumulations, scales every SOP count and the
ratio by that factor, so it is read off the plain ledger.

A run charges one EnergyLedger: every kernel records its SOPs or FLOPs at
its site, and every gate clamp and encoder saturation as a counter on the
same ledger. A call given no ledger charges UNCHARGED, which records
nothing.
"""
from __future__ import annotations

import numbers

from .errors import EnergyAccountingError, FormatError
from .neurons import _check_type

E_AC = 0.9
E_MAC = 4.6

# Float-path charges for one evaluation of each native operator.
DEFAULT_FLOP_COSTS: dict[str, int] = {"mac": 1, "gelu": 70, "exp": 20, "sqrt": 12}


class EnergyLedger:
    """Monotone per-site SOP/FLOP counters, charged at E_AC and E_MAC.

    counters maps "<gate site>.clamped" and "<encoder site>.saturated" to
    how many inputs fell outside the gate's range or above the encoder's
    top grid level.
    """

    def __init__(self) -> None:
        self.sops = 0
        self.flops = 0
        self.by_site: dict[str, dict[str, int]] = {}
        self.counters: dict[str, int] = {}

    def _bucket(self, site: str) -> dict[str, int]:
        bucket = self.by_site.get(site)
        if bucket is None:  # a new dict only for a new site, not per call
            bucket = self.by_site[site] = {"sops": 0, "flops": 0}
        return bucket

    def record_sop(self, site: str, n: int) -> None:
        """Charge n spike events, one accumulation each, at site."""
        if n < 0:
            raise EnergyAccountingError(f"cannot record {n} SOPs at {site!r}")
        self.sops += int(n)
        self._bucket(site)["sops"] += int(n)

    def record_flop(self, site: str, n: int) -> None:
        if n < 0:
            raise EnergyAccountingError(f"cannot record {n} FLOPs at {site!r}")
        self.flops += int(n)
        self._bucket(site)["flops"] += int(n)

    def count(self, key: str, n: int) -> None:
        """Add n to the counter at key; a counter appears only once it has
        something to count."""
        if n:
            self.counters[key] = self.counters.get(key, 0) + n

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
            "e_ac": E_AC,
            "e_mac": E_MAC,
            "sops": self.sops,
            "flops": self.flops,
            "ratio": ratio,
            "by_site": {k: dict(v) for k, v in sorted(self.by_site.items())},
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EnergyLedger":
        ledger = cls()
        by_site = d.get("by_site", {})
        _check_type("by_site", by_site, dict)
        for site, counts in by_site.items():
            where = f"by_site[{site!r}]"
            _check_type(where, counts, dict)
            ledger.record_sop(site, _tally(where, counts, "sops"))
            ledger.record_flop(site, _tally(where, counts, "flops"))
        totals = _tally("ledger", d, "sops"), _tally("ledger", d, "flops")
        if (ledger.sops, ledger.flops) != totals:
            raise EnergyAccountingError("ledger totals do not match site breakdown")
        return ledger


class _Uncharged(EnergyLedger):
    """A ledger that records nothing: the default of every kernel, so a call
    that charges no run shares no state with another."""

    def _ignore(self, key: str, n: int) -> None:
        pass

    record_sop = record_flop = count = _ignore


UNCHARGED = _Uncharged()


def _tally(where: str, node: dict, key: str) -> int:
    # checked, not coerced: int(2.7) would read a corrupt count as 2
    if key not in node:
        raise FormatError(f"{where} lacks the count {key!r}")
    _check_type(f"{where}.{key}", node[key], numbers.Integral)
    if node[key] >= 2**53:  # energy_ratio takes it as a float64
        raise EnergyAccountingError(f"{where}.{key} must be below 2**53")
    return node[key]


def energy_ratio(ledger: EnergyLedger) -> float:
    """The accumulate-vs-multiply energy quotient. Undefined without FLOPs."""
    if ledger.flops <= 0:
        raise EnergyAccountingError(
            "energy ratio is undefined: no float-path FLOPs were recorded"
        )
    return (ledger.sops * E_AC) / (ledger.flops * E_MAC)
