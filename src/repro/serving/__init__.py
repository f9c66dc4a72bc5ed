"""Serving layer: memoised, observable selection at traffic scale.

:class:`SelectionService` fronts one device's selection policy;
:class:`FleetRouter` dispatches traffic across many of them with
round-robin / least-outstanding / perf-aware policies and cross-device
fallback when a device's circuit breaker opens.
"""

from repro.serving.adaptive import AdaptiveSelectionService, AdaptiveStats
from repro.serving.router import ROUTING_POLICIES, FleetRouter, RoutedDecision
from repro.serving.service import SelectionService
from repro.serving.stats import FleetStats, ServiceStats

__all__ = [
    "AdaptiveSelectionService",
    "AdaptiveStats",
    "FleetRouter",
    "FleetStats",
    "ROUTING_POLICIES",
    "RoutedDecision",
    "SelectionService",
    "ServiceStats",
]
