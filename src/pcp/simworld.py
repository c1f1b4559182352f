"""Declarative simulation setup shared by the CLI and the test suite.

A sim config is a small JSON document describing the world a command or
scenario runs in: the seed, the virtual start time, link topology and
latencies (milliseconds in the file, seconds internally), which discovery
backends exist, and session timing defaults. Example:

    {
      "seed": 7,
      "links": {"lan0": {"latency_ms": [1, 5]}},
      "wan": {"latency_ms": [20, 80]},
      "dht": {"op_latency_ms": [200, 800], "query_interval_ms": 500},
      "mdns": {"op_latency_ms": [2, 8], "query_interval_ms": 250},
      "node_links": ["lan0"],
      "discovery_deadline": 120
    }

Every field is optional; the defaults give one LAN plus wan routing with
both backends enabled.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .discovery import DiscoveryBackend, SimulatedDht, SimulatedMdns
from .errors import InvalidArgument
from .kernel import DEFAULT_START_TIME, Kernel
from .session import SessionConfig
from .simnet import DEFAULT_LAN_LATENCY, DEFAULT_WAN_LATENCY, SimNode, SimulatedNetwork


def _ms_pair(value: Any, fallback: tuple[float, float] | None = None) -> tuple[float, float]:
    if value is None:
        return fallback
    if isinstance(value, (int, float)):
        return (value / 1000.0, value / 1000.0)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        lo, hi = float(value[0]) / 1000.0, float(value[1]) / 1000.0
        return (lo, hi)
    raise InvalidArgument(f"latency must be a number or [lo, hi] pair, got {value!r}")


def _backend_timing(spec: dict) -> dict:
    """The timing a backend spec sets; the backend's own defaults fill the rest."""
    timing = {}
    if spec.get("op_latency_ms") is not None:
        timing["op_latency"] = _ms_pair(spec["op_latency_ms"])
    if spec.get("query_interval_ms") is not None:
        timing["query_interval"] = float(spec["query_interval_ms"]) / 1000.0
    return timing


@dataclass
class SimConfig:
    seed: int = 0
    start_time: float = DEFAULT_START_TIME
    links: dict[str, dict] = field(default_factory=lambda: {"lan0": {}})
    wan: dict | None = field(default_factory=dict)
    dht: dict | None = field(default_factory=dict)
    mdns: dict | None = field(default_factory=dict)
    node_links: list[str] = field(default_factory=list)
    word_count: int = 4
    discovery_deadline: float = 120.0
    handshake_timeout: float = 30.0
    decision_timeout: float = 60.0
    chunk_size: int = 65536
    republish_on_rollover: bool = True

    @classmethod
    def from_dict(cls, doc: dict) -> "SimConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(doc) - known
        if unknown:
            raise InvalidArgument(f"unknown sim config fields: {sorted(unknown)}")
        return cls(**doc)

    @classmethod
    def from_file(cls, path: str) -> "SimConfig":
        with open(path) as f:
            doc = json.load(f)
        if not isinstance(doc, dict):
            raise InvalidArgument("sim config must be a JSON object")
        return cls.from_dict(doc)


class SimWorld:
    """A kernel, a network, and the configured discovery backends."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.kernel = Kernel(seed=config.seed, start_time=config.start_time)
        wan_spec = config.wan
        self.network = SimulatedNetwork(
            self.kernel,
            wan=wan_spec is not None,
            wan_latency=_ms_pair((wan_spec or {}).get("latency_ms"), DEFAULT_WAN_LATENCY),
        )
        for link_id, spec in config.links.items():
            self.network.create_link(
                link_id,
                latency=_ms_pair(spec.get("latency_ms"), DEFAULT_LAN_LATENCY),
                loss=float(spec.get("loss", 0.0)),
            )
        self.backends: list[DiscoveryBackend] = []
        if config.dht is not None:
            self.backends.append(SimulatedDht(self.network, **_backend_timing(config.dht)))
        if config.mdns is not None:
            self.backends.append(SimulatedMdns(self.network, **_backend_timing(config.mdns)))
        if not self.backends:
            raise InvalidArgument("sim config disables every discovery backend")

    @classmethod
    def load(cls, path: str) -> "SimWorld":
        return cls(SimConfig.from_file(path))

    def new_node(self, links: list[str] | None = None) -> SimNode:
        memberships = links if links is not None else self.config.node_links
        if not memberships:
            memberships = list(self.config.links)
        return self.network.spawn_node(memberships)

    def session_config(self, **overrides) -> SessionConfig:
        base = dict(
            backends=tuple(self.backends),
            word_count=self.config.word_count,
            discovery_deadline=self.config.discovery_deadline,
            handshake_timeout=self.config.handshake_timeout,
            decision_timeout=self.config.decision_timeout,
            chunk_size=self.config.chunk_size,
            republish_on_rollover=self.config.republish_on_rollover,
        )
        base.update(overrides)
        return SessionConfig(**base)
