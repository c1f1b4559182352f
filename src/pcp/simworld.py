"""Declarative simulation setup shared by the CLI and the test suite.

A sim config is a small JSON document describing the world a command or
scenario runs in: the seed, the virtual start time, link topology and
latencies (milliseconds in the file, seconds internally), which discovery
backends exist, and the discovery deadline. Example:

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
both backends enabled. A value of the wrong JSON type, a field unknown at
the top level or inside a link, ``wan``, ``dht`` or ``mdns`` object, a link
named ``wan`` (that name is reserved for the wan), a negative start time, a
link name that ``node_links`` does not know, a discovery deadline that is
not a positive number, or a world in which no enabled backend reaches a
node made with the default memberships raises InvalidArgument while the
world is loaded. The default memberships are ``node_links``, or every link
when it is empty, plus the wan when it is on; the DHT reaches a node
through the wan, and mDNS through any other link it is on.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import Any

from .discovery import DiscoveryBackend, SimulatedDht, SimulatedMdns
from .errors import InvalidArgument
from .kernel import DEFAULT_START_TIME, Kernel
from .session import SessionConfig
from .simnet import DEFAULT_LAN_LATENCY, DEFAULT_WAN_LATENCY, WAN_LINK, SimNode, SimulatedNetwork


def _number(value: Any, what: str) -> float:
    """A JSON number as a finite float; true and false are not numbers here."""
    finite = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max  # NaN is not
    if not finite or isinstance(value, bool):
        raise InvalidArgument(f"{what} must be a finite number, got {value!r}")
    return float(value)


def _latency(spec: dict, key: str, where: str, fallback=None) -> tuple[float, float] | None:
    """``spec[key]`` in ms, one number or a [lo, hi] pair, as seconds; absent or null: fallback."""
    value = spec.get(key)
    if value is None:
        return fallback
    pair = value if isinstance(value, (list, tuple)) and len(value) == 2 else (value, value)
    return tuple(_number(ms, f"{where}.{key}") / 1000.0 for ms in pair)


# the fields SimWorld reads inside each nested object
_LINK_FIELDS = {"latency_ms", "loss"}
_NESTED_FIELDS = {
    "wan": {"latency_ms"},
    "dht": {"op_latency_ms", "query_interval_ms"},
    "mdns": {"op_latency_ms", "query_interval_ms"},
}


def _no_unknown_fields(spec: dict, known: set[str], where: str) -> None:
    unknown = set(spec) - known
    if unknown:
        raise InvalidArgument(f"unknown {where} fields: {sorted(unknown, key=str)}")


def _backend_timing(spec: dict, name: str) -> dict:
    """The timing a backend spec sets; None leaves the backend's own default."""
    interval = spec.get("query_interval_ms")
    if interval is not None:
        interval = _number(interval, f"{name}.query_interval_ms") / 1000.0
    return {"op_latency": _latency(spec, "op_latency_ms", name), "query_interval": interval}


@dataclass
class SimConfig:
    seed: int = 0
    start_time: float = DEFAULT_START_TIME
    links: dict[str, dict] = field(default_factory=lambda: {"lan0": {}})
    wan: dict | None = field(default_factory=dict)
    dht: dict | None = field(default_factory=dict)
    mdns: dict | None = field(default_factory=dict)
    node_links: list[str] = field(default_factory=list)
    discovery_deadline: float = SessionConfig.discovery_deadline

    def __post_init__(self) -> None:
        """Check each field's JSON type, and that some backend reaches a node.

        SimWorld checks the values inside the fields as it reads them.
        """
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise InvalidArgument(f"seed must be an integer, got {self.seed!r}")
        if _number(self.start_time, "start_time") < 0:
            raise InvalidArgument(f"start_time must be >= 0, got {self.start_time}")
        if not isinstance(self.links, dict) or not all(
            isinstance(spec, dict) for spec in self.links.values()
        ):
            raise InvalidArgument(f"links must be an object of objects, got {self.links!r}")
        if WAN_LINK in self.links:
            raise InvalidArgument(f"links may not be named {WAN_LINK!r}: that name is the wan's")
        for link_id, spec in self.links.items():
            _no_unknown_fields(spec, _LINK_FIELDS, f"links.{link_id}")
        for name, known_fields in _NESTED_FIELDS.items():
            spec = getattr(self, name)
            if not isinstance(spec, (dict, type(None))):
                raise InvalidArgument(f"{name} must be an object or null, got {spec!r}")
            _no_unknown_fields(spec or {}, known_fields, name)
        known = [*self.links, *([WAN_LINK] if self.wan is not None else [])]
        if not (isinstance(self.node_links, list) and all(n in known for n in self.node_links)):
            raise InvalidArgument(f"node_links must name links in {known}, got {self.node_links!r}")
        if _number(self.discovery_deadline, "discovery_deadline") <= 0:
            raise InvalidArgument(f"discovery_deadline must be > 0, got {self.discovery_deadline}")
        # a node made with the default memberships (SimWorld.new_node) must be reachable
        dht_reaches = self.dht is not None and self.wan is not None
        lans = [link for link in self.node_links or self.links if link != WAN_LINK]
        if not (dht_reaches or self.mdns is not None and lans):
            raise InvalidArgument(
                "no enabled discovery backend reaches a node: the dht needs the wan, and "
                "mdns a link other than the wan in node_links (or, when that is empty, links)"
            )

    @classmethod
    def from_dict(cls, doc: dict) -> "SimConfig":
        _no_unknown_fields(doc, set(cls.__dataclass_fields__), "sim config")
        return cls(**doc)

    @classmethod
    def from_file(cls, path: str) -> "SimConfig":
        with open(path) as f:
            try:
                doc = json.load(f)
            except RecursionError:
                raise InvalidArgument("sim config is nested too deeply") from None
        if not isinstance(doc, dict):
            raise InvalidArgument("sim config must be a JSON object")
        return cls.from_dict(doc)


class SimWorld:
    """A kernel, a network, and the configured discovery backends."""

    def __init__(self, config: SimConfig):
        self.config = config
        self.kernel = Kernel(seed=config.seed, start_time=config.start_time)
        self.network = SimulatedNetwork(
            self.kernel,
            wan=config.wan is not None,
            wan_latency=_latency(config.wan or {}, "latency_ms", "wan", DEFAULT_WAN_LATENCY),
        )
        for link_id, spec in config.links.items():
            where = f"links.{link_id}"
            self.network.create_link(
                link_id,
                latency=_latency(spec, "latency_ms", where, DEFAULT_LAN_LATENCY),
                loss=_number(spec.get("loss", 0.0), f"{where}.loss"),
            )
        self.backends: list[DiscoveryBackend] = []
        if config.dht is not None:
            self.backends.append(SimulatedDht(self.network, **_backend_timing(config.dht, "dht")))
        if config.mdns is not None:
            self.backends.append(SimulatedMdns(self.network, **_backend_timing(config.mdns, "mdns")))

    @classmethod
    def load(cls, path: str) -> "SimWorld":
        return cls(SimConfig.from_file(path))

    def new_node(self, links: list[str] | None = None) -> SimNode:
        memberships = links if links is not None else self.config.node_links
        if not memberships:
            memberships = list(self.config.links)
        return self.network.spawn_node(memberships)

    def session_config(self, **overrides) -> SessionConfig:
        base = dict(backends=tuple(self.backends), discovery_deadline=self.config.discovery_deadline)
        base.update(overrides)
        return SessionConfig(**base)
