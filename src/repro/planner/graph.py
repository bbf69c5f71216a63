"""Join graphs over n extracted relations.

A :class:`JoinGraph` is the planner's workload description: a set of
named relation nodes (each with a schema, a theta grid, and a set of
allowed access paths) plus equality join edges between attributes of
two relations.  Only acyclic, connected graphs are accepted — chains
and stars are the common cases, but any tree shape works.

Every structural defect raises ``ValueError`` with a stable message so
the HTTP layer can map malformed ``relations``/``edges`` payloads to a
4xx response instead of a server error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence, Tuple

from ..core.plan import RetrievalKind

MAX_RELATIONS = 12
MAX_ATTRIBUTES = 8

DEFAULT_THETAS = (0.4, 0.8)
DEFAULT_ACCESS_PATHS = (RetrievalKind.SCAN,)

_PAYLOAD_KINDS = {kind.value: kind for kind in RetrievalKind if kind is not RetrievalKind.JOIN_DRIVEN}


def _require_name(value: object, what: str) -> str:
    if not isinstance(value, str) or not value or len(value) > 64:
        raise ValueError(f"{what} must be a non-empty string of at most 64 characters")
    return value


@dataclass(frozen=True)
class RelationNode:
    """One extracted relation in the join graph."""

    name: str
    attributes: Tuple[str, ...]
    thetas: Tuple[float, ...] = DEFAULT_THETAS
    access_paths: Tuple[RetrievalKind, ...] = DEFAULT_ACCESS_PATHS

    def __post_init__(self) -> None:
        _require_name(self.name, "relation name")
        if not self.attributes or len(self.attributes) > MAX_ATTRIBUTES:
            raise ValueError(
                f"relation {self.name!r} needs between 1 and {MAX_ATTRIBUTES} attributes"
            )
        for attribute in self.attributes:
            _require_name(attribute, f"attribute of relation {self.name!r}")
        if len(set(self.attributes)) != len(self.attributes):
            raise ValueError(f"relation {self.name!r} has duplicate attributes")
        if not self.thetas:
            raise ValueError(f"relation {self.name!r} needs at least one theta")
        for theta in self.thetas:
            if not isinstance(theta, (int, float)) or isinstance(theta, bool):
                raise ValueError(f"theta of relation {self.name!r} must be a number")
            if not 0.0 <= float(theta) <= 1.0:
                raise ValueError(f"theta of relation {self.name!r} must lie in [0, 1]")
        if len(set(self.thetas)) != len(self.thetas):
            raise ValueError(f"relation {self.name!r} repeats a theta")
        if not self.access_paths:
            raise ValueError(f"relation {self.name!r} needs at least one access path")
        for kind in self.access_paths:
            if not isinstance(kind, RetrievalKind) or kind is RetrievalKind.JOIN_DRIVEN:
                raise ValueError(
                    f"relation {self.name!r} has an unsupported access path {kind!r}"
                )
        if len(set(self.access_paths)) != len(self.access_paths):
            raise ValueError(f"relation {self.name!r} repeats an access path")


@dataclass(frozen=True)
class JoinEdge:
    """Equality join between one attribute of each of two relations."""

    left: str
    left_attribute: str
    right: str
    right_attribute: str

    def __post_init__(self) -> None:
        _require_name(self.left, "edge relation")
        _require_name(self.right, "edge relation")
        _require_name(self.left_attribute, "edge attribute")
        _require_name(self.right_attribute, "edge attribute")
        if self.left == self.right:
            raise ValueError(f"edge joins relation {self.left!r} with itself")

    def attribute_of(self, relation: str) -> str:
        if relation == self.left:
            return self.left_attribute
        if relation == self.right:
            return self.right_attribute
        raise KeyError(relation)

    def other(self, relation: str) -> str:
        if relation == self.left:
            return self.right
        if relation == self.right:
            return self.left
        raise KeyError(relation)

    def describe(self) -> str:
        return f"{self.left}.{self.left_attribute}={self.right}.{self.right_attribute}"


@dataclass(frozen=True)
class JoinGraph:
    """An acyclic, connected join graph over named relations."""

    relations: Tuple[RelationNode, ...]
    edges: Tuple[JoinEdge, ...]
    _by_name: Mapping[str, RelationNode] = field(
        init=False, repr=False, compare=False, hash=False, default=None  # type: ignore[assignment]
    )

    def __post_init__(self) -> None:
        if len(self.relations) < 2 or len(self.relations) > MAX_RELATIONS:
            raise ValueError(
                f"a join graph needs between 2 and {MAX_RELATIONS} relations"
                f" (got {len(self.relations)})"
            )
        by_name: Dict[str, RelationNode] = {}
        for node in self.relations:
            if node.name in by_name:
                raise ValueError(f"duplicate relation {node.name!r}")
            by_name[node.name] = node
        n = len(self.relations)
        if len(self.edges) != n - 1:
            raise ValueError(
                f"a join graph over {n} relations needs exactly {n - 1} edges"
                f" (got {len(self.edges)}): cycles and cross products are not supported"
            )
        seen_pairs = set()
        for edge in self.edges:
            for relation, attribute in (
                (edge.left, edge.left_attribute),
                (edge.right, edge.right_attribute),
            ):
                node = by_name.get(relation)
                if node is None:
                    raise ValueError(f"edge references unknown relation {relation!r}")
                if attribute not in node.attributes:
                    raise ValueError(
                        f"edge references dangling attribute"
                        f" {relation}.{attribute}"
                    )
            pair = frozenset((edge.left, edge.right))
            if pair in seen_pairs:
                raise ValueError(
                    f"duplicate edge between {edge.left!r} and {edge.right!r}"
                )
            seen_pairs.add(pair)
        # With n-1 distinct edges, connectivity implies acyclicity.
        reached = {self.relations[0].name}
        frontier = [self.relations[0].name]
        adjacency: Dict[str, List[str]] = {node.name: [] for node in self.relations}
        for edge in self.edges:
            adjacency[edge.left].append(edge.right)
            adjacency[edge.right].append(edge.left)
        while frontier:
            name = frontier.pop()
            for neighbour in adjacency[name]:
                if neighbour not in reached:
                    reached.add(neighbour)
                    frontier.append(neighbour)
        if len(reached) != n:
            missing = sorted(set(by_name) - reached)
            raise ValueError(
                f"join graph is not connected (cycle or unreachable relations:"
                f" {', '.join(missing) or 'cycle among edges'})"
            )
        object.__setattr__(self, "_by_name", by_name)

    # ------------------------------------------------------------------
    # Accessors

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(node.name for node in self.relations)

    @property
    def arity(self) -> int:
        return len(self.relations)

    def relation(self, name: str) -> RelationNode:
        try:
            return self._by_name[name]
        except KeyError:
            raise ValueError(f"unknown relation {name!r}") from None

    def index_of(self, name: str) -> int:
        for index, node in enumerate(self.relations):
            if node.name == name:
                return index
        raise ValueError(f"unknown relation {name!r}")

    def incident(self, name: str) -> Tuple[JoinEdge, ...]:
        return tuple(e for e in self.edges if name in (e.left, e.right))

    def neighbours(self, name: str) -> Tuple[str, ...]:
        return tuple(e.other(name) for e in self.incident(name))

    def edge_between(self, a: str, b: str) -> JoinEdge:
        for edge in self.edges:
            if {edge.left, edge.right} == {a, b}:
                return edge
        raise ValueError(f"no edge between {a!r} and {b!r}")

    def join_attributes(self, name: str) -> Tuple[str, ...]:
        """The relation's attributes used by incident edges, in schema order."""
        used = {edge.attribute_of(name) for edge in self.incident(name)}
        return tuple(a for a in self.relation(name).attributes if a in used)

    def is_chain(self) -> bool:
        degrees = {name: len(self.incident(name)) for name in self.names}
        return max(degrees.values()) <= 2

    def subset_connected(self, subset: FrozenSet[str]) -> bool:
        if not subset:
            return False
        start = next(iter(subset))
        reached = {start}
        frontier = [start]
        while frontier:
            name = frontier.pop()
            for edge in self.incident(name):
                other = edge.other(name)
                if other in subset and other not in reached:
                    reached.add(other)
                    frontier.append(other)
        return reached == set(subset)

    def signature(self) -> str:
        """A stable identity of the graph's shape: relations, schemas, edges."""
        nodes = ";".join(
            "{}({})".format(node.name, ",".join(node.attributes))
            for node in sorted(self.relations, key=lambda n: n.name)
        )
        edges = ";".join(sorted(edge.describe() for edge in self.edges))
        return f"mwg:{nodes}|{edges}"

    def plan_space_key(self) -> str:
        """The identity of the plan space searched over this graph.

        The signature plus every relation's theta grid and access paths:
        one graph shape with two grids is two plan spaces with two
        answers, so plan caches, request coalescing and stored plans key
        on this, never on :meth:`signature` alone.
        """
        grids = ";".join(
            "{}[{}/{}]".format(
                node.name,
                ",".join(repr(float(theta)) for theta in node.thetas),
                ",".join(kind.value for kind in node.access_paths),
            )
            for node in sorted(self.relations, key=lambda n: n.name)
        )
        return f"{self.signature()}|grids:{grids}"

    def describe(self) -> str:
        return " ".join(edge.describe() for edge in self.edges)

    # ------------------------------------------------------------------
    # Constructors

    @classmethod
    def chain(
        cls,
        relations: Sequence[RelationNode],
        attributes: Sequence[Tuple[str, str]],
    ) -> "JoinGraph":
        """Chain R1 -- R2 -- ... with ``attributes[i] = (left_attr, right_attr)``."""
        if len(attributes) != len(relations) - 1:
            raise ValueError("a chain over n relations needs n-1 attribute pairs")
        edges = tuple(
            JoinEdge(relations[i].name, attributes[i][0], relations[i + 1].name, attributes[i][1])
            for i in range(len(attributes))
        )
        return cls(tuple(relations), edges)

    @classmethod
    def star(cls, relations: Sequence[RelationNode], attribute: str) -> "JoinGraph":
        """Star with ``relations[0]`` at the centre, all joined on ``attribute``."""
        centre = relations[0]
        edges = tuple(
            JoinEdge(centre.name, attribute, node.name, attribute)
            for node in relations[1:]
        )
        return cls(tuple(relations), edges)

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "JoinGraph":
        """Parse the service's ``relations``/``edges`` request shape.

        Raises only ``ValueError`` on malformed input so callers can map
        defects to a 4xx response.
        """
        if not isinstance(payload, Mapping):
            raise ValueError("join graph payload must be an object")
        raw_relations = payload.get("relations")
        raw_edges = payload.get("edges")
        if not isinstance(raw_relations, (list, tuple)):
            raise ValueError("'relations' must be a list")
        if not isinstance(raw_edges, (list, tuple)):
            raise ValueError("'edges' must be a list")
        if len(raw_relations) > MAX_RELATIONS:
            raise ValueError(f"at most {MAX_RELATIONS} relations are supported")
        if len(raw_edges) > MAX_RELATIONS:
            raise ValueError("too many edges")
        relations = tuple(_relation_from_payload(item) for item in raw_relations)
        edges = tuple(_edge_from_payload(item) for item in raw_edges)
        return cls(relations, edges)


def _relation_from_payload(item: object) -> RelationNode:
    if isinstance(item, str):
        return RelationNode(name=item, attributes=("value",))
    if not isinstance(item, Mapping):
        raise ValueError("each relation must be an object or a name string")
    name = _require_name(item.get("name"), "relation name")
    raw_attributes = item.get("attributes", ("value",))
    if not isinstance(raw_attributes, (list, tuple)):
        raise ValueError(f"attributes of relation {name!r} must be a list")
    attributes = tuple(
        _require_name(a, f"attribute of relation {name!r}") for a in raw_attributes
    )
    thetas: Tuple[float, ...] = DEFAULT_THETAS
    if "thetas" in item:
        raw_thetas = item["thetas"]
        if not isinstance(raw_thetas, (list, tuple)) or not raw_thetas:
            raise ValueError(f"thetas of relation {name!r} must be a non-empty list")
        checked: List[float] = []
        for theta in raw_thetas:
            if not isinstance(theta, (int, float)) or isinstance(theta, bool):
                raise ValueError(f"theta of relation {name!r} must be a number")
            checked.append(float(theta))
        thetas = tuple(checked)
    access_paths: Tuple[RetrievalKind, ...] = DEFAULT_ACCESS_PATHS
    if "access_paths" in item:
        raw_paths = item["access_paths"]
        if not isinstance(raw_paths, (list, tuple)) or not raw_paths:
            raise ValueError(
                f"access_paths of relation {name!r} must be a non-empty list"
            )
        kinds: List[RetrievalKind] = []
        for raw in raw_paths:
            if not isinstance(raw, str) or raw not in _PAYLOAD_KINDS:
                allowed = ", ".join(sorted(_PAYLOAD_KINDS))
                raise ValueError(
                    f"access path {raw!r} of relation {name!r} is not one of {allowed}"
                )
            kinds.append(_PAYLOAD_KINDS[raw])
        access_paths = tuple(kinds)
    return RelationNode(name=name, attributes=attributes, thetas=thetas, access_paths=access_paths)


def _edge_from_payload(item: object) -> JoinEdge:
    if isinstance(item, str):
        # Compact form "HQ.Company=EX.Company".
        sides = item.split("=")
        if len(sides) != 2:
            raise ValueError(f"edge {item!r} must look like 'R1.attr=R2.attr'")
        parsed = []
        for side in sides:
            pieces = side.split(".")
            if len(pieces) != 2:
                raise ValueError(f"edge {item!r} must look like 'R1.attr=R2.attr'")
            parsed.append((pieces[0], pieces[1]))
        return JoinEdge(parsed[0][0], parsed[0][1], parsed[1][0], parsed[1][1])
    if not isinstance(item, Mapping):
        raise ValueError("each edge must be an object or a 'R1.attr=R2.attr' string")
    return JoinEdge(
        left=_require_name(item.get("left"), "edge relation"),
        left_attribute=_require_name(
            item.get("left_attribute", item.get("attribute")), "edge attribute"
        ),
        right=_require_name(item.get("right"), "edge relation"),
        right_attribute=_require_name(
            item.get("right_attribute", item.get("attribute")), "edge attribute"
        ),
    )
