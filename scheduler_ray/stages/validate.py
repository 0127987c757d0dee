"""Stage: SHACL-style document validation (SURVEY.md M2/ST3).

The reference optionally validates every harvested JSON-LD document
against SHACL shapes via a long-lived gRPC validator service
(reference userCode/lib/containers.py:44-48,81-87; service at
Docker/Docker-compose.yaml:7-16), with ``--exit-on-shacl-failure``
escalating violations to fatal.

Ray-Data-first: the shape set is compiled once on the driver and
shipped with the stateless ``map_batches`` tasks — no network hop per
document.  Output is a row-level ``valid:bool`` +
``violations:list<string>``; ``strict=True`` reproduces exit-on-failure
by raising on the first violating batch.

The shape language is a pragmatic SHACL subset (what the Geoconnex
shapes actually exercise): required properties, value datatype (uri /
string / number), numeric ranges, pattern constraints — plus, since
round 3, ``sh:class`` (value node's @type), ``sh:node`` (nested property
shapes applied to object values), ``sh:or`` (alternative constraint
sets, satisfied if ANY alternative passes) and ``sh:severity``
(``sh:Warning``/``sh:Info`` findings are reported in a separate
``warnings`` column and do NOT gate validity; only ``sh:Violation``
does, matching SHACL conformance semantics) — and, since round 4,
``sh:minCount``>1 / ``sh:maxCount`` (value-node cardinality), ``sh:not``
(a value must NOT satisfy the negated constraint set), ``sh:xone``
(EXACTLY one alternative must be satisfied), and ``sh:closed`` /
``sh:ignoredProperties`` (closed-world node shapes: undeclared
properties are violations; ingested from shapes graphs via
:class:`ShapeSet`) — and, since round 5, SHACL property PATHS:
sequence paths (``sh:path ( ex:a ex:b )`` — follow a then b, resolving
``{"@id": ...}`` references through the document's ``@graph``), inverse
paths (``sh:path [sh:inversePath ex:a]`` — the value nodes are the
graph nodes that point AT the focus node via a) and alternative paths
(``sh:path [sh:alternativePath ( ex:a ex:b )]`` — union of values),
and the closure paths ``sh:zeroOrMorePath`` / ``sh:oneOrMorePath``
(``p*`` / ``p+`` — (reflexive-)transitive closure of one predicate hop,
BFS through ``@graph`` with cycle detection; ``p*`` includes the focus
node itself).  Per the SHACL spec, ``sh:closed`` only counts property
shapes whose path is a plain IRI — path-expression shapes never widen
the allowed set.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import pyarrow as pa

from ray.data import Dataset


#: sentinel distinguishing an absent property from a None value
_MISSING = object()


@dataclass
class PropertyShape:
    path: str
    required: bool = False
    datatype: str | None = None  # "uri" | "string" | "number"
    pattern: str | None = None
    min_value: float | None = None
    max_value: float | None = None
    class_type: str | None = None  # sh:class — value node's @type
    node: "tuple[PropertyShape, ...] | None" = None  # sh:node — nested shapes
    alternatives: "tuple[PropertyShape, ...] | None" = None  # sh:or
    min_count: int = 0  # sh:minCount — value cardinality lower bound
    max_count: int | None = None  # sh:maxCount — cardinality upper bound
    negated: "PropertyShape | None" = None  # sh:not — value must NOT satisfy
    exactly_one: "tuple[PropertyShape, ...] | None" = None  # sh:xone
    severity: str = "Violation"  # sh:severity — only Violation gates validity
    #: SHACL property-path expressions (round 5).  When any is set,
    #: ``path`` becomes a display label ("a/b", "^a", "a|b") and value
    #: resolution goes through :meth:`_path_values` instead of a direct
    #: ``node[path]`` read.  At most one of the three is set.
    seq: "tuple[str, ...] | None" = None  # sequence path — follow each step
    inverse: str | None = None  # inverse path — nodes pointing AT the focus
    alt_paths: "tuple[str, ...] | None" = None  # alternative path — union
    zero_or_more: str | None = None  # p* — reflexive-transitive closure
    one_or_more: str | None = None  # p+ — transitive closure
    _rx: re.Pattern | None = field(default=None, repr=False)
    #: set by compile(): True when _check_scalar has any constraint to
    #: test — lets check() skip the call entirely for edge-only shapes
    #: (the hot path: most shapes constrain presence/cardinality, not
    #: scalar form).  Defaults True so an uncompiled shape stays correct.
    _has_scalar: bool = field(default=True, repr=False)
    #: set by compile(): True when value resolution walks the document
    #: graph (sequence steps resolve {"@id"} refs; inverse paths scan the
    #: node list) — lets validate_parsed build the id map only when a
    #: shape actually needs it.
    _needs_graph: bool = field(default=False, repr=False)
    #: set by compile(): any path expression present — one flag instead of
    #: three attribute reads in the per-value hot path.  Defaults True so
    #: an uncompiled path shape routes through the (correct) slow branch;
    #: compile() turns it off for plain-IRI shapes.
    _has_path: bool = field(default=True, repr=False)

    def compile(self) -> "PropertyShape":
        if self.pattern:
            self._rx = re.compile(self.pattern)
        self._has_scalar = bool(
            self.datatype
            or self.pattern
            or self.min_value is not None
            or self.max_value is not None
        )
        self._needs_graph = bool(
            self.seq or self.inverse or self.zero_or_more or self.one_or_more
        )
        self._has_path = bool(
            self.seq
            or self.inverse
            or self.alt_paths
            or self.zero_or_more
            or self.one_or_more
        )
        for nested in (self.node, self.alternatives, self.exactly_one):
            for s in nested or ():
                s.compile()
        if self.negated is not None:
            self.negated.compile()
        return self

    def _path_values(self, node: dict, graph: "dict | None") -> list:
        """Resolve a property-PATH expression to its value nodes.

        ``graph`` is the per-document context built by validate_parsed:
        ``{"nodes": [node, ...], "ids": {"@id" -> node}}`` (None outside
        an @graph document — sequence paths then resolve only inline
        nesting, inverse paths only see the focus node itself)."""
        if self.inverse is not None:
            focus = node.get("@id")
            if focus is None:
                return []
            out: list = []
            for n in graph["nodes"] if graph else (node,):
                if not isinstance(n, dict):
                    continue
                vals = n.get(self.inverse)
                if vals is None:
                    continue
                for v in vals if isinstance(vals, list) else [vals]:
                    ref = v.get("@id") if isinstance(v, dict) else v
                    if ref == focus:
                        out.append(n)
            return out
        if self.alt_paths is not None:
            out = []
            for pth in self.alt_paths:
                v = node.get(pth, _MISSING)
                if v is _MISSING:
                    continue
                out.extend(v if isinstance(v, list) else [v])
            return out
        if self.zero_or_more is not None or self.one_or_more is not None:
            # p* / p+ — (reflexive-)transitive closure of one predicate
            # hop, BFS over the document graph with @id-based cycle
            # detection (a literal or id re-reached through a cycle is a
            # single value node per the SHACL set semantics)
            pred = self.zero_or_more or self.one_or_more
            ids = graph["ids"] if graph else {}

            def _key(x):
                if isinstance(x, dict):
                    return ("id", x["@id"]) if "@id" in x else ("obj", id(x))
                return ("lit", x if isinstance(x, (str, int, float, bool)) else repr(x))

            out = []
            seen = {_key(node)}
            if self.zero_or_more is not None:
                out.append(node)  # zero applications: the focus itself
            frontier = [node]
            while frontier:
                nxt: list = []
                for f in frontier:
                    if isinstance(f, dict) and "@id" in f and len(f) == 1:
                        f = ids.get(f["@id"], f)
                    if not isinstance(f, dict):
                        continue
                    v = f.get(pred, _MISSING)
                    if v is _MISSING:
                        continue
                    for x in v if isinstance(v, list) else [v]:
                        k = _key(x)
                        if k in seen:
                            continue
                        seen.add(k)
                        out.append(x)
                        nxt.append(x)
                frontier = nxt
            if ids:
                out = [
                    ids.get(f["@id"], f)
                    if isinstance(f, dict) and "@id" in f and len(f) == 1
                    else f
                    for f in out
                ]
            return out
        # sequence path: follow each step, resolving pure {"@id": ...}
        # references through the document graph so a hop can cross nodes
        frontier: list = [node]
        ids = graph["ids"] if graph else {}
        for step in self.seq or ():
            nxt: list = []
            for f in frontier:
                if isinstance(f, dict) and "@id" in f and len(f) == 1:
                    f = ids.get(f["@id"], f)
                if not isinstance(f, dict):
                    continue
                v = f.get(step, _MISSING)
                if v is _MISSING:
                    continue
                nxt.extend(v if isinstance(v, list) else [v])
            frontier = nxt
            if not frontier:
                break
        if ids:
            # resolve TERMINAL pure {"@id"} references too, so value
            # constraints (sh:class / sh:node) see the referenced node
            frontier = [
                ids.get(f["@id"], f)
                if isinstance(f, dict) and "@id" in f and len(f) == 1
                else f
                for f in frontier
            ]
        return frontier

    def check(
        self,
        node: dict,
        out: list[str],
        warn: list[str] | None = None,
        graph: "dict | None" = None,
    ) -> None:
        sink = out if self.severity == "Violation" else (warn if warn is not None else [])
        # _has_path defaults True pre-compile, so the re-check keeps an
        # uncompiled simple shape on the plain-path branch
        if self._has_path and (
            self.seq
            or self.inverse
            or self.alt_paths
            or self.zero_or_more
            or self.one_or_more
        ):
            vlist = self._path_values(node, graph)
            if not vlist:
                if self.required or self.min_count >= 1:
                    sink.append(f"missing:{self.path}")
                return
        else:
            vals = node.get(self.path, _MISSING)
            if vals is _MISSING:
                if self.required or self.min_count >= 1:
                    sink.append(f"missing:{self.path}")
                return
            vlist = vals if isinstance(vals, list) else [vals]
        # sh:minCount > 1 / sh:maxCount — cardinality over the value list
        # (SHACL counts value nodes; a present scalar counts 1)
        if self.min_count > 1 and len(vlist) < self.min_count:
            sink.append(f"mincount:{self.path}")
        if self.max_count is not None and len(vlist) > self.max_count:
            sink.append(f"maxcount:{self.path}")
        for v in vlist:
            if self.negated is not None and not self._alt_violations(self.negated, v):
                # sh:not — the value satisfies the negated constraint set
                sink.append(f"not:{self.path}")
            if self.exactly_one:
                # sh:xone — EXACTLY one alternative must be satisfied
                hits = sum(
                    1 for alt in self.exactly_one if not self._alt_violations(alt, v)
                )
                if hits != 1:
                    sink.append(f"xone:{self.path}")
            if self.alternatives:
                # sh:or — the value must satisfy at least one alternative
                if not any(
                    not self._alt_violations(alt, v) for alt in self.alternatives
                ):
                    sink.append(f"or:{self.path}")
                continue
            if isinstance(v, dict):
                if self.class_type is not None:
                    types = v.get("@type", [])
                    types = types if isinstance(types, list) else [types]
                    if self.class_type not in [str(t) for t in types]:
                        sink.append(f"class:{self.path}:{self.class_type}")
                if self.node:
                    for shape in self.node:
                        shape.check(v, out, warn, graph)
                continue  # other nested-node constraints validated separately
            if self._has_scalar:
                self._check_scalar(v, sink)

    def _check_scalar(self, v, sink: list[str]) -> None:
        if self.datatype == "uri" and not (
            isinstance(v, str) and (v.startswith("http://") or v.startswith("https://"))
        ):
            sink.append(f"datatype:{self.path}:uri")
        elif self.datatype == "number" and not isinstance(v, (int, float)):
            sink.append(f"datatype:{self.path}:number")
        elif self.datatype == "string" and not isinstance(v, str):
            sink.append(f"datatype:{self.path}:string")
        if self._rx and isinstance(v, str) and not self._rx.search(v):
            sink.append(f"pattern:{self.path}")
        if self.min_value is not None and isinstance(v, (int, float)) and v < self.min_value:
            sink.append(f"min:{self.path}")
        if self.max_value is not None and isinstance(v, (int, float)) and v > self.max_value:
            sink.append(f"max:{self.path}")

    @staticmethod
    def _alt_violations(alt: "PropertyShape", v) -> list[str]:
        tmp: list[str] = []
        if isinstance(v, dict):
            if alt.class_type is not None:
                types = v.get("@type", [])
                types = types if isinstance(types, list) else [types]
                if alt.class_type not in [str(t) for t in types]:
                    tmp.append("class")
            if alt.node:
                for shape in alt.node:
                    shape.check(v, tmp, None)
        else:
            alt._check_scalar(v, tmp)
        return tmp


class ShapeSet(tuple):
    """A tuple of PropertyShapes that can additionally carry NODE-level
    closed-world metadata (``sh:closed`` / ``sh:ignoredProperties``).

    Subclassing tuple keeps every existing call site working (unpacking,
    iteration, passing plain tuples remains valid — closure simply reads
    as off via ``getattr`` defaults)."""

    closed: bool = False
    ignored: frozenset = frozenset()
    #: precomputed "any shape resolves through the document graph" flag —
    #: validate_parsed reads it instead of re-scanning shapes per document
    needs_graph: bool = False

    @classmethod
    def make(cls, shapes, *, closed: bool = False, ignored=()) -> "ShapeSet":
        s = cls(shapes)
        s.closed = bool(closed)
        s.ignored = frozenset(ignored)
        s.needs_graph = any(getattr(p, "_needs_graph", False) for p in s)
        return s


#: the shape the synthetic Geoconnex-like feature documents must satisfy
#: (mirrors the hyf:HY_HydroLocation payload asserted by the reference's
#: golden tests, userCode/defs_test.py:104-130)
HYDRO_LOCATION_SHAPE: "ShapeSet" = ShapeSet.make(
    s.compile()
    for s in [
        PropertyShape("@id", required=True, datatype="uri"),
        PropertyShape("@type", required=True),
        # round-4: the name property carries the full cardinality /
        # combinator subset — sh:maxCount 1 (a two-name document is
        # non-conforming), sh:not (a lowercase 'feature ...' label is a
        # known bad-harvest artifact), sh:xone (the label must match
        # EXACTLY one of the two sanctioned naming schemes)
        PropertyShape(
            "schema:name",
            required=True,
            datatype="string",
            max_count=1,
            negated=PropertyShape("schema:name", pattern=r"^feature "),
            exactly_one=(
                PropertyShape("schema:name", pattern=r"^Feature "),
                PropertyShape("schema:name", pattern=r"^Fluss "),
            ),
        ),
        PropertyShape("schema:description", datatype="string"),
        PropertyShape("owl:sameAs", datatype="uri"),
    ]
)

GEO_SHAPE: "ShapeSet" = ShapeSet.make(
    s.compile()
    for s in [
        PropertyShape("schema:latitude", required=True, datatype="number",
                      min_value=-90_000, max_value=90_000),
        PropertyShape("schema:longitude", required=True, datatype="number",
                      min_value=-180_000, max_value=180_000),
    ]
)


#: (prefix, suffix) wrapper pairs seen in the wild around ld+json content
#: (round-3 verdict item 10): CDATA — plain or JS-comment-guarded — and
#: HTML comments.  Extraction stays byte-identical (the wrapper bytes ARE
#: part of the extracted block); every parser of extracted bytes strips
#: one recognized wrapper first (expansion + validation share this).
_WRAPPERS: tuple[tuple[str, str], ...] = (
    ("/*<![CDATA[*/", "/*]]>*/"),
    ("<![CDATA[", "]]>"),
    ("<!--", "-->"),
)


def strip_wrappers(payload: str) -> str:
    """Strip one CDATA / HTML-comment wrapper (with surrounding
    whitespace) from an extracted ld+json block, if present."""
    t = payload.strip()
    for pre, suf in _WRAPPERS:
        if t.startswith(pre) and t.endswith(suf) and len(t) >= len(pre) + len(suf):
            return t[len(pre) : len(t) - len(suf)]
    return payload


def validate_doc(
    payload: str | None,
    shapes=HYDRO_LOCATION_SHAPE,
    geo_shapes=GEO_SHAPE,
    warnings: list[str] | None = None,
) -> list[str]:
    """BLOCKING violations for one extracted JSON-LD payload (empty =
    valid/conformant).  Warning/Info-severity findings append to
    ``warnings`` when given and never affect validity."""
    if payload is None:
        return ["no-document"]
    try:
        doc = json.loads(strip_wrappers(payload))
    except (ValueError, TypeError):
        return ["parse-error"]
    return validate_parsed(doc, shapes, geo_shapes, warnings)


def validate_parsed(
    doc,
    shapes=HYDRO_LOCATION_SHAPE,
    geo_shapes=GEO_SHAPE,
    warnings: list[str] | None = None,
) -> list[str]:
    """Violations for an already-parsed JSON-LD document (single-parse path
    for the fused expand+validate stage)."""
    if not isinstance(doc, dict):
        return ["not-an-object"]
    out: list[str] = []
    # sh:closed (round 4): when the shape set is closed, a node may only
    # use declared paths + @id/@type + sh:ignoredProperties (JSON-LD
    # structural keys @context/@graph are document-level, not node
    # properties, and stay allowed)
    closed = getattr(shapes, "closed", False)
    if closed:
        # per the SHACL spec, sh:closed counts only property shapes whose
        # path is a plain IRI — path expressions never widen the allowed set
        allowed = (
            {
                s.path
                for s in shapes
                if not (
                    s.seq
                    or s.inverse
                    or s.alt_paths
                    or s.zero_or_more
                    or s.one_or_more
                )
            }
            | {"@id", "@type", "@context", "@graph"}
            | set(getattr(shapes, "ignored", ()))
        )
    nodes = doc.get("@graph")
    node_list = nodes if isinstance(nodes, list) else [doc]
    # document-graph context for property-path shapes, built only when a
    # shape resolves through it (sequence @id hops / inverse scans)
    graph_ctx = None
    needs_graph = getattr(shapes, "needs_graph", None)
    if needs_graph is None:  # plain tuple — scan once per document
        needs_graph = any(getattr(s, "_needs_graph", False) for s in shapes)
    if needs_graph:
        graph_ctx = {
            "nodes": node_list,
            "ids": {
                n["@id"]: n
                for n in node_list
                if isinstance(n, dict) and isinstance(n.get("@id"), str)
            },
        }
    for node in node_list:
        if not isinstance(node, dict):
            out.append("bad-node")
            continue
        if closed:
            out.extend(f"closed:{k}" for k in node if k not in allowed)
        is_edge_only = set(node.keys()) <= {"@id", "owl:sameAs"}
        for shape in shapes:
            if is_edge_only and shape.path not in node and shape.path != "@id":
                continue  # bare sameAs edge nodes carry no payload
            shape.check(node, out, warnings, graph_ctx)
        geo = node.get("schema:geo")
        if isinstance(geo, dict):
            if getattr(geo_shapes, "closed", False):
                g_allowed = (
                    {s.path for s in geo_shapes}
                    | {"@id", "@type"}
                    | set(getattr(geo_shapes, "ignored", ()))
                )
                out.extend(f"closed:geo:{k}" for k in geo if k not in g_allowed)
            for shape in geo_shapes:
                shape.check(geo, out, warnings)
    return out


#: SHACL constraint-component → PropertyShape field mapping used by the
#: shapes-graph parser (the subset the Geoconnex shapes exercise)
_SHACL_DT = {
    "xsd:string": "string",
    "http://www.w3.org/2001/XMLSchema#string": "string",
    "xsd:decimal": "number",
    "xsd:double": "number",
    "xsd:integer": "number",
    "http://www.w3.org/2001/XMLSchema#decimal": "number",
    "http://www.w3.org/2001/XMLSchema#double": "number",
    "http://www.w3.org/2001/XMLSchema#integer": "number",
    "sh:IRI": "uri",
    "http://www.w3.org/ns/shacl#IRI": "uri",
}


def _pred_name(x) -> str:
    """Predicate IRI from a JSON-LD path element (plain string or
    ``{"@id": ...}`` reference)."""
    if isinstance(x, dict) and "@id" in x:
        return str(x["@id"])
    return str(x)


def _parse_path(raw) -> dict:
    """Parse a ``sh:path`` value into PropertyShape path fields.

    Recognized forms (W3C SHACL §2.3.1, property paths):
      - plain IRI string                              → simple path
      - list / ``{"@list": [...]}``                   → sequence path
      - ``{"sh:inversePath": iri}``                   → inverse path
      - ``{"sh:alternativePath": (list)}``            → alternative path
      - ``{"sh:zeroOrMorePath": iri}``                → p* closure path
      - ``{"sh:oneOrMorePath": iri}``                 → p+ closure path
    Returns kwargs for PropertyShape: path (display label) plus at most
    one of seq / inverse / alt_paths."""
    if isinstance(raw, dict) and "@list" in raw:
        raw = raw["@list"]
    if isinstance(raw, list):
        steps = tuple(_pred_name(x) for x in raw)
        if len(steps) == 1:  # single-element sequence ≡ simple path
            return {"path": steps[0]}
        return {"path": "/".join(steps), "seq": steps}
    if isinstance(raw, dict):
        if "sh:inversePath" in raw:
            pred = _pred_name(raw["sh:inversePath"])
            return {"path": f"^{pred}", "inverse": pred}
        if "sh:zeroOrMorePath" in raw:
            pred = _pred_name(raw["sh:zeroOrMorePath"])
            return {"path": f"{pred}*", "zero_or_more": pred}
        if "sh:oneOrMorePath" in raw:
            pred = _pred_name(raw["sh:oneOrMorePath"])
            return {"path": f"{pred}+", "one_or_more": pred}
        if "sh:alternativePath" in raw:
            ap = raw["sh:alternativePath"]
            if isinstance(ap, dict) and "@list" in ap:
                ap = ap["@list"]
            alts = tuple(_pred_name(x) for x in (ap if isinstance(ap, list) else [ap]))
            return {"path": "|".join(alts), "alt_paths": alts}
        return {"path": _pred_name(raw)}  # {"@id": iri} — simple path
    return {"path": str(raw)}


def _shacl_prop_to_shape(p: dict) -> PropertyShape:
    dt = None
    if "sh:datatype" in p:
        dt = _SHACL_DT.get(str(p["sh:datatype"]))
    if p.get("sh:nodeKind") in ("sh:IRI", "http://www.w3.org/ns/shacl#IRI"):
        dt = "uri"
    # nested property shape (sh:node with its own sh:property list)
    nested = None
    nd = p.get("sh:node")
    if isinstance(nd, dict):
        props = nd.get("sh:property", [])
        nested = tuple(
            _shacl_prop_to_shape(q)
            for q in (props if isinstance(props, list) else [props])
            if isinstance(q, dict) and q.get("sh:path")
        ) or None
    # sh:or / sh:xone — lists of alternative constraint dicts (same path
    # implied); sh:not — a single negated constraint dict
    def _alt_list(key: str):
        raw = p.get(key)
        if isinstance(raw, dict) and "@list" in raw:
            raw = raw["@list"]
        if not isinstance(raw, list):
            return None
        return tuple(
            _shacl_prop_to_shape({**a, "sh:path": p.get("sh:path", "")})
            for a in raw
            if isinstance(a, dict)
        ) or None

    alts = _alt_list("sh:or")
    xone = _alt_list("sh:xone")
    neg = p.get("sh:not")
    negated = (
        _shacl_prop_to_shape({**neg, "sh:path": p.get("sh:path", "")})
        if isinstance(neg, dict)
        else None
    )
    sev = str(p.get("sh:severity", "sh:Violation"))
    severity = "Violation"
    if "Warning" in sev:
        severity = "Warning"
    elif "Info" in sev:
        severity = "Info"
    mn = int(p.get("sh:minCount", 0) or 0)
    return PropertyShape(
        **_parse_path(p.get("sh:path", "")),
        required=mn >= 1,
        datatype=dt,
        pattern=p.get("sh:pattern"),
        min_value=p.get("sh:minInclusive"),
        max_value=p.get("sh:maxInclusive"),
        class_type=(str(p["sh:class"]) if "sh:class" in p else None),
        node=nested,
        alternatives=alts,
        min_count=mn,
        max_count=(int(p["sh:maxCount"]) if "sh:maxCount" in p else None),
        negated=negated,
        exactly_one=xone,
        severity=severity,
    ).compile()


def parse_shacl_shapes(doc: "dict | str") -> tuple[tuple[PropertyShape, ...], tuple[PropertyShape, ...]]:
    """Ingest a shapes GRAPH (SHACL JSON-LD NodeShape subset — the
    reference feeds real shape graphs to its validator service,
    reference userCode/lib/containers.py:44-48) instead of hard-coded
    shapes.

    Accepts a parsed dict or a path to a JSON file.  Recognizes
    ``sh:NodeShape`` nodes (under ``@graph`` or top-level) with
    ``sh:property`` lists of {sh:path, sh:minCount, sh:datatype,
    sh:nodeKind, sh:pattern, sh:minInclusive, sh:maxInclusive}.  A node
    shape whose ``sh:targetClass``/``@id`` mentions ``geo`` becomes the
    nested-geo shape set; everything else merges into the document shape
    set.  Returns ``(shapes, geo_shapes)``.
    """
    if isinstance(doc, str):
        with open(doc) as f:
            doc = json.load(f)
    nodes = doc.get("@graph") if isinstance(doc, dict) else None
    if nodes is None:
        nodes = [doc]
    shapes: list[PropertyShape] = []
    geo_shapes: list[PropertyShape] = []
    closed = {"doc": False, "geo": False}
    ignored = {"doc": set(), "geo": set()}
    for node in nodes:
        if not isinstance(node, dict):
            continue
        types = node.get("@type", [])
        types = types if isinstance(types, list) else [types]
        if not any("NodeShape" in str(t) for t in types):
            continue
        ident = str(node.get("@id", "")) + str(node.get("sh:targetClass", ""))
        kind = "geo" if "geo" in ident.lower() else "doc"
        target = geo_shapes if kind == "geo" else shapes
        props = node.get("sh:property", [])
        for p in props if isinstance(props, list) else [props]:
            if isinstance(p, dict) and p.get("sh:path"):
                target.append(_shacl_prop_to_shape(p))
        # sh:closed / sh:ignoredProperties (round 4 — closed-world shapes)
        if node.get("sh:closed") in (True, "true"):
            closed[kind] = True
        ig = node.get("sh:ignoredProperties", [])
        for item in ig if isinstance(ig, list) else [ig]:
            ignored[kind].add(
                str(item.get("@id")) if isinstance(item, dict) else str(item)
            )
    return (
        ShapeSet.make(shapes, closed=closed["doc"], ignored=ignored["doc"]),
        ShapeSet.make(geo_shapes, closed=closed["geo"], ignored=ignored["geo"]),
    )


class ShaclValidator:
    """Validation stage callable: shapes compiled once (optionally
    ingested from a SHACL JSON-LD shapes graph via ``shapes_path`` — ST3
    state), documents checked per batch."""

    def __init__(self, strict: bool = False, shapes_path: str | None = None):
        self.strict = strict
        if shapes_path:
            self.shapes, self.geo_shapes = parse_shacl_shapes(shapes_path)
            return
        self.shapes = HYDRO_LOCATION_SHAPE
        self.geo_shapes = GEO_SHAPE

    def __call__(self, batch: pa.Table) -> pa.Table:
        payloads = batch["extracted"].to_pylist()
        valid: list[bool] = []
        violations: list[list[str]] = []
        warnings: list[list[str]] = []
        for p in payloads:
            w: list[str] = []
            v = validate_doc(p, self.shapes, self.geo_shapes, warnings=w)
            valid.append(not v)
            violations.append(v)
            warnings.append(w)
        if self.strict and not all(valid):
            first = next(v for v in violations if v)
            raise ValueError(f"SHACL violation (strict mode): {first[:3]}")
        return (
            batch.append_column("valid", pa.array(valid, pa.bool_()))
            .append_column("violations", pa.array(violations, pa.list_(pa.large_string())))
            .append_column("warnings", pa.array(warnings, pa.list_(pa.large_string())))
        )


def validate_stage(
    extracted: Dataset,
    *,
    strict: bool = False,
    batch_size: int | None = 4096,
    shapes_path: str | None = None,
) -> Dataset:
    """Add valid/violations columns as stateless tasks (shapes are cheap
    to compile).  ``shapes_path`` points at a SHACL JSON-LD shapes graph
    to ingest."""
    validator = ShaclValidator(strict=strict, shapes_path=shapes_path)
    return extracted.map_batches(
        validator, batch_format="pyarrow", batch_size=batch_size, zero_copy_batch=True
    )
