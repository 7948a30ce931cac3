"""Edge-list and graph6 readers/writers.

Edge-list format: first line ``n m``, then m lines ``u v`` with
0 <= u < v < n, ``#`` comments anywhere, and an optional final line
``marks: a b c`` which turns the record into a MarkedGraph.
"""

from __future__ import annotations

from pathlib import Path

from .errors import ParseError
from .graphs import Graph, MarkedGraph


def graph_to_g6(g: Graph) -> str:
    """Standard graph6 string (n <= 62)."""
    if g.n > 62:
        raise ParseError(f"graph6 writer limited to 62 vertices, got {g.n}")
    bits = []
    for j in range(1, g.n):
        col = g.adj[j]
        for i in range(j):
            bits.append((col >> i) & 1)
    while len(bits) % 6:
        bits.append(0)
    chars = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        val = 0
        for b in bits[k : k + 6]:
            val = (val << 1) | b
        chars.append(chr(val + 63))
    return "".join(chars)


def g6_to_graph(s: str) -> Graph:
    s = s.strip()
    if s.startswith(">>graph6<<"):
        s = s[10:]
    if not s:
        raise ParseError("empty graph6 string")
    n = ord(s[0]) - 63
    if not (0 <= n <= 62):
        raise ParseError(f"unsupported graph6 vertex count byte {s[0]!r}")
    need = (n * (n - 1) // 2 + 5) // 6
    data = s[1:]
    if len(data) < need:
        raise ParseError("graph6 string too short")
    bits = []
    for ch in data[:need]:
        val = ord(ch) - 63
        if not (0 <= val < 64):
            raise ParseError(f"bad graph6 byte {ch!r}")
        bits.extend((val >> k) & 1 for k in range(5, -1, -1))
    edges = []
    idx = 0
    for j in range(1, n):
        for i in range(j):
            if bits[idx]:
                edges.append((i, j))
            idx += 1
    return Graph.from_edges(n, edges)


def emit_edge_list(g: Graph | MarkedGraph) -> str:
    marks = None
    if isinstance(g, MarkedGraph):
        marks = g.marks
        g = g.graph
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    if marks is not None:
        lines.append("marks: " + " ".join(str(v) for v in marks))
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph | MarkedGraph:
    """Parse a single edge-list or graph6 record."""
    lines = text.splitlines()
    rows: list[tuple[int, str]] = []
    for lineno, raw in enumerate(lines, start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            rows.append((lineno, stripped))
    if not rows:
        raise ParseError("no graph data found")
    header_line, header = rows[0]
    parts = header.split()
    if len(parts) != 2 or not all(p.lstrip("-").isdigit() for p in parts):
        if len(rows) == 1:
            return g6_to_graph(header)
        raise ParseError("expected 'n m' header", line=header_line)
    n, m = int(parts[0]), int(parts[1])
    if n < 0 or m < 0:
        raise ParseError("negative counts in header", line=header_line)
    edges: list[tuple[int, int]] = []
    marks: tuple[int, int, int] | None = None
    for lineno, row in rows[1:]:
        if row.startswith("marks:"):
            fields = row[len("marks:") :].split()
            if len(fields) != 3:
                raise ParseError("marks line needs exactly three vertices", line=lineno)
            try:
                marks = tuple(int(f) for f in fields)  # type: ignore[assignment]
            except ValueError:
                raise ParseError(f"non-integer mark in {row!r}", line=lineno) from None
            continue
        fields = row.split()
        if len(fields) != 2:
            raise ParseError(f"expected 'u v', got {row!r}", line=lineno)
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ParseError(f"non-integer vertex in {row!r}", line=lineno) from None
        edges.append((u, v))
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges, found {len(edges)}")
    try:
        g = Graph.from_edges(n, edges)
    except ParseError:
        raise
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    if marks is not None:
        return MarkedGraph(g, marks)
    return g


def parse_graph_file(path: str | Path) -> Graph | MarkedGraph:
    return parse_graph(Path(path).read_text())


def fixture_path(name: str) -> Path:
    """Path of a bundled edge-list fixture, e.g. 'k44_minus_e'."""
    fname = name if name.endswith(".txt") else name + ".txt"
    return Path(__file__).parent / "data" / fname


def load_fixture(name: str) -> Graph | MarkedGraph:
    return parse_graph_file(fixture_path(name))


def load_graph_records(path: str | Path) -> list[Graph]:
    """Read a multi-record file: graph6 lines and/or edge-list records."""
    out: list[Graph] = []
    lines = Path(path).read_text().splitlines()
    i = 0
    while i < len(lines):
        stripped = lines[i].split("#", 1)[0].strip()
        if not stripped:
            i += 1
            continue
        parts = stripped.split()
        if len(parts) == 2 and all(p.isdigit() for p in parts):
            m = int(parts[1])
            block = [lines[i]]
            taken = 0
            j = i + 1
            # the m edge rows, and a marks line up to the next record's header
            while j < len(lines):
                row = lines[j].split("#", 1)[0].strip()
                if row and not row.startswith("marks:"):
                    if taken == m:
                        break
                    taken += 1
                block.append(lines[j])
                j += 1
            g = parse_graph("\n".join(block))
            out.append(g.graph if isinstance(g, MarkedGraph) else g)
            i = j
        else:
            out.append(g6_to_graph(stripped))
            i += 1
    return out
