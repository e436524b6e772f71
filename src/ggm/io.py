"""Serialization: dense CSV matrices, simple edge lists, and the Pajek
subset needed for multi-layer social network data.

Only the *Vertices / *Edges / *Arcs sections of the Pajek grammar are
supported; *Matrix and partition sections are rejected. Files may be
UTF-8 with LF or CRLF endings; '%' starts a comment.
"""
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ParseError
from .graphs import Graph
from .prox import symmetrize


def _graph_from_edges(n, edges) -> Graph:
    """Undirected graph on n nodes from 1-based weighted (i, j, w) edges."""
    a = np.zeros((n, n))
    for i, j, w in edges:
        a[i - 1, j - 1] = a[j - 1, i - 1] = w
    return Graph(n, a)


@dataclass(frozen=True)
class EdgeListFile:
    """Plain-text graph: node count plus 1-based weighted edges."""

    n_nodes: int
    edges: tuple   # ((i, j, weight), ...) with 1 <= i < j <= n_nodes

    def to_graph(self) -> Graph:
        return _graph_from_edges(self.n_nodes, self.edges)


@dataclass(frozen=True)
class PajekNetwork:
    """Parsed Pajek network: vertex labels plus undirected weighted edges."""

    n_vertices: int
    labels: tuple
    edges: tuple   # ((i, j, weight), ...), 1-based, i < j, arcs symmetrized

    def to_graph(self) -> Graph:
        return _graph_from_edges(self.n_vertices, self.edges)


def _split_tokens(line):
    """Tokenize a data line, keeping a quoted label as one token."""
    tokens = []
    rest = line.strip()
    while rest:
        if rest[0] == '"':
            end = rest.find('"', 1)
            if end < 0:
                return None   # unterminated quote
            tokens.append(rest[1:end])
            rest = rest[end + 1:].strip()
        else:
            parts = rest.split(None, 1)
            tokens.append(parts[0])
            rest = parts[1].strip() if len(parts) > 1 else ""
    return tokens


def parse_pajek(text: str) -> PajekNetwork:
    """Parse the supported Pajek subset; failures report the line number."""
    n = None
    labels = []
    section = None
    edge_weights = {}     # (i, j) with i < j -> list of contributed weights
    edge_seen_undirected = set()
    for lineno, raw in enumerate(text.lstrip("﻿").splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        if line.startswith("*"):
            head = line.split()
            key = head[0].lower()
            if key == "*vertices":
                if n is not None:
                    raise ParseError("duplicate *Vertices section", line=lineno)
                if len(head) != 2 or not head[1].isdigit() or int(head[1]) < 1:
                    raise ParseError("malformed *Vertices header; expected '*Vertices n'",
                                     line=lineno)
                n = int(head[1])
                labels = [None] * n
                section = "vertices"
            elif key in ("*edges", "*arcs"):
                if n is None:
                    raise ParseError(f"{head[0]} before *Vertices", line=lineno)
                section = key[1:]
            else:
                raise ParseError(f"unsupported Pajek section {head[0]!r}; only "
                                 "*Vertices, *Edges and *Arcs are accepted", line=lineno)
            continue
        if section is None:
            raise ParseError("data before any section header", line=lineno)
        tokens = _split_tokens(line)
        if tokens is None:
            raise ParseError("unterminated quoted label", line=lineno)
        if section == "vertices":
            if not tokens[0].isdigit():
                raise ParseError(f"vertex id {tokens[0]!r} is not an integer", line=lineno)
            vid = int(tokens[0])
            if not 1 <= vid <= n:
                raise ParseError(f"vertex id {vid} outside 1..{n}", line=lineno)
            if len(tokens) > 1:
                labels[vid - 1] = tokens[1]
            continue
        if len(tokens) < 2:
            raise ParseError("edge line needs at least two endpoints", line=lineno)
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"non-integer endpoint in {line!r}", line=lineno) from None
        for v in (i, j):
            if not 1 <= v <= n:
                raise ParseError(f"endpoint {v} outside 1..{n}", line=lineno)
        if i == j:
            raise ParseError(f"self-loop on vertex {i}", line=lineno)
        if len(tokens) >= 3:
            try:
                w = float(tokens[2])
            except ValueError:
                raise ParseError(f"non-numeric weight {tokens[2]!r}", line=lineno) from None
            if not np.isfinite(w):
                raise ParseError(f"non-finite weight {tokens[2]!r}", line=lineno)
        else:
            w = 1.0
        key = (min(i, j), max(i, j))
        if section == "edges":
            if key in edge_seen_undirected:
                raise ParseError(f"duplicate undirected edge {key}", line=lineno)
            edge_seen_undirected.add(key)
            edge_weights.setdefault(key, []).append(w)
        else:
            # arcs are symmetrized; both directions merge into one edge
            edge_weights.setdefault(key, []).append(w)
    if n is None:
        raise ParseError("missing *Vertices section", line=1)
    edges = tuple(sorted((i, j, float(np.mean(ws))) for (i, j), ws in edge_weights.items()))
    return PajekNetwork(n, tuple(labels), edges)


def parse_edge_list(text: str) -> EdgeListFile:
    """Parse the plain edge-list format: node count, then 'i j [weight]' lines."""
    n = None
    edges = []
    seen = set()
    for lineno, raw in enumerate(text.lstrip("﻿").splitlines(), start=1):
        line = raw.split("#", 1)[0].split("%", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 1 or not tokens[0].isdigit():
                raise ParseError("first data line must be the node count", line=lineno)
            n = int(tokens[0])
            continue
        if len(tokens) not in (2, 3):
            raise ParseError(f"expected 'i j [weight]', got {line!r}", line=lineno)
        try:
            i, j = int(tokens[0]), int(tokens[1])
            w = float(tokens[2]) if len(tokens) == 3 else 1.0
        except ValueError:
            raise ParseError(f"malformed edge line {line!r}", line=lineno) from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"edge ({i}, {j}) outside 1..{n}", line=lineno)
        if i == j:
            raise ParseError(f"self-loop on node {i}", line=lineno)
        key = (min(i, j), max(i, j))
        if key in seen:
            raise ParseError(f"duplicate undirected edge {key}", line=lineno)
        seen.add(key)
        edges.append((key[0], key[1], w))
    if n is None:
        raise ParseError("empty edge-list file", line=1)
    return EdgeListFile(n, tuple(sorted(edges)))


def load_graph_file(path) -> Graph:
    """Load one layer from a Pajek (.net style) or edge-list file.

    The format is sniffed from the first non-blank, non-comment line:
    Pajek files start with a '*' section header.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    for raw in text.lstrip("﻿").splitlines():
        line = raw.split("%", 1)[0].strip()
        if line:
            is_pajek = line.startswith("*")
            break
    else:
        raise ParseError(f"{path}: file is empty", line=1)
    parsed = parse_pajek(text) if is_pajek else parse_edge_list(text)
    return parsed.to_graph()


def load_multilayer(paths):
    """Load K layers over a common node set; layer order follows ``paths``."""
    graphs = [load_graph_file(p) for p in paths]
    if not graphs:
        raise InvalidInput("need at least one layer file")
    n = graphs[0].n_nodes
    for path, g in zip(paths, graphs):
        if g.n_nodes != n:
            raise InvalidInput(
                f"{path}: vertex count {g.n_nodes} does not match first layer ({n})")
    return graphs


def write_matrix_csv(m, path) -> None:
    """Write a dense matrix as CSV at full float64 precision (17 digits)."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in m:
            fh.write(",".join(format(v, ".17g") for v in row) + "\n")


def read_matrix_csv(path) -> np.ndarray:
    """Read a square matrix written by write_matrix_csv; round-trips exactly."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                rows.append([float(v) for v in line.split(",")])
            except ValueError:
                raise ParseError(f"{path}: non-numeric entry", line=lineno) from None
    if not rows:
        raise ParseError(f"{path}: empty matrix file", line=1)
    widths = {len(r) for r in rows}
    if len(widths) != 1 or widths.pop() != len(rows):
        raise ParseError(f"{path}: matrix is not square", line=1)
    return np.asarray(rows)


def read_sym_matrix_csv(path) -> np.ndarray:
    """Read a matrix and enforce symmetry by averaging."""
    return symmetrize(read_matrix_csv(path))
