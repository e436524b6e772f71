"""Serialization: dense CSV matrices, simple edge lists, and the Pajek
subset needed for multi-layer social network data.

Only the *Vertices / *Edges / *Arcs sections of the Pajek grammar are
supported; *Matrix and partition sections are rejected. Files may be
UTF-8 with LF or CRLF endings; '%' starts a comment, and in an edge list
so does '#'. Both parsers return a Graph.
"""
import math

import numpy as np

from .errors import InvalidInput, ParseError
from .graphs import Graph


def _data_lines(text, comments="%"):
    """(line number, content) of each line left nonblank once the BOM and
    everything from a comment character in ``comments`` on are cut."""
    for lineno, raw in enumerate(text.lstrip("\ufeff").splitlines(), start=1):
        for mark in comments:
            raw = raw.split(mark, 1)[0]
        line = raw.strip()
        if line:
            yield lineno, line


def _decimal(token):
    """The int that a string of decimal digits spells, or None when token
    is not one or is too long for int() (4,300 digits by default)."""
    try:
        return int(token) if token.isdecimal() else None
    except ValueError:
        return None


def _edge(tokens, n, lineno):
    """((i, j) with i < j, weight) from an edge line's 'i j [weight]' tokens:
    endpoints in 1..n and distinct, a weight that is finite and >= 0 and
    defaults to 1."""
    try:
        i, j = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise ParseError(f"non-integer endpoint in {' '.join(tokens)!r}", line=lineno) from None
    for v in (i, j):
        if not 1 <= v <= n:
            raise ParseError(f"endpoint {v} outside 1..{n}", line=lineno)
    if i == j:
        raise ParseError(f"self-loop on vertex {i}", line=lineno)
    try:
        w = float(tokens[2]) if len(tokens) > 2 else 1.0
    except ValueError:
        w = math.nan
    if not 0 <= w < math.inf:
        raise ParseError(f"weight {tokens[2]!r} is not a finite nonnegative number", line=lineno)
    return (min(i, j), max(i, j)), w


def _graph(n, weights, line) -> Graph:
    """Undirected graph on n nodes from {(i, j): [weights]} over 1-based
    pairs; a pair given more than once takes the mean of its weights. A
    ParseError at the given line, where n was declared, when no dense
    n x n matrix can be allocated."""
    try:
        a = np.zeros((n, n))
    except (ValueError, MemoryError):   # numpy's "array is too big", or no memory
        raise ParseError(f"cannot allocate a dense graph of {n} vertices", line=line) from None
    for (i, j), ws in weights.items():
        a[i - 1, j - 1] = a[j - 1, i - 1] = np.mean(ws)
    return Graph(n, a)


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


def parse_pajek(text: str) -> Graph:
    """Parse the supported Pajek subset; failures report the line number.
    Vertex labels are checked but not kept; arcs are symmetrized."""
    n = n_line = None
    section = None
    weights = {}          # (i, j) with i < j -> list of contributed weights
    undirected = set()    # pairs already given in an *Edges section
    for lineno, line in _data_lines(text):
        if line.startswith("*"):
            head = line.split()
            key = head[0].lower()
            if key == "*vertices":
                if n is not None:
                    raise ParseError("duplicate *Vertices section", line=lineno)
                n, n_line = _decimal(head[1]) if len(head) == 2 else None, lineno
                if not n:
                    raise ParseError("malformed *Vertices header; expected '*Vertices n'",
                                     line=lineno)
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
            v = _decimal(tokens[0])
            if v is None or not 1 <= v <= n:
                raise ParseError(f"vertex id {tokens[0]!r} is not an integer in 1..{n}",
                                 line=lineno)
            continue
        if len(tokens) < 2:
            raise ParseError("edge line needs at least two endpoints", line=lineno)
        pair, w = _edge(tokens, n, lineno)
        if section == "edges":
            if pair in undirected:
                raise ParseError(f"duplicate undirected edge {pair}", line=lineno)
            undirected.add(pair)
        # arcs may give a pair more than once: both directions merge into one edge
        weights.setdefault(pair, []).append(w)
    if n is None:
        raise ParseError("missing *Vertices section", line=1)
    return _graph(n, weights, n_line)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: node count, then 'i j [weight]' lines."""
    n = n_line = None
    weights = {}
    for lineno, line in _data_lines(text, "#%"):
        tokens = line.split()
        if n is None:
            n, n_line = _decimal(tokens[0]) if len(tokens) == 1 else None, lineno
            if n is None:
                raise ParseError("first data line must be the node count", line=lineno)
            continue
        if len(tokens) not in (2, 3):
            raise ParseError(f"expected 'i j [weight]', got {line!r}", line=lineno)
        pair, w = _edge(tokens, n, lineno)
        if pair in weights:
            raise ParseError(f"duplicate undirected edge {pair}", line=lineno)
        weights[pair] = [w]
    if n is None:
        raise ParseError("empty edge-list file", line=1)
    return _graph(n, weights, n_line)


def load_graph_file(path) -> Graph:
    """Load one layer from a Pajek (.net style) or edge-list file.

    The format is sniffed from the first non-blank, non-comment line:
    Pajek files start with a '*' section header.
    """
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    first = next(_data_lines(text), None)
    if first is None:
        raise ParseError(f"{path}: file is empty", line=1)
    return parse_pajek(text) if first[1].startswith("*") else parse_edge_list(text)


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
