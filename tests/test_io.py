import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ggm.errors import InvalidInput, ParseError
from ggm.io import (
    load_graph_file,
    load_multilayer,
    parse_edge_list,
    parse_pajek,
    read_matrix_csv,
    write_matrix_csv,
)


def test_pajek_minimal_file():
    g = parse_pajek('*Vertices 2\n*Edges\n1 2 1.0\n')
    assert g.n_nodes == 2
    assert np.array_equal(g.adjacency, [[0, 1], [1, 0]])


def test_pajek_arcs_symmetrized():
    g = parse_pajek('*Vertices 3\n*Arcs\n1 2 1\n2 1 3\n')
    assert g.edge_set() == {(0, 1)}
    assert g.adjacency[0, 1] == g.adjacency[1, 0] == 2.0   # the mean of both arcs


def test_pajek_out_of_range_index():
    with pytest.raises(ParseError) as err:
        parse_pajek('*Vertices 2\n*Edges\n1 5 1\n')
    assert err.value.line == 3


def test_pajek_labels_and_comments():
    text = ('% a comment\n*vertices 3\n1 "alice"\n2 "bob baker"\n3 "carol"\n'
            '*edges\n1 2\n2 3 0.5\n')
    g = parse_pajek(text)
    assert g.adjacency[0, 1] == 1.0 and g.adjacency[1, 2] == 0.5 and g.n_edges == 2
    with pytest.raises(ParseError) as err:
        parse_pajek('*Vertices 2\n1 "alice\n')
    assert err.value.line == 2


def test_pajek_crlf_and_case():
    g = parse_pajek('*VERTICES 2\r\n*EDGES\r\n1 2\r\n')
    assert g.edge_set() == {(0, 1)} and g.adjacency[0, 1] == 1.0


def test_pajek_rejects_unsupported_sections():
    with pytest.raises(ParseError):
        parse_pajek('*Vertices 2\n*Matrix\n0 1\n1 0\n')
    with pytest.raises(ParseError):
        parse_pajek('*Vertices 2\n*Partition\n1\n2\n')


def test_pajek_rejects_malformed():
    for text, line in [
        ('*Vertices\n', 1),
        ('*Vertices two\n', 1),
        ('1 2\n', 1),
        ('*Vertices 2\n*Edges\n1 1 1\n', 3),
        ('*Vertices 2\n*Edges\n1 2 x\n', 3),
        ('*Vertices 2\n*Edges\n1 2 1\n1 2 2\n', 4),
        ('*Vertices 2\n*Edges\n1 2 -1\n', 3),
        ('*Vertices 2\n*Edges\n1 2 inf\n', 3),
        ('*Vertices \u00b2\n', 1),              # a digit that int() does not read
        ('*Vertices 2\n\u00b2 "a"\n', 2),
        ('*Vertices ' + '1' * 5000 + '\n', 1),   # too long for int()
        ('*Vertices 2\n' + '1' * 5000 + ' "a"\n', 2),
    ]:
        with pytest.raises(ParseError) as err:
            parse_pajek(text)
        assert err.value.line == line


def test_pajek_to_graph():
    g = parse_pajek('*Vertices 3\n*Edges\n1 2 2.0\n2 3 0.5\n')
    assert g.n_nodes == 3
    assert g.adjacency[0, 1] == 2.0 and g.adjacency[1, 2] == 0.5
    assert g.adjacency[0, 2] == 0.0


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(2, 8),
    seed=st.integers(0, 10_000),
    ws=st.sampled_from([" ", "  ", "\t"]),
    crlf=st.booleans(),
    comment=st.booleans(),
)
def test_pajek_fuzz_benign_perturbations(n, seed, ws, crlf, comment):
    rng = np.random.default_rng(seed)
    lines = [f"*Vertices {n}", "*Edges"]
    baseline = [f"*Vertices {n}", "*Edges"]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if rng.random() < 0.4:
                w = round(float(rng.uniform(0.1, 2.0)), 3)
                lines.append(f"{i}{ws}{j}{ws}{w}")
                baseline.append(f"{i} {j} {w}")
    if comment:
        lines.insert(1, "% noise")
        lines.append("")
    text = ("\r\n" if crlf else "\n").join(lines)
    net = parse_pajek(text)
    ref = parse_pajek("\n".join(baseline))
    assert net.n_nodes == ref.n_nodes
    assert np.array_equal(net.adjacency, ref.adjacency)


@settings(deadline=None, max_examples=80)
@given(text=st.text(max_size=200))
def test_pajek_total_over_garbage(text):
    # never raises anything but ParseError
    try:
        parse_pajek(text)
    except ParseError:
        pass


def test_edge_list_round_trip_semantics():
    g = parse_edge_list('# layer file\n4\n1 2 0.5\n3 4\n')
    assert g.n_nodes == 4
    assert g.edge_set() == {(0, 1), (2, 3)}
    assert g.adjacency[0, 1] == 0.5 and g.adjacency[2, 3] == 1.0


def test_edge_list_rejects_duplicates_and_loops():
    with pytest.raises(ParseError):
        parse_edge_list('3\n1 2\n2 1\n')
    with pytest.raises(ParseError):
        parse_edge_list('3\n2 2\n')
    for weight in ("inf", "nan", "-1", "x"):
        with pytest.raises(ParseError) as err:
            parse_edge_list(f'3 # nodes\n1 2\n\n2 3 {weight}\n')
        assert err.value.line == 4
    with pytest.raises(ParseError) as err:
        parse_edge_list('% count\n' + '1' * 5000 + '\n')   # too long for int()
    assert err.value.line == 2


def test_load_graph_file_sniffs_the_format(tmp_path):
    pajek = tmp_path / "layer.net"
    edges = tmp_path / "layer.txt"
    pajek.write_text('\ufeff% weighted\n*Vertices 3\n*Edges\n1 3 2.5\n', encoding="utf-8")
    edges.write_text('% weighted\n3\n1 3 2.5 # last\n', encoding="utf-8")
    assert np.array_equal(load_graph_file(pajek).adjacency, load_graph_file(edges).adjacency)
    empty = tmp_path / "empty.net"
    empty.write_text('% nothing\n\n', encoding="utf-8")
    with pytest.raises(ParseError):
        load_graph_file(empty)


def test_load_multilayer(tmp_path):
    a = tmp_path / "a.net"
    b = tmp_path / "b.txt"
    a.write_text('*Vertices 3\n*Edges\n1 2 1\n', encoding="utf-8")
    b.write_text('3\n2 3 1\n', encoding="utf-8")
    layers = load_multilayer([str(a), str(b)])
    assert len(layers) == 2 and all(g.n_nodes == 3 for g in layers)

    c = tmp_path / "c.net"
    c.write_text('*Vertices 4\n*Edges\n1 2 1\n', encoding="utf-8")
    with pytest.raises(InvalidInput):
        load_multilayer([str(a), str(c)])


def test_matrix_csv_round_trip_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((6, 6)) * 10.0 ** float(rng.integers(-8, 8))
    path = tmp_path / "m.csv"
    write_matrix_csv(m, path)
    back = read_matrix_csv(path)
    assert np.array_equal(back, m)


def test_matrix_csv_one_by_one(tmp_path):
    path = tmp_path / "one.csv"
    write_matrix_csv(np.array([[3.5]]), path)
    assert path.read_text(encoding="utf-8") == "3.5\n"
    assert np.array_equal(read_matrix_csv(path), [[3.5]])


def test_matrix_csv_rejects_non_square(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,2\n3,4\n5,6\n", encoding="utf-8")
    with pytest.raises(ParseError):
        read_matrix_csv(path)
