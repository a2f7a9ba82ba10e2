"""The column-wise fixture parser against the row-by-row reference, on
shipped and generated fixtures of both modes with faults applied."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsgraph.errors import BsGraphError, FixtureSyntaxError
from bsgraph.fixtures import parse_fixture, serialize_fixture
from bsgraph.graphs import build_graph
from bsgraph.squares import CompleteCollection, build_square, paths_with_colour_word
from bsgraph.words import MODES

from .conftest import FIXTURE_DIR
from .oracles import parse_fixture_by_rows

SHIPPED = [p.read_text() for p in sorted(FIXTURE_DIR.glob("*.cg"))]


def _outcome(text: str, parse):
    """The mode, graph and named squares a parser reads, or the type and
    message of what it raises."""
    try:
        coll = parse(text)
    except Exception as exc:  # noqa: BLE001 - compared, not hidden
        return type(exc), str(exc)
    return coll.ops, coll.graph, [
        (sq.name, sq.red, sq.blue, sq.graph is coll.graph) for sq in coll.squares
    ]


@st.composite
def generated_fixtures(draw) -> str:
    """A fixture of either mode: a random graph and some of its squares,
    each found from a red-first and a blue-first path with common ends,
    slots written in the mode's order or shuffled, colours in either
    mode's tokens."""
    ops = MODES[draw(st.sampled_from(sorted(MODES)))]
    vertices = [f"v{i}" for i in range(draw(st.integers(1, 3)))]
    ends = st.sampled_from(vertices)
    rows = draw(st.lists(st.tuples(st.sampled_from("ab"), ends, ends), min_size=1, max_size=6))
    # A blue loop at each vertex gives every red edge a square.
    edges = [(f"b{i}", "b", v, v) for i, v in enumerate(vertices)]
    edges += [(f"e{i}", c, r, s) for i, (c, r, s) in enumerate(rows)]
    g = build_graph(vertices, edges)
    source = {e.name: e.source for e in g.edges}
    candidates = [
        red + blue
        for red in paths_with_colour_word(g, ops.red_first_word)
        for blue in paths_with_colour_word(g, ops.blue_first_word)
        if g.edge(red[0]).range_ == g.edge(blue[0]).range_ and source[red[-1]] == source[blue[-1]]
    ]
    picked = draw(st.lists(st.sampled_from(candidates), max_size=6)) if candidates else []
    tokens = draw(st.sampled_from([{"a": "a", "b": "b"}, {"a": "1", "b": "2"}]))
    lines = [f"mode {ops.name}"] if ops.name == "grid" or draw(st.booleans()) else []
    lines += [f"vertex {v}" for v in vertices]
    lines += [f"edge {n} {tokens[c]} {r} {s}" for n, c, r, s in edges]
    for k, names in enumerate(picked):
        items = [f"{slot}={e}" for slot, e in zip(ops.slot_names, names)]
        if draw(st.booleans()):
            items = draw(st.permutations(items))
        lines.append(f"square s{k} " + " ".join(items))
    return "\n".join(draw(st.permutations(lines))) + "\n"


def _square_lines(lines):
    return [i for i, line in enumerate(lines) if line.startswith("square ")]


@st.composite
def faulted(draw, text: str) -> str:
    """text with one to three faults: in a square line an edge name that
    is unknown or another edge (a wrong colour or a broken junction), a
    missing, unknown, repeated or unsplit slot; a repeated square, vertex
    or edge id, an edge from an undeclared vertex, a bad or upper-case
    colour token, an unknown directive."""
    lines = text.splitlines()
    names = [line.split()[1] for line in lines if line.split()[:1] in (["edge"], ["vertex"])]
    for _ in range(draw(st.integers(1, 3))):
        squares = _square_lines(lines)
        line_faults = [
            "repeated vertex", "repeated id", "undeclared vertex", "bad colour",
            "upper-case colour", "unknown directive",
        ] + ["repeated square"] * bool(squares)
        square_faults = [
            "unknown edge", "other edge", "other edge", "missing slot", "unknown slot",
            "repeated slot", "unsplit slot",
        ]
        fault = draw(st.sampled_from(line_faults if not squares or draw(st.integers(0, 3)) == 0
                                     else square_faults))
        if fault in ("repeated square", "repeated vertex", "repeated id", "undeclared vertex",
                     "bad colour", "upper-case colour", "unknown directive"):
            line = {
                "repeated square": lambda: lines[draw(st.sampled_from(squares))],
                "repeated vertex": lambda: "vertex v0",
                "repeated id": lambda: f"edge {draw(st.sampled_from(names))} a v0 v0",
                "undeclared vertex": lambda: "edge fresh b v0 nowhere",
                "bad colour": lambda: "edge fresh c v0 v0",
                "upper-case colour": lambda: f"edge fresh {draw(st.sampled_from('AB'))} v0 v0",
                "unknown directive": lambda: "frobnicate v0",
            }[fault]()
            lines.insert(draw(st.integers(0, len(lines))), line)
            continue
        i = draw(st.sampled_from(squares))
        head, items = lines[i].split()[:2], lines[i].split()[2:]
        k = draw(st.integers(0, len(items) - 1)) if items else None
        slot = items[k].partition("=")[0] if items else ""
        if k is None:
            items = ["eA=e0"]
        elif fault == "unknown edge":
            items[k] = slot + "=nosuch"
        elif fault == "other edge":
            items[k] = slot + "=" + draw(st.sampled_from(names))
        elif fault == "missing slot":
            del items[k]
        elif fault == "unknown slot":
            items[k] = "zz=" + items[k].partition("=")[2]
        elif fault == "repeated slot":
            items.insert(draw(st.integers(0, len(items))), items[k])
        else:
            items[k] = items[k].replace("=", "")
        lines[i] = " ".join(head + items)
    return "\n".join(lines) + "\n"


def _assert_same(text: str):
    assert _outcome(text, parse_fixture) == _outcome(text, parse_fixture_by_rows), text


@pytest.mark.parametrize("index", range(len(SHIPPED)))
def test_shipped_fixtures_parse_as_the_reference_does(index):
    _assert_same(SHIPPED[index])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_faulted_fixtures_parse_as_the_reference_does(data):
    """Shipped and generated fixtures, as they are and with faults applied:
    the same collection, or the same error with the same line."""
    text = data.draw(st.one_of(st.sampled_from(SHIPPED), generated_fixtures()))
    _assert_same(text)
    _assert_same(data.draw(faulted(text)))


@pytest.mark.parametrize(
    "lines, error",
    [
        (["vertex u", "edge f a u nowhere"], "line 2: edge 'f' uses undeclared vertex 'nowhere'"),
        (["vertex u", "# a comment", "vertex u"], "line 3: duplicate vertex 'u'"),
        (["vertex u", "edge f a u u", "vertex v", "edge f b v v"], "line 4: duplicate id 'f'"),
        (["vertex u", "edge u a u u"], "line 2: duplicate id 'u'"),
        (["vertex u", "", "edge f c u u"], "line 3: bad colour 'c'; expected a/b or 1/2"),
        (["edge f a u u", "vertex v", "vertex v"], "line 3: duplicate vertex 'v'"),
    ],
)
def test_graph_errors_name_their_line(lines, error):
    """A graph fault names the line of its vertex or edge row; of several,
    the first in declaration order, vertices first."""
    with pytest.raises(FixtureSyntaxError) as exc:
        parse_fixture("\n".join(lines) + "\n")
    assert str(exc.value) == error


@pytest.mark.parametrize(
    "squares",
    [
        # Five slots in order over two lines: each line is still its own square.
        ["square s eA=f aB=g abB=g eB=g", "square t bA=f eA=f aB=g abB=g eB=g bA=f"],
        ["square s eA=f aB=g abB=g eB=g bA=f bA=f", "square t eA=f aB=g abB=g"],
        ["square s eA=f aB=g abB=g bA=f eB=g", "square t eA=f aB=g=h abB=g eB=g bA=f"],
    ],
)
def test_slots_are_read_line_by_line(squares):
    _assert_same("vertex u\nedge f a u u\nedge g b u u\n" + "\n".join(squares) + "\n")


def test_upper_case_colour_tokens_are_accepted():
    text = "vertex u\nedge f A u u\nedge g B u u\nsquare s eA=f aB=g abB=g eB=g bA=f\n"
    coll = parse_fixture(text)
    assert [e.colour for e in coll.graph.edges] == ["a", "b"]
    assert [(sq.red, sq.blue) for sq in coll.squares] == [(("f", "g", "g"), ("g", "f"))]


def test_a_square_the_batch_refuses_is_never_dropped(monkeypatch):
    """Should the batch refuse a square that ``build_square`` accepts,
    loading fails loudly instead of returning the squares before it."""
    import bsgraph.fixtures as fixtures

    real = fixtures.build_squares
    monkeypatch.setattr(fixtures, "build_squares", lambda *args: real(*args)[:-1])
    with pytest.raises(AssertionError, match="refused 'phi2' but build_square accepted it"):
        fixtures.load_fixture(FIXTURE_DIR / "example_E.cg")


def _loops(ops, vertex="u", red="f", blue="g", square="s") -> CompleteCollection:
    """One vertex with a red and a blue loop, and the one square they make."""
    g = build_graph([vertex], [(red, "a", vertex, vertex), (blue, "b", vertex, vertex)])
    loop = {"a": red, "b": blue}
    names = [loop[l] for l in ops.red_first_word + ops.blue_first_word]
    return CompleteCollection(g, ops, [build_square(g, ops, names, square)])


@pytest.mark.parametrize("name", ["l#1", "b x", "#", " ", "a\u2028b", ""])
@pytest.mark.parametrize("kind", ["vertex", "red", "blue", "square"])
def test_serialize_refuses_a_name_that_would_not_read_back(kind, name):
    """A name that is empty or holds whitespace or '#' is refused by name,
    with no text written, instead of a fixture its parser refuses."""
    coll = _loops(MODES["bs"], **{kind: name})
    what = "edge" if kind in ("red", "blue") else kind
    with pytest.raises(BsGraphError) as exc:
        serialize_fixture(coll)
    assert str(exc.value).startswith(f"cannot write {what} name {name!r}:")


def test_serialize_names_the_first_bad_name_in_write_order():
    coll = _loops(MODES["grid"], red="f g", blue="", square="#1")
    with pytest.raises(BsGraphError, match="^cannot write edge name 'f g':"):
        serialize_fixture(coll)


TOKEN = st.characters(blacklist_categories=("Cs",)).filter(
    lambda c: c.isprintable() and not c.isspace() and c != "#"
)


@given(
    st.sampled_from(sorted(MODES)),
    st.lists(st.text(TOKEN, min_size=1), min_size=4, max_size=4, unique=True),
)
def test_serialize_round_trips_any_token_names(mode, names):
    """Names of printable characters other than whitespace and '#' read
    back as they were written."""
    coll = _loops(MODES[mode], *names)
    back = parse_fixture(serialize_fixture(coll))
    assert back == coll
    assert [sq.name for sq in back.squares] == [names[-1]]
