"""Loop-nest relations: paper Definitions 6.1-6.4."""

from repro.analysis.loops import build_loop_forest
from repro.fortran.parser import parse_source


def forest_of(body: str):
    src = f"program p\n{body}end\n"
    cu = parse_source(src, resolve=False)
    return build_loop_forest(cu.main)


NESTED = """\
do i = 1, 4
  do j = 1, 4
    do k = 1, 4
      x = 1
    end do
  end do
end do
"""

ADJACENT = """\
do i = 1, 4
  do j = 1, 4
    x = 1
  end do
  do k = 1, 4
    x = 2
  end do
end do
"""


class TestDiscovery:
    def test_all_loops_found(self):
        f = forest_of(NESTED)
        assert [l.var for l in f.all_loops] == ["i", "j", "k"]

    def test_roots(self):
        f = forest_of(ADJACENT)
        assert [l.var for l in f.roots] == ["i"]

    def test_loops_in_if_arms(self):
        f = forest_of("if (a) then\n do i = 1, 2\n end do\nend if\n")
        assert [l.var for l in f.all_loops] == ["i"]
        assert f.all_loops[0].parent is None

    def test_loop_in_logical_if_body(self):
        f = forest_of("do i = 1, 2\n if (a) x = 1\nend do\n")
        assert len(f.all_loops) == 1


class TestDefinition61InnerOuter:
    def test_contains_transitive(self):
        f = forest_of(NESTED)
        i, j, k = f.all_loops
        assert i.contains(j)
        assert i.contains(k)
        assert j.contains(k)
        assert not k.contains(i)
        assert not i.contains(i)


class TestDefinition62Direct:
    def test_direct_outer(self):
        f = forest_of(NESTED)
        i, j, k = f.all_loops
        assert i.is_direct_outer_of(j)
        assert not i.is_direct_outer_of(k)
        assert j.is_direct_outer_of(k)


class TestDefinition63Adjacent:
    def test_siblings_adjacent(self):
        f = forest_of(ADJACENT)
        i = f.roots[0]
        j, k = i.children
        assert j.adjacent_to(k)
        assert k.adjacent_to(j)
        assert not i.adjacent_to(j)

    def test_outermost_loops_adjacent(self):
        f = forest_of("do i = 1, 2\nend do\ndo j = 1, 2\nend do\n")
        a, b = f.roots
        assert a.adjacent_to(b)

    def test_not_adjacent_to_self(self):
        f = forest_of(ADJACENT)
        assert not f.roots[0].adjacent_to(f.roots[0])

    def test_adjacent_pairs_listing(self):
        f = forest_of(ADJACENT)
        pairs = f.adjacent_pairs()
        assert len(pairs) == 1


class TestDefinition64Simple:
    def test_pure_chain_is_simple(self):
        f = forest_of(NESTED)
        assert f.roots[0].is_simple

    def test_adjacent_inside_not_simple(self):
        f = forest_of(ADJACENT)
        assert not f.roots[0].is_simple
        # but the children themselves are simple
        for child in f.roots[0].children:
            assert child.is_simple

    def test_deep_adjacency_breaks_simplicity(self):
        f = forest_of("""\
do a = 1, 2
  do b = 1, 2
    do c = 1, 2
    end do
    do d = 1, 2
    end do
  end do
end do
""")
        assert not f.roots[0].is_simple
        assert not f.roots[0].children[0].is_simple


class TestMisc:
    def test_depth(self):
        f = forest_of(NESTED)
        assert [l.depth for l in f.all_loops] == [0, 1, 2]

    def test_nest_vars(self):
        f = forest_of(NESTED)
        assert f.roots[0].nest_vars == ["i", "j", "k"]

    def test_paths_resolve(self):
        f = forest_of(ADJACENT)
        j = f.roots[0].children[0]
        assert j.path == (("body", 0), ("body", 0))
