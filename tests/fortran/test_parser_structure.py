"""Program-unit structure: headers, multiple units, nesting, errors."""

import pytest

from repro.errors import ParseError
from repro.fortran import ast as A
from repro.fortran.parser import parse_source


class TestUnits:
    def test_program_header(self):
        cu = parse_source("program main\nend program main\n", resolve=False)
        assert cu.main.name == "main"
        assert cu.main.kind == "program"

    def test_bare_end(self):
        cu = parse_source("program p\nend\n", resolve=False)
        assert cu.main.name == "p"

    def test_subroutine_args(self):
        cu = parse_source("subroutine s(a, b)\nend subroutine s\n",
                          resolve=False)
        assert cu.units[0].args == ["a", "b"]

    def test_subroutine_no_args(self):
        cu = parse_source("subroutine s()\nend\n", resolve=False)
        assert cu.units[0].args == []

    def test_function_with_type(self):
        cu = parse_source("real function f(x)\nf = x\nend\n", resolve=False)
        assert cu.units[0].kind == "function"
        assert cu.units[0].result_type == "real"

    def test_function_double_precision(self):
        cu = parse_source("double precision function g()\ng = 1d0\nend\n",
                          resolve=False)
        assert cu.units[0].result_type == "doubleprecision"

    def test_untyped_function(self):
        cu = parse_source("function h(x)\nh = x\nend\n", resolve=False)
        assert cu.units[0].result_type is None

    def test_multiple_units(self):
        cu = parse_source(
            "program p\ncall s()\nend\nsubroutine s()\nend\n",
            resolve=False)
        assert [u.name for u in cu.units] == ["p", "s"]

    def test_unit_lookup(self):
        cu = parse_source("program p\nend\nsubroutine q()\nend\n",
                          resolve=False)
        assert cu.unit("Q").name == "q"
        with pytest.raises(KeyError):
            cu.unit("zz")

    def test_main_missing_raises(self):
        cu = parse_source("subroutine s()\nend\n", resolve=False)
        with pytest.raises(KeyError):
            cu.main

    def test_missing_end_raises(self):
        with pytest.raises(ParseError):
            parse_source("program p\nx = 1\n", resolve=False)

    @pytest.mark.parametrize("source,kind", [
        ("program p\nx = 1\nendprogram p\n", "program"),
        ("program p\nx = 1\nendprogram\n", "program"),
        ("subroutine s(a)\na = 1\nendsubroutine s\n", "subroutine"),
        ("function f(x)\nf = x\nEndFunction\n", "function"),
    ])
    def test_blankless_unit_end(self, source, kind):
        cu = parse_source(source, resolve=False)
        assert [u.kind for u in cu.units] == [kind]
        assert len(cu.units[0].body) == 1

    def test_blankless_ends_between_units(self):
        cu = parse_source(
            "program p\ncall s(1)\nendprogram p\n"
            "subroutine s(a)\nendsubroutine s\n"
            "function f(x)\nf = x\nendfunction f\n", resolve=False)
        assert [u.name for u in cu.units] == ["p", "s", "f"]

    def test_variable_named_like_a_unit_end(self):
        cu = parse_source("program p\nendprogram = 3\nend\n",
                          resolve=False)
        assert cu.main.body == [A.Assign(A.Var("endprogram"), A.IntLit(3))]

    def test_decl_body_split(self):
        cu = parse_source(
            "program p\ninteger i\nreal x\ni = 1\nreal y\nend\n",
            resolve=False)
        # 'real y' after an executable statement is a misplaced decl; the
        # parser keeps program order by pushing it into the body
        assert len(cu.main.decls) == 2
        assert len(cu.main.body) == 2


class TestDirectivePlacement:
    def test_leading_directives_attach_to_unit(self):
        cu = parse_source(
            "!$acfd status v\n!$acfd grid 4 4\nprogram p\nreal v(4,4)\nend\n")
        assert cu.directives.status_arrays == ["v"]
        assert cu.directives.grid_shape == (4, 4)

    def test_directive_inside_body(self):
        cu = parse_source(
            "!$acfd status v\n!$acfd grid 4 4\n"
            "program p\nreal v(4, 4)\nv(1, 1) = 0.0\n"
            "!$acfd distance 2\nend\n")
        assert cu.directives.max_distance == 2


class TestDeepNesting:
    def test_deep_loop_nest(self):
        body = "\n".join(f"do i{k} = 1, 2" for k in range(6))
        tail = "\n".join("end do" for _ in range(6))
        cu = parse_source(f"program p\n{body}\nx = 1\n{tail}\nend\n",
                          resolve=False)
        node = cu.main.body[0]
        depth = 0
        while isinstance(node, A.DoLoop):
            depth += 1
            node = node.body[0]
        assert depth == 6

    def test_if_inside_do_inside_if(self):
        cu = parse_source("""\
program p
  if (a) then
    do i = 1, 3
      if (b) then
        x = 1
      end if
    end do
  end if
end
""", resolve=False)
        if1 = cu.main.body[0]
        loop = if1.arms[0][1][0]
        if2 = loop.body[0]
        assert isinstance(if2, A.IfBlock)

    def test_labeled_do_with_goto_back(self):
        cu = parse_source("""\
program p
  k = 0
10 continue
  k = k + 1
  if (k .lt. 3) goto 10
end
""", resolve=False)
        labels = [s.label for s in cu.main.body]
        assert 10 in labels


class TestLineAttribution:
    def test_statement_lines_recorded(self):
        cu = parse_source("program p\nx = 1\ny = 2\nend\n", resolve=False)
        assert cu.main.body[0].line == 2
        assert cu.main.body[1].line == 3

    def test_equality_ignores_lines(self):
        a = parse_source("program p\nx = 1\nend\n", resolve=False)
        b = parse_source("program p\n\n\nx = 1\nend\n", resolve=False)
        assert a.units == b.units
