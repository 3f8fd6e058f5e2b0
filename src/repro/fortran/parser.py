"""Recursive-descent parser for the Fortran subset.

The parser consumes :class:`repro.fortran.source.LogicalLine` objects and
produces the AST of :mod:`repro.fortran.ast`.  Block structure (DO / END DO,
labeled DO ... CONTINUE, IF / ELSE IF / ELSE / END IF) is rebuilt by reading
statements sequentially; shared labeled-DO terminators (two nested ``do 10``
loops ending on one ``10 continue``) are handled.  Expressions are parsed
by one precedence-climbing loop over the binary-operator table ``_BINARY``.

Keyword-ness is decided contextually: a line is an *assignment* whenever it
matches ``name = ...`` or ``name(...) = ...`` with the ``=`` at paren depth
zero; only otherwise is the leading name tried as a statement keyword.
"""

from __future__ import annotations

from repro.errors import ParseError
from repro.fortran import ast as A
from repro.fortran.source import LogicalLine, split_source
from repro.fortran.tokens import T, Token, tokenize

_DECL_TYPES = {
    "integer", "real", "doubleprecision", "logical", "character",
}

_UNIT_KINDS = ("program", "subroutine", "function")

_SPEC_STMTS = (
    A.Declaration, A.DimensionStmt, A.ParameterStmt, A.CommonStmt,
    A.ImplicitStmt, A.SaveStmt, A.ExternalStmt, A.IntrinsicStmt, A.DataStmt,
)


class _TokenStream:
    """Cursor over the token list of one logical line."""

    def __init__(self, tokens: list[Token], filename: str, line: int) -> None:
        self.tokens = tokens
        self.pos = 0
        self.filename = filename
        self.line = line

    def peek(self, offset: int = 0) -> Token:
        # next() never moves past the trailing END, so only a lookahead
        # needs clamping
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not T.END:
            self.pos += 1
        return tok

    def accept(self, kind: T, text: str | None = None) -> Token | None:
        tok = self.peek()
        if tok.kind is kind and (text is None or tok.text.lower() == text):
            return self.next()
        return None

    def expect(self, kind: T, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind is not kind:
            raise ParseError(
                f"expected {what or kind.name}, found {tok.text!r}",
                filename=self.filename, line=self.line, column=tok.column + 1)
        return self.next()

    def at_end(self) -> bool:
        return self.peek().kind is T.END

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, filename=self.filename, line=self.line,
                          column=tok.column + 1)


# --------------------------------------------------------------------------
# Expression parsing (precedence climbing)
# --------------------------------------------------------------------------

# Precedence levels, loosest first.  ``.not.`` is a prefix operator whose
# operand may hold every operator from the relational level up; a prefix
# sign takes a multiplicative operand, and so may the right operand of
# ``**``.
_EQV, _OR, _AND, _NOT, _REL, _CONCAT, _ADD, _MUL, _POW = range(1, 10)

#: token kind -> (precedence, spelling) of each binary operator
_BINARY = {
    T.EQV: (_EQV, ".eqv."), T.NEQV: (_EQV, ".neqv."),
    T.OR: (_OR, ".or."), T.AND: (_AND, ".and."),
    T.LT: (_REL, ".lt."), T.LE: (_REL, ".le."), T.GT: (_REL, ".gt."),
    T.GE: (_REL, ".ge."), T.EQ: (_REL, ".eq."), T.NE: (_REL, ".ne."),
    T.CONCAT: (_CONCAT, "//"),
    T.PLUS: (_ADD, "+"), T.MINUS: (_ADD, "-"),
    T.STAR: (_MUL, "*"), T.SLASH: (_MUL, "/"),
    T.POWER: (_POW, "**"),
}

_SIGN = {T.PLUS: "+", T.MINUS: "-"}

#: token kinds that start a literal constant (a DATA value)
_CONSTANTS = (T.INT, T.REAL, T.STRING, T.TRUE, T.FALSE)


def parse_expression(ts: _TokenStream) -> A.Expr:
    """Parse a full expression at the lowest precedence level."""
    return _climb(ts, _EQV)


def _climb(ts: _TokenStream, min_prec: int) -> A.Expr:
    """Parse an operand and every binary operator of precedence at least
    *min_prec* that follows it.

    ``ceiling`` is the tightest precedence the loop may still take.  An
    operand parsed at level ``q`` has already taken every operator from
    ``q`` up that it could; the only one that can still stand at the
    cursor is a second relational operator (they do not associate), and
    it ends the whole expression.
    """
    kind = ts.peek().kind
    if kind is T.NOT and min_prec <= _NOT:
        ts.next()
        left: A.Expr = A.UnOp(".not.", _climb(ts, _NOT))
        ceiling = _AND
    elif (kind is T.PLUS or kind is T.MINUS) and min_prec <= _ADD:
        ts.next()
        left = A.UnOp(_SIGN[kind], _climb(ts, _MUL))
        ceiling = _ADD
    else:
        left = _parse_primary(ts)
        ceiling = _POW
    while True:
        entry = _BINARY.get(ts.peek().kind)
        if entry is None:
            return left
        prec, op = entry
        if not min_prec <= prec <= ceiling:
            return left
        ts.next()
        if prec == _POW:
            # right-associative, and the exponent may carry a sign
            sign = _SIGN.get(ts.peek().kind)
            if sign is None:
                right = _climb(ts, _POW)
            else:
                ts.next()
                right = A.UnOp(sign, _climb(ts, _POW))
        else:
            right = _climb(ts, prec + 1)
            ceiling = prec - 1 if prec == _REL else prec
        left = A.BinOp(op, left, right)


def _parse_primary(ts: _TokenStream) -> A.Expr:
    tok = ts.peek()
    kind = tok.kind
    if kind is T.NAME:
        ts.next()
        name = tok.text.lower()
        if ts.peek().kind is T.LPAREN:
            ts.next()
            args = _parse_argument_list(ts)
            ts.expect(T.RPAREN, "')'")
            return A.Apply(name, args)
        return A.Var(name)
    if kind is T.INT:
        ts.next()
        return A.IntLit(int(tok.text))
    if kind is T.LPAREN:
        ts.next()
        expr = parse_expression(ts)
        ts.expect(T.RPAREN, "')'")
        return expr
    if kind is T.REAL:
        ts.next()
        return A.RealLit(float(tok.text.lower().replace("d", "e")), tok.text)
    if kind is T.STRING:
        ts.next()
        quote = tok.text[0]
        inner = tok.text[1:-1].replace(quote + quote, quote)
        return A.StringLit(inner)
    if kind is T.TRUE or kind is T.FALSE:
        ts.next()
        return A.LogicalLit(kind is T.TRUE)
    raise ts.error(f"expected expression, found {tok.text!r}")


def _parse_argument_list(ts: _TokenStream) -> list[A.Expr]:
    """Parse a comma list of arguments/subscripts; supports ``lo:hi``."""
    args: list[A.Expr] = []
    if ts.peek().kind is T.RPAREN:
        return args
    while True:
        args.append(_parse_subscript(ts))
        if ts.accept(T.COMMA) is None:
            return args


def _parse_subscript(ts: _TokenStream) -> A.Expr:
    """An expression, or a ``lo:hi`` range with either bound left out."""
    lo = None
    if ts.peek().kind is not T.COLON:
        lo = parse_expression(ts)
        if ts.peek().kind is not T.COLON:
            return lo
    ts.next()
    hi = None
    if ts.peek().kind not in (T.COMMA, T.RPAREN):
        hi = parse_expression(ts)
    return A.RangeExpr(lo, hi)


# --------------------------------------------------------------------------
# Statement-level parsing
# --------------------------------------------------------------------------


def _matching_rparen(tokens: list[Token], lparen_index: int) -> int:
    """Index of the RPAREN matching ``tokens[lparen_index]`` (an LPAREN)."""
    depth = 0
    for i in range(lparen_index, len(tokens)):
        if tokens[i].kind is T.LPAREN:
            depth += 1
        elif tokens[i].kind is T.RPAREN:
            depth -= 1
            if depth == 0:
                return i
    return -1


def _is_assignment(tokens: list[Token]) -> bool:
    """True when the line matches ``name =`` or ``name(...) =``."""
    if not tokens or tokens[0].kind is not T.NAME:
        return False
    if len(tokens) > 1 and tokens[1].kind is T.EQUALS:
        return True
    if len(tokens) > 1 and tokens[1].kind is T.LPAREN:
        close = _matching_rparen(tokens, 1)
        return (0 <= close < len(tokens) - 1
                and tokens[close + 1].kind is T.EQUALS)
    return False


class Parser:
    """Parses a sequence of logical lines into program units."""

    def __init__(self, lines: list[LogicalLine], filename: str) -> None:
        self.lines = lines
        self.filename = filename
        self.index = 0

    # -- logical-line cursor ------------------------------------------------

    def _peek_line(self) -> LogicalLine | None:
        if self.index < len(self.lines):
            return self.lines[self.index]
        return None

    def _next_line(self) -> LogicalLine:
        line = self.lines[self.index]
        self.index += 1
        return line

    def _stream(self, line: LogicalLine) -> _TokenStream:
        return _TokenStream(tokenize(line.text, filename=self.filename,
                                     line=line.line),
                            self.filename, line.line)

    # -- program units ------------------------------------------------------

    def parse_compilation_unit(self) -> A.CompilationUnit:
        cu = A.CompilationUnit(filename=self.filename)
        while self._peek_line() is not None:
            cu.units.append(self.parse_unit())
        return cu

    def _unit_header(self, line: LogicalLine) -> tuple[str, str, list[str], str | None] | None:
        """Recognise PROGRAM/SUBROUTINE/FUNCTION headers."""
        ts = self._stream(line)
        tok = ts.peek()
        if tok.kind is not T.NAME:
            return None
        head = tok.text.lower()
        if head == "program":
            ts.next()
            name = ts.expect(T.NAME, "program name").text.lower()
            return ("program", name, [], None)
        if head == "subroutine":
            ts.next()
            name = ts.expect(T.NAME, "subroutine name").text.lower()
            args = self._dummy_args(ts)
            return ("subroutine", name, args, None)
        if head == "function":
            ts.next()
            name = ts.expect(T.NAME, "function name").text.lower()
            args = self._dummy_args(ts)
            return ("function", name, args, None)
        if head in _DECL_TYPES or head == "double":
            # possibly `real function f(x)` / `double precision function g()`
            save = ts.pos
            ts.next()
            type_name = head
            if head == "double":
                if ts.accept(T.NAME, "precision") is None:
                    ts.pos = save
                    return None
                type_name = "doubleprecision"
            if ts.peek().kind is T.NAME and ts.peek().text.lower() == "function":
                ts.next()
                name = ts.expect(T.NAME, "function name").text.lower()
                args = self._dummy_args(ts)
                return ("function", name, args, type_name)
            ts.pos = save
        return None

    def _dummy_args(self, ts: _TokenStream) -> list[str]:
        args: list[str] = []
        if ts.accept(T.LPAREN) is None:
            return args
        if ts.peek().kind is T.RPAREN:
            ts.next()
            return args
        while True:
            args.append(ts.expect(T.NAME, "argument name").text.lower())
            if ts.accept(T.COMMA) is None:
                break
        ts.expect(T.RPAREN, "')'")
        return args

    def parse_unit(self) -> A.ProgramUnit:
        # Leading directives before the unit header belong to the unit.
        leading: list[A.Stmt] = []
        while (line := self._peek_line()) is not None and line.is_directive:
            self._next_line()
            leading.append(A.DirectiveStmt(text=line.text, line=line.line))
        line = self._peek_line()
        if line is None:
            raise ParseError("expected a program unit", filename=self.filename)
        header = self._unit_header(line)
        if header is None:
            # Headerless main program (F77 allows it).
            unit = A.ProgramUnit("program", "main", line=line.line)
        else:
            self._next_line()
            kind, name, args, rtype = header
            unit = A.ProgramUnit(kind, name, args, result_type=rtype,
                                 line=line.line)
        unit.decls.extend(leading)
        self._parse_unit_body(unit)
        return unit

    def _parse_unit_body(self, unit: A.ProgramUnit) -> None:
        in_decls = True
        while True:
            line = self._peek_line()
            if line is None:
                raise ParseError(f"missing END for {unit.kind} {unit.name}",
                                 filename=self.filename,
                                 line=unit.line)
            if self._is_end_unit(line):
                self._next_line()
                return
            stmt = self.parse_statement()
            if in_decls and isinstance(stmt, _SPEC_STMTS + (A.DirectiveStmt,
                                                            A.FormatStmt)):
                unit.decls.append(stmt)
            else:
                in_decls = False
                unit.body.append(stmt)

    def _is_end_unit(self, line: LogicalLine) -> bool:
        """``end``, ``end <unit kind> [name]`` or ``end<unit kind> [name]``."""
        if line.is_directive:
            return False
        parts = line.text.lower().split()
        if parts[0] == "end":
            return len(parts) == 1 or parts[1] in _UNIT_KINDS
        return (len(parts) <= 2 and parts[0].startswith("end")
                and parts[0][3:] in _UNIT_KINDS)

    # -- statements ---------------------------------------------------------

    def parse_statement(self) -> A.Stmt:
        line = self._next_line()
        if line.is_directive:
            return A.DirectiveStmt(text=line.text, line=line.line)
        stmt = self._parse_statement_line(line)
        stmt.line = line.line
        if line.label is not None:
            stmt.label = line.label
        return stmt

    def _parse_statement_line(self, line: LogicalLine) -> A.Stmt:
        ts = self._stream(line)
        tokens = ts.tokens
        if _is_assignment(tokens):
            return self._parse_assignment(ts)
        tok = ts.peek()
        if tok.kind is not T.NAME:
            raise ts.error(f"cannot parse statement starting with {tok.text!r}")
        head = tok.text.lower()
        handler = getattr(self, f"_stmt_{head}", None)
        if handler is not None:
            ts.next()
            return handler(ts, line)
        if head in _DECL_TYPES:
            ts.next()
            return self._parse_declaration(ts, head)
        if head == "double":
            ts.next()
            ts.expect(T.NAME, "'precision'")
            return self._parse_declaration(ts, "doubleprecision")
        raise ts.error(f"unknown statement {head!r}")

    def _parse_assignment(self, ts: _TokenStream) -> A.Stmt:
        target = _parse_primary(ts)
        ts.expect(T.EQUALS, "'='")
        value = parse_expression(ts)
        if not ts.at_end():
            raise ts.error("trailing tokens after assignment")
        return A.Assign(target=target, value=value)

    # -- individual statement keywords ---------------------------------------

    def _stmt_do(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        end_label: int | None = None
        if ts.peek().kind is T.INT:
            end_label = int(ts.next().text)
        if (ts.peek().kind is T.NAME and ts.peek().text.lower() == "while"
                and ts.peek(1).kind is T.LPAREN):
            ts.next()
            ts.expect(T.LPAREN)
            cond = parse_expression(ts)
            ts.expect(T.RPAREN)
            loop = A.DoWhile(cond=cond)
            loop.body = (self._parse_labeled_body(end_label)
                         if end_label is not None
                         else self._parse_block_body(("end do", "enddo")))
            return loop
        var = ts.expect(T.NAME, "loop variable").text.lower()
        ts.expect(T.EQUALS, "'='")
        start = parse_expression(ts)
        ts.expect(T.COMMA, "','")
        stop = parse_expression(ts)
        step = None
        if ts.accept(T.COMMA) is not None:
            step = parse_expression(ts)
        loop = A.DoLoop(var=var, start=start, stop=stop, step=step,
                        end_label=end_label)
        if end_label is not None:
            loop.body = self._parse_labeled_body(end_label)
        else:
            loop.body = self._parse_block_body(("end do", "enddo"))
        return loop

    def _parse_block_body(self, terminators: tuple[str, ...]) -> list[A.Stmt]:
        body: list[A.Stmt] = []
        while True:
            line = self._peek_line()
            if line is None:
                raise ParseError("unterminated block", filename=self.filename)
            text = " ".join(line.text.strip().lower().split())
            if not line.is_directive and text in terminators:
                self._next_line()
                return body
            body.append(self.parse_statement())

    def _parse_labeled_body(self, end_label: int) -> list[A.Stmt]:
        """Parse the body of ``do LABEL ...`` up to the labeled terminator."""
        body: list[A.Stmt] = []
        while True:
            line = self._peek_line()
            if line is None:
                raise ParseError(f"missing terminator labeled {end_label}",
                                 filename=self.filename)
            stmt = self.parse_statement()
            body.append(stmt)
            if stmt.label == end_label:
                return body
            # A nested labeled DO sharing this terminator consumed it.
            if isinstance(stmt, A.DoLoop) and stmt.end_label == end_label:
                return body

    def _stmt_if(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        ts.expect(T.LPAREN, "'('")
        cond = parse_expression(ts)
        ts.expect(T.RPAREN, "')'")
        if ts.peek().kind is T.NAME and ts.peek().text.lower() == "then" \
                and ts.peek(1).kind is T.END:
            block = A.IfBlock()
            self._parse_if_arms(block, cond)
            return block
        # one-line logical IF
        rest = line.text[ts.peek().column:]
        inner_line = LogicalLine(rest, line.line)
        inner = self._parse_statement_line(inner_line)
        inner.line = line.line
        return A.LogicalIf(cond=cond, stmt=inner)

    def _parse_if_arms(self, block: A.IfBlock, first_cond: A.Expr) -> None:
        cond: A.Expr | None = first_cond
        while True:
            body: list[A.Stmt] = []
            while True:
                line = self._peek_line()
                if line is None:
                    raise ParseError("unterminated IF block",
                                     filename=self.filename)
                text = " ".join(line.text.strip().lower().split())
                if not line.is_directive and text in ("end if", "endif"):
                    self._next_line()
                    block.arms.append((cond, body))
                    return
                if not line.is_directive and (
                        text.startswith("else if") or text.startswith("elseif")
                        or text == "else"):
                    self._next_line()
                    block.arms.append((cond, body))
                    if text == "else":
                        cond = None
                    else:
                        ets = self._stream(line)
                        ets.next()  # else / elseif
                        if ets.peek().text.lower() == "if":
                            ets.next()
                        ets.expect(T.LPAREN, "'('")
                        cond = parse_expression(ets)
                        ets.expect(T.RPAREN, "')'")
                        # trailing 'then'
                        ets.accept(T.NAME, "then")
                    break
                body.append(self.parse_statement())

    def _stmt_goto(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        if ts.peek().kind is T.LPAREN:
            ts.next()
            targets = [int(ts.expect(T.INT).text)]
            while ts.accept(T.COMMA) is not None:
                targets.append(int(ts.expect(T.INT).text))
            ts.expect(T.RPAREN)
            ts.accept(T.COMMA)
            selector = parse_expression(ts)
            return A.ComputedGoto(targets=targets, selector=selector)
        target = int(ts.expect(T.INT, "label").text)
        return A.Goto(target=target)

    def _stmt_go(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        ts.expect(T.NAME, "'to'")
        return self._stmt_goto(ts, line)

    def _stmt_continue(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        return A.Continue()

    def _stmt_call(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        name = ts.expect(T.NAME, "subroutine name").text.lower()
        args: list[A.Expr] = []
        if ts.accept(T.LPAREN) is not None:
            if ts.peek().kind is not T.RPAREN:
                args = _parse_argument_list(ts)
            ts.expect(T.RPAREN)
        return A.CallStmt(name=name, args=args)

    def _stmt_return(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        return A.ReturnStmt()

    def _stmt_stop(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        message = None
        if ts.peek().kind is T.STRING:
            message = ts.next().text[1:-1]
        elif ts.peek().kind is T.INT:
            message = ts.next().text
        return A.StopStmt(message=message)

    def _stmt_exit(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        return A.ExitStmt()

    def _stmt_cycle(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        return A.CycleStmt()

    def _stmt_implicit(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        word = ts.expect(T.NAME).text.lower()
        if word != "none":
            raise ts.error("only 'implicit none' is supported")
        return A.ImplicitStmt(none=True)

    def _stmt_dimension(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        return A.DimensionStmt(entities=self._entity_list(ts))

    def _stmt_parameter(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        ts.expect(T.LPAREN, "'('")
        assignments: list[tuple[str, A.Expr]] = []
        while True:
            name = ts.expect(T.NAME, "parameter name").text.lower()
            ts.expect(T.EQUALS, "'='")
            assignments.append((name, parse_expression(ts)))
            if ts.accept(T.COMMA) is None:
                break
        ts.expect(T.RPAREN, "')'")
        return A.ParameterStmt(assignments=assignments)

    def _stmt_common(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        block = ""
        if ts.accept(T.SLASH) is not None:
            block = ts.expect(T.NAME, "common block name").text.lower()
            ts.expect(T.SLASH, "'/'")
        return A.CommonStmt(block=block, entities=self._entity_list(ts))

    def _stmt_save(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        names: list[str] = []
        while ts.peek().kind is T.NAME:
            names.append(ts.next().text.lower())
            if ts.accept(T.COMMA) is None:
                break
        return A.SaveStmt(names=names)

    def _stmt_external(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        return A.ExternalStmt(names=self._name_list(ts))

    def _stmt_intrinsic(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        return A.IntrinsicStmt(names=self._name_list(ts))

    def _stmt_data(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        names: list[str] = []
        values: list[A.Expr] = []
        while True:
            clause_names = [ts.expect(T.NAME, "data name").text.lower()]
            while ts.accept(T.COMMA) is not None:
                clause_names.append(ts.expect(T.NAME).text.lower())
            ts.expect(T.SLASH, "'/'")
            clause_values: list[A.Expr] = []
            while ts.peek().kind is not T.SLASH:
                # DATA values are literals (a full expression parse would
                # mistake the closing '/' for a division)
                value = self._data_value(ts)
                if ts.peek().kind is T.STAR:
                    # repeat count: 3*0.0
                    ts.next()
                    repeated = self._data_value(ts)
                    if not isinstance(value, A.IntLit):
                        raise ts.error("repeat count must be an integer")
                    clause_values.extend([repeated] * value.value)
                else:
                    clause_values.append(value)
                ts.accept(T.COMMA)
            ts.expect(T.SLASH, "'/'")
            names.extend(clause_names)
            values.extend(clause_values)
            if ts.accept(T.COMMA) is None:
                break
        return A.DataStmt(names=names, values=values)

    def _data_value(self, ts: _TokenStream) -> A.Expr:
        """A DATA constant: optionally signed literal."""
        sign = None
        if ts.peek().kind in (T.PLUS, T.MINUS):
            sign = "-" if ts.next().kind is T.MINUS else "+"
        tok = ts.peek()
        if tok.kind not in _CONSTANTS:
            raise ts.error(f"expected DATA constant, found {tok.text!r}")
        value = _parse_primary(ts)
        if sign is not None:
            return A.UnOp(sign, value)
        return value

    def _stmt_format(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        # keep verbatim; skip to end of line
        ts.pos = len(ts.tokens) - 1
        text = line.text.strip()
        body = text[len("format"):].strip() if text.lower().startswith("format") else text
        return A.FormatStmt(text=body)

    def _stmt_open(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        ts.expect(T.LPAREN)
        unit = None
        filename = None
        status = None
        first = True
        while ts.peek().kind is not T.RPAREN:
            if not first:
                ts.expect(T.COMMA)
            first = False
            if (ts.peek().kind is T.NAME and ts.peek(1).kind is T.EQUALS):
                key = ts.next().text.lower()
                ts.next()
                value = parse_expression(ts)
                if key == "unit":
                    unit = value
                elif key == "file":
                    filename = value
                elif key == "status" and isinstance(value, A.StringLit):
                    status = value.value
            else:
                value = parse_expression(ts)
                if unit is None:
                    unit = value
                elif filename is None:
                    filename = value
        ts.expect(T.RPAREN)
        return A.OpenStmt(unit=unit, filename=filename, status=status)

    def _stmt_close(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        ts.expect(T.LPAREN)
        unit = parse_expression(ts)
        ts.expect(T.RPAREN)
        return A.CloseStmt(unit=unit)

    def _stmt_read(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        unit, fmt = self._io_control(ts)
        items = self._io_items(ts)
        return A.ReadStmt(unit=unit, fmt=fmt, items=items)

    def _stmt_write(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        unit, fmt = self._io_control(ts)
        items = self._io_items(ts)
        return A.WriteStmt(unit=unit, fmt=fmt, items=items)

    def _stmt_print(self, ts: _TokenStream, line: LogicalLine) -> A.Stmt:
        fmt = None
        if ts.peek().kind is T.STAR:
            ts.next()
        elif ts.peek().kind is T.STRING:
            fmt = ts.next().text[1:-1]
        elif ts.peek().kind is T.INT:
            fmt = ts.next().text
        items: list[A.Expr] = []
        if ts.accept(T.COMMA) is not None:
            items = self._io_items(ts)
        return A.WriteStmt(unit=None, fmt=fmt, items=items)

    # -- shared helpers -------------------------------------------------------

    def _io_control(self, ts: _TokenStream) -> tuple[A.Expr | None, str | None]:
        """Parse ``(unit[, fmt])`` or ``*,`` I/O control."""
        unit: A.Expr | None = None
        fmt: str | None = None
        if ts.accept(T.LPAREN) is not None:
            if ts.peek().kind is T.STAR:
                ts.next()
            else:
                unit = parse_expression(ts)
            if ts.accept(T.COMMA) is not None:
                if ts.peek().kind is T.STAR:
                    ts.next()
                elif ts.peek().kind is T.STRING:
                    fmt = ts.next().text[1:-1]
                elif ts.peek().kind is T.INT:
                    fmt = ts.next().text
                else:
                    fmt_expr = parse_expression(ts)
                    fmt = repr(fmt_expr)
            ts.expect(T.RPAREN)
        elif ts.peek().kind is T.STAR:
            ts.next()
            ts.expect(T.COMMA)
        return unit, fmt

    def _io_items(self, ts: _TokenStream) -> list[A.Expr]:
        items: list[A.Expr] = []
        if ts.at_end():
            return items
        while True:
            items.append(self._io_item(ts))
            if ts.accept(T.COMMA) is None:
                break
        return items

    def _io_item(self, ts: _TokenStream) -> A.Expr:
        """Parse an I/O list item, recognising implied-DO loops."""
        if ts.peek().kind is T.LPAREN and self._looks_like_implied_do(ts):
            ts.next()  # (
            items: list[A.Expr] = [self._io_item(ts)]
            while ts.accept(T.COMMA) is not None:
                if (ts.peek().kind is T.NAME
                        and ts.peek(1).kind is T.EQUALS):
                    var = ts.next().text.lower()
                    ts.next()
                    start = parse_expression(ts)
                    ts.expect(T.COMMA)
                    stop = parse_expression(ts)
                    step = None
                    if ts.accept(T.COMMA) is not None:
                        step = parse_expression(ts)
                    ts.expect(T.RPAREN)
                    return A.ImpliedDo(items=items, var=var, start=start,
                                       stop=stop, step=step)
                items.append(self._io_item(ts))
            raise ts.error("malformed implied-DO in I/O list")
        return parse_expression(ts)

    def _looks_like_implied_do(self, ts: _TokenStream) -> bool:
        """Lookahead: ``( ... , name = ...`` at depth 1 from here."""
        depth = 0
        i = ts.pos
        toks = ts.tokens
        while i < len(toks):
            k = toks[i].kind
            if k is T.LPAREN:
                depth += 1
            elif k is T.RPAREN:
                depth -= 1
                if depth == 0:
                    return False
            elif (k is T.COMMA and depth == 1
                  and toks[i + 1].kind is T.NAME
                  and toks[i + 2].kind is T.EQUALS):
                return True
            elif k is T.END:
                return False
            i += 1
        return False

    def _entity_list(self, ts: _TokenStream) -> list[tuple[str, list[A.Expr]]]:
        entities: list[tuple[str, list[A.Expr]]] = []
        while True:
            name = ts.expect(T.NAME, "entity name").text.lower()
            dims: list[A.Expr] = []
            if ts.accept(T.LPAREN) is not None:
                dims = _parse_argument_list(ts)
                ts.expect(T.RPAREN)
            entities.append((name, dims))
            if ts.accept(T.COMMA) is None:
                break
        return entities

    def _name_list(self, ts: _TokenStream) -> list[str]:
        names = [ts.expect(T.NAME).text.lower()]
        while ts.accept(T.COMMA) is not None:
            names.append(ts.expect(T.NAME).text.lower())
        return names

    def _parse_declaration(self, ts: _TokenStream, type_name: str) -> A.Stmt:
        kind: A.Expr | None = None
        if ts.accept(T.STAR) is not None:
            kind = A.IntLit(int(ts.expect(T.INT, "kind").text))
        # optional attribute list and '::'
        if ts.peek().kind is T.COMMA:
            # e.g. integer, parameter :: — treat attrs as unsupported except
            # by skipping to '::'
            while ts.peek().kind is not T.DOUBLECOLON and not ts.at_end():
                ts.next()
        ts.accept(T.DOUBLECOLON)
        entities = self._entity_list(ts)
        return A.Declaration(type_name=type_name, entities=entities, kind=kind)


# --------------------------------------------------------------------------
# Public entry points
# --------------------------------------------------------------------------


def parse_source(text: str, filename: str = "<input>",
                 form: str | None = None, *,
                 resolve: bool = True) -> A.CompilationUnit:
    """Parse Fortran source text into a resolved compilation unit.

    Args:
        text: full source.
        filename: for diagnostics.
        form: "fixed" / "free" / None (auto).
        resolve: run symbol resolution (Apply -> ArrayRef/FuncCall) and
            directive extraction.  Disable for raw-AST tests.
    """
    from repro.obs import spans as obs

    with obs.span("lex-lines", cat="compile") as sp:
        src = split_source(text, filename, form)
        sp.args["lines"] = len(src.lines)
    with obs.span("parse", cat="compile") as sp:
        parser = Parser(src.lines, filename)
        cu = parser.parse_compilation_unit()
        sp.args["units"] = len(cu.units)
    if resolve:
        from repro.fortran.directives import extract_directives
        from repro.fortran.symbols import resolve_compilation_unit

        with obs.span("resolve", cat="compile"):
            resolve_compilation_unit(cu)
            cu.directives = extract_directives(cu)
    return cu

