"""Recursive-descent parser for the embedded SPARQL subset.

Grammar (keywords case-insensitive, ``WHERE`` optional as in SPARQL)::

    query        := select_query | ask_query
    select_query := SELECT DISTINCT? projection WHERE? group
    ask_query    := ASK WHERE? group
    projection   := '*' | VAR+
    group        := '{' triple (DOT triple?)* '}'
    triple       := term term term
    term         := VAR | IRI | PNAME | STRING

Full IRIs are shortened through the prefix table of
:mod:`repro.graph.rdf` so that constants match the prefixed-name spelling
used by the graph and the generators (e.g. ``<http://...#Course>`` and
``ub:Course`` parse to the same constant).
"""

from __future__ import annotations

from repro.exceptions import SparqlSyntaxError
from repro.graph.rdf import shorten
from repro.sparql.ast import AskQuery, Query, SelectQuery, Term, TriplePattern, Var
from repro.sparql.lexer import Token, tokenize

__all__ = ["MAX_TRIPLE_PATTERNS", "parse_query", "parse_select"]

#: The most triple patterns one group may hold.  The evaluator's
#: backtracking join (:mod:`repro.sparql.evaluator`) recurses once per
#: pattern, so a group near Python's recursion limit (about 1000 frames)
#: would fail mid-evaluation; a longer one is refused here, as a syntax
#: error — a 400 naming the constraint at the service's doors.  The
#: constraints of the paper's workloads hold a handful of patterns.
MAX_TRIPLE_PATTERNS = 256


def parse_query(text: str) -> Query:
    """Parse a SELECT or ASK query."""
    return _Parser(text).parse_query()


def parse_select(text: str) -> SelectQuery:
    """Parse a query that must be a SELECT (constraints are SELECTs)."""
    query = parse_query(text)
    if not isinstance(query, SelectQuery):
        raise SparqlSyntaxError("expected a SELECT query")
    return query


class _Parser:
    def __init__(self, text: str) -> None:
        self._tokens: list[Token] = tokenize(text)
        self._index = 0

    # ------------------------------------------------------------------
    # token plumbing
    # ------------------------------------------------------------------

    def _peek(self) -> Token:
        return self._tokens[self._index]

    def _advance(self) -> Token:
        token = self._tokens[self._index]
        if token.kind != "EOF":
            self._index += 1
        return token

    def _expect(self, kind: str, value: str | None = None) -> Token:
        token = self._peek()
        if token.kind != kind or (value is not None and token.value != value):
            wanted = value or kind
            raise SparqlSyntaxError(
                f"expected {wanted}, found {token.value or token.kind!r}",
                token.position,
            )
        return self._advance()

    def _accept(self, kind: str, value: str | None = None) -> Token | None:
        token = self._peek()
        if token.kind == kind and (value is None or token.value == value):
            return self._advance()
        return None

    # ------------------------------------------------------------------
    # grammar
    # ------------------------------------------------------------------

    def parse_query(self) -> Query:
        token = self._peek()
        if token.kind != "KEYWORD":
            raise SparqlSyntaxError(
                f"query must start with SELECT or ASK, found {token.value!r}",
                token.position,
            )
        if token.value == "SELECT":
            return self._parse_select()
        if token.value == "ASK":
            return self._parse_ask()
        raise SparqlSyntaxError(
            f"query must start with SELECT or ASK, found {token.value}",
            token.position,
        )

    def _parse_select(self) -> SelectQuery:
        self._expect("KEYWORD", "SELECT")
        distinct = self._accept("KEYWORD", "DISTINCT") is not None
        projection: list[Var] = []
        if self._accept("STAR") is None:
            while True:
                token = self._accept("VAR")
                if token is None:
                    break
                projection.append(Var(token.value))
            if not projection:
                token = self._peek()
                raise SparqlSyntaxError(
                    "SELECT needs at least one variable or '*'", token.position
                )
        self._accept("KEYWORD", "WHERE")
        patterns = self._parse_group()
        self._expect("EOF")
        query = SelectQuery(
            projection=tuple(projection), patterns=patterns, distinct=distinct
        )
        pattern_vars = set(query.variables())
        missing = [v for v in query.projection if v not in pattern_vars]
        if missing:
            raise SparqlSyntaxError(
                "projected variable(s) not used in the pattern: "
                + ", ".join(str(v) for v in missing)
            )
        return query

    def _parse_ask(self) -> AskQuery:
        self._expect("KEYWORD", "ASK")
        self._accept("KEYWORD", "WHERE")
        patterns = self._parse_group()
        self._expect("EOF")
        return AskQuery(patterns=patterns)

    def _parse_group(self) -> tuple[TriplePattern, ...]:
        self._expect("LBRACE")
        patterns: list[TriplePattern] = []
        while self._peek().kind not in ("RBRACE", "EOF"):
            subject = self._parse_term()
            predicate = self._parse_term()
            obj = self._parse_term()
            patterns.append(TriplePattern(subject, predicate, obj))
            if len(patterns) > MAX_TRIPLE_PATTERNS:
                raise SparqlSyntaxError(
                    "too many triple patterns: a constraint may hold at most "
                    f"{MAX_TRIPLE_PATTERNS}",
                    self._peek().position,
                )
            if self._accept("DOT") is None:
                break  # final triple may omit the dot
        self._expect("RBRACE")
        if not patterns:
            raise SparqlSyntaxError("empty graph pattern")
        return tuple(patterns)

    def _parse_term(self) -> Term:
        token = self._peek()
        if token.kind == "VAR":
            self._advance()
            return Var(token.value)
        if token.kind == "IRI":
            self._advance()
            return shorten(token.value)
        if token.kind in ("PNAME", "STRING"):
            self._advance()
            return token.value
        raise SparqlSyntaxError(
            f"expected a term, found {token.value or token.kind!r}", token.position
        )
