"""The `.dbnet` scenario format: lexer, parser, serializer, and elaborator.

A scenario file is one document with named sections (types, schema,
constraints, queries, actions, net, init, domains, config). `parse` builds
a purely syntactic `NetDocument` carrying source spans; `serialize` renders
a document back to canonical text such that parse(serialize(d)) is
structurally equal to d; `elaborate` resolves names and types into engine
objects, collecting span-carrying diagnostics instead of failing fast.

The grammar is documented in docs/dsl.md.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .control import ActionBinding, DbNet, Place, Transition, validate_net
from .datalogic import Action, DataLogicLayer, FactTemplate
from .datatypes import (
    CATALOG,
    EQUALITY_PREDICATES,
    ORDER_PREDICATES,
    TypeDomain,
    Value,
    Variable,
    canon_decimal,
    render_literal,
)
from .errors import DbNetError
from .multiset import Multiset
from .persistence import (
    Constraint,
    DatabaseInstance,
    DatabaseSchema,
    PersistenceLayer,
    RelationSchema,
    check_fact,
)
from .query import (
    And,
    Exists,
    NamedQuery,
    Not,
    PredicateAtom,
    Query,
    RelationAtom,
    Truth,
    compile_formula,
    forall,
    free_vars,
    implies,
    or_,
    validate_query,
)
from .semantics import Snapshot, make_snapshot

CATALOG_TYPES = ("string", "int", "real", "bool")

RESERVED = {
    "types", "schema", "constraints", "queries", "actions", "net", "init",
    "domains", "config", "place", "view", "transition", "vars", "fresh",
    "in", "out", "rollback", "guard", "action", "add", "del", "facts",
    "marking", "exists", "forall", "not", "and", "or", "true", "false",
}

SECTIONS = ("types", "schema", "constraints", "queries", "actions", "net", "init", "domains", "config")

_TOO_DEEP = "formula nested too deeply"


class Span(NamedTuple):
    line: int
    col: int

    def __str__(self) -> str:
        return f"{self.line}:{self.col}"


NO_SPAN = Span(0, 0)


@dataclass(frozen=True)
class Diagnostic:
    severity: str  # "error" | "warning"
    span: Span
    message: str
    clause: str = ""

    def __str__(self) -> str:
        where = f"{self.span}: " if self.span != NO_SPAN else ""
        tag = f" [{self.clause}]" if self.clause else ""
        return f"{where}{self.severity}: {self.message}{tag}"


class DslSyntaxError(DbNetError):
    def __init__(self, diagnostic: Diagnostic):
        super().__init__(str(diagnostic))
        self.diagnostic = diagnostic


class DslValidationError(DbNetError):
    def __init__(self, diagnostics: list[Diagnostic]):
        super().__init__("; ".join(str(d) for d in diagnostics))
        self.diagnostics = diagnostics


# --- document AST (purely syntactic; spans never take part in equality) ------


@dataclass(frozen=True)
class TypeRef:
    name: str
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class VarRef:
    name: str
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class LitTerm:
    value: Value
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class FTrue:
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class FAtom:
    name: str
    args: tuple
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class FCompare:
    op: str  # "=" | "<"
    left: object
    right: object
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class FNot:
    body: object
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class FAnd:
    left: object
    right: object
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class FOr:
    left: object
    right: object
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class FImplies:
    left: object
    right: object
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class ParamDecl:
    name: str
    type_name: str
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class FExists:
    var: ParamDecl
    body: object
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class FForall:
    var: ParamDecl
    body: object
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class RelDecl:
    name: str
    columns: tuple[TypeRef, ...]
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class ConstraintDecl:
    name: str
    body: object
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class QueryDecl:
    name: str
    params: tuple[ParamDecl, ...]
    body: object
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class TemplateAtom:
    relation: str
    args: tuple
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class ActionDecl:
    name: str
    params: tuple[ParamDecl, ...]
    dels: tuple[TemplateAtom, ...]
    adds: tuple[TemplateAtom, ...]
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class PlaceDecl:
    name: str
    kind: str  # "control" | "view"
    color: tuple[TypeRef, ...]
    query_name: Optional[str] = None
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class InscTuple:
    mult: int
    terms: tuple
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class ArcDecl:
    place: str
    tuples: tuple[InscTuple, ...]
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class ActionRef:
    name: str
    args: tuple
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class TransitionDecl:
    name: str
    var_decls: tuple[ParamDecl, ...]
    fresh_decls: tuple[ParamDecl, ...]
    inputs: tuple[ArcDecl, ...]
    outputs: tuple[ArcDecl, ...]
    rollbacks: tuple[ArcDecl, ...]
    guard: object
    action: Optional[ActionRef]
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class DomainDecl:
    type_name: str
    values: tuple[LitTerm, ...]
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class ConfigEntry:
    key: str
    value: int
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass(frozen=True)
class NetDocument:
    types: Optional[tuple[TypeRef, ...]] = None
    schema: tuple[RelDecl, ...] = ()
    constraints: tuple[ConstraintDecl, ...] = ()
    queries: tuple[QueryDecl, ...] = ()
    actions: tuple[ActionDecl, ...] = ()
    places: tuple[PlaceDecl, ...] = ()
    transitions: tuple[TransitionDecl, ...] = ()
    init_facts: tuple[TemplateAtom, ...] = ()
    init_marking: tuple[ArcDecl, ...] = ()
    domains: tuple[DomainDecl, ...] = ()
    config: tuple[ConfigEntry, ...] = ()


# --- lexer --------------------------------------------------------------------


class _Tok(NamedTuple):
    kind: str  # IDENT INT REAL STRING PUNCT EOF
    text: str
    span: Span
    value: object = None


# One alternative per token class, each with the blanks that follow it.
# `\d` is exactly the set of digits `int()` accepts, and `\w` is
# `str.isalnum()` plus `_`.
_TOKEN = re.compile(
    r"""
      [ \t\r]+
    | (?:
        (?P<IDENT>[A-Za-z_]\w*)
      | (?P<PUNCT>->|:=|><|<-(?!\d)|[{}()<>,;:.*=\[\]])
      | (?P<NL>\n)
      | (?P<COMMENT>\#[^\n]*)
      | (?P<STRING>"(?:[^"\\\n]|\\.)*")
      | (?P<REAL>-?\d+\.\d+)
      | (?P<INT>-?\d+)
      | (?P<WORD>\w+)  # an identifier if it starts with a letter, not a numeral like `²`
      | (?P<BAD>.)
      )[ \t\r]*
    """,
    re.VERBOSE,
)
_UNESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t", "r": "\r"}
_BAD = {'"': "unterminated string literal", "-": "stray '-'"}


def _lex_error(line: int, col: int, message: str) -> DslSyntaxError:
    return DslSyntaxError(Diagnostic("error", Span(line, col), message))


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, bol, end = 1, 0, 0  # `bol`: where `line` begins; `end`: where EOF sits
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        end = m.start() if kind == "COMMENT" else m.end()  # a comment adds no column
        if kind is None or kind == "COMMENT":
            continue
        start, stop = m.span(kind)
        if kind == "NL":
            line, bol = line + 1, stop
            continue
        col, lexeme, value = start - bol + 1, m.group(kind), None
        span = Span(line, col)
        if kind == "INT":
            try:
                value = int(lexeme)
            except ValueError:  # more digits than `int()` converts
                raise DslSyntaxError(Diagnostic("error", span, "integer literal too long")) from None
        elif kind == "REAL":
            value = canon_decimal(lexeme)
        elif kind == "STRING":
            try:
                value = re.sub(r"\\(.)", lambda e: _UNESCAPES[e[1]], lexeme[1:-1])
            except KeyError:
                raise _lex_error(line, col, "bad escape in string literal") from None
        elif kind == "WORD" and lexeme[0].isalpha():
            kind = "IDENT"
        elif kind == "WORD" or kind == "BAD":
            raise _lex_error(line, col, _BAD.get(lexeme[0], f"unexpected character {lexeme[0]!r}"))
        toks.append(_Tok(kind, lexeme, span, value))
    toks.append(_Tok("EOF", "", Span(line, end - bol + 1)))
    return toks


# --- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    @property
    def cur(self) -> _Tok:
        return self.toks[self.pos]

    def peek(self, k: int = 1) -> _Tok:
        return self.toks[min(self.pos + k, len(self.toks) - 1)]

    def fail(self, message: str, tok: _Tok | None = None) -> None:
        tok = tok or self.cur
        raise DslSyntaxError(Diagnostic("error", tok.span, message))

    def advance(self) -> _Tok:
        tok = self.cur
        self.pos += 1
        return tok

    def at_punct(self, text: str) -> bool:
        return self.cur.kind == "PUNCT" and self.cur.text == text

    def at_kw(self, word: str) -> bool:
        return self.cur.kind == "IDENT" and self.cur.text == word

    def eat_punct(self, text: str) -> _Tok:
        if not self.at_punct(text):
            self.fail(f"expected {text!r}, found {self.cur.text or self.cur.kind!r}")
        return self.advance()

    def eat_kw(self, word: str) -> _Tok:
        if not self.at_kw(word):
            self.fail(f"expected {word!r}, found {self.cur.text or self.cur.kind!r}")
        return self.advance()

    def eat_name(self, what: str) -> _Tok:
        if self.cur.kind != "IDENT":
            self.fail(f"expected {what}, found {self.cur.text or self.cur.kind!r}")
        if self.cur.text in RESERVED:
            self.fail(f"{self.cur.text!r} is a reserved word and cannot name a {what}")
        return self.advance()

    def eat_type(self) -> _Tok:
        if self.cur.kind != "IDENT":
            self.fail("expected a type name")
        return self.advance()

    def seq(self, close: str, item, sep: str | None = None) -> tuple:
        """Read `item()`s up to the `close` punctuation, each optionally
        followed by `sep`, and consume the `close`."""
        items = []
        while not self.at_punct(close):
            items.append(item())
            if sep is not None and self.at_punct(sep):
                self.advance()
        self.eat_punct(close)
        return tuple(items)

    def clauses(self, readers: dict, noun: str, unknown) -> dict:
        """Read keyword-led clauses up to '}', each at most once; `readers`
        maps a keyword to the reader of what follows it, and `unknown(tok)`
        gives the message for a token that starts no clause."""
        found: dict = {}
        while not self.at_punct("}"):
            tok = self.cur
            if tok.text in found:
                self.fail(f"duplicate {tok.text!r} {noun}", tok)
            if tok.kind != "IDENT" or tok.text not in readers:
                self.fail(unknown(tok), tok)
            self.advance()
            found[tok.text] = readers[tok.text]()
        self.eat_punct("}")
        return found

    def type_ref(self) -> TypeRef:
        tok = self.eat_type()
        return TypeRef(tok.text, tok.span)

    def typed_var(self) -> ParamDecl:
        name = self.eat_name("variable name")
        self.eat_punct(":")
        return ParamDecl(name.text, self.eat_type().text, name.span)

    # -- document --------------------------------------------------------

    def document(self) -> NetDocument:
        sections: dict[str, object] = {}
        while self.cur.kind != "EOF":
            tok = self.cur
            if tok.kind != "IDENT" or tok.text not in SECTIONS:
                self.fail("expected a section header")
            if tok.text in sections:
                self.fail(f"duplicate section {tok.text!r}", tok)
            self.advance()
            self.eat_punct("{")
            sections[tok.text] = getattr(self, f"_sec_{tok.text}")()
        if "schema" not in sections:
            self.fail("missing schema section", self.cur)
        net = sections.get("net", ((), ()))
        init = sections.get("init", {})
        return NetDocument(
            types=sections.get("types"),
            schema=sections["schema"],
            constraints=sections.get("constraints", ()),
            queries=sections.get("queries", ()),
            actions=sections.get("actions", ()),
            places=net[0],
            transitions=net[1],
            init_facts=init.get("facts", ()),
            init_marking=init.get("marking", ()),
            domains=sections.get("domains", ()),
            config=sections.get("config", ()),
        )

    def _sec_types(self):
        return self.seq("}", self.type_ref, ",")

    def _sec_schema(self):
        return self.seq("}", self.rel_decl)

    def rel_decl(self) -> RelDecl:
        name = self.eat_name("relation name")
        self.eat_punct("(")
        return RelDecl(name.text, self.seq(")", self.type_ref, ","), name.span)

    def _sec_constraints(self):
        return self.seq("}", self.constraint_decl)

    def constraint_decl(self) -> ConstraintDecl:
        name = self.eat_name("constraint name")
        self.eat_punct(":")
        return ConstraintDecl(name.text, self.formula(), name.span)

    def _sec_queries(self):
        return self.seq("}", self.query_decl)

    def query_decl(self) -> QueryDecl:
        name = self.eat_name("query name")
        params = self.param_list()
        self.eat_punct(":=")
        return QueryDecl(name.text, params, self.formula(), name.span)

    def param_list(self) -> tuple[ParamDecl, ...]:
        self.eat_punct("(")
        return self.seq(")", self.typed_var, ",")

    def _sec_actions(self):
        return self.seq("}", self.action_decl)

    def action_decl(self) -> ActionDecl:
        self.eat_kw("action")
        name = self.eat_name("action name")
        params = self.param_list()
        self.eat_punct("{")
        blocks = self.clauses(
            {"del": self.template_block, "add": self.template_block},
            "block", lambda tok: "expected 'add' or 'del'",
        )
        return ActionDecl(name.text, params, blocks.get("del", ()), blocks.get("add", ()), name.span)

    def template_block(self) -> tuple[TemplateAtom, ...]:
        self.eat_punct("{")
        return self.seq("}", self.template_atom, ",")

    def template_atom(self) -> TemplateAtom:
        name = self.eat_name("relation name")
        return TemplateAtom(name.text, self.args(), name.span)

    def args(self) -> tuple:
        self.eat_punct("(")
        return self.seq(")", self.term, ",")

    def term(self):
        tok = self.cur
        if tok.kind == "IDENT" and tok.text in ("true", "false"):
            self.advance()
            return LitTerm(Value("bool", tok.text == "true"), tok.span)
        if tok.kind == "IDENT":
            self.eat_name("variable name")
            return VarRef(tok.text, tok.span)
        if tok.kind == "INT":
            self.advance()
            return LitTerm(Value("int", tok.value), tok.span)
        if tok.kind == "REAL":
            self.advance()
            return LitTerm(Value("real", tok.value), tok.span)
        if tok.kind == "STRING":
            self.advance()
            return LitTerm(Value("string", tok.value), tok.span)
        self.fail("expected a variable or a literal")

    # -- formulas ----------------------------------------------------------

    def formula(self):
        left = self.or_expr()
        if self.at_punct("->"):
            tok = self.advance()
            right = self.formula()
            return FImplies(left, right, tok.span)
        return left

    def or_expr(self):
        node = self.and_expr()
        while self.at_kw("or"):
            tok = self.advance()
            node = FOr(node, self.and_expr(), tok.span)
        return node

    def and_expr(self):
        node = self.unary()
        while self.at_kw("and"):
            tok = self.advance()
            node = FAnd(node, self.unary(), tok.span)
        return node

    def unary(self):
        if self.at_kw("not"):
            tok = self.advance()
            return FNot(self.unary(), tok.span)
        if self.at_kw("exists") or self.at_kw("forall"):
            tok = self.advance()
            decl = self.typed_var()
            self.eat_punct(".")
            body = self.formula()
            cls = FExists if tok.text == "exists" else FForall
            return cls(decl, body, tok.span)
        return self.primary()

    def primary(self):
        if self.at_punct("("):
            self.advance()
            node = self.formula()
            self.eat_punct(")")
            return node
        tok = self.cur
        if tok.kind == "IDENT" and tok.text == "true" and not (
            self.peek().kind == "PUNCT" and self.peek().text in ("=", "<")
        ):
            self.advance()
            return FTrue(tok.span)
        if tok.kind == "IDENT" and tok.text not in RESERVED and self.peek().kind == "PUNCT" and self.peek().text == "(":
            name = self.advance()
            return FAtom(name.text, self.args(), name.span)
        left = self.term()
        if self.at_punct("=") or self.at_punct("<"):
            op = self.advance()
            right = self.term()
            return FCompare(op.text, left, right, op.span)
        self.fail("expected '=' or '<' after a term")

    # -- net ---------------------------------------------------------------

    def _sec_net(self):
        decls = self.seq("}", self.net_decl)
        return (
            tuple(d for d in decls if isinstance(d, PlaceDecl)),
            tuple(d for d in decls if isinstance(d, TransitionDecl)),
        )

    def net_decl(self):
        if self.at_kw("place") or self.at_kw("view"):
            return self.place_decl()
        if self.at_kw("transition"):
            return self.transition_decl()
        self.fail("expected 'place', 'view place', or 'transition'")

    def place_decl(self) -> PlaceDecl:
        kind = "control"
        if self.at_kw("view"):
            self.advance()
            kind = "view"
        self.eat_kw("place")
        name = self.eat_name("place name")
        self.eat_punct(":")
        self.eat_punct("(")
        color = self.seq(")", self.type_ref, "><")
        query_name = None
        if self.at_punct("<-"):
            self.advance()
            query_name = self.eat_name("query name").text
        return PlaceDecl(name.text, kind, color, query_name, name.span)

    def transition_decl(self) -> TransitionDecl:
        self.eat_kw("transition")
        name = self.eat_name("transition name")
        self.eat_punct("{")
        c = self.clauses(
            {
                "vars": self.var_block, "fresh": self.var_block,
                "in": self.arc_block, "out": self.arc_block, "rollback": self.arc_block,
                "guard": self.formula, "action": self.action_ref,
            },
            "clause",
            lambda tok: (
                f"unknown transition clause {tok.text!r}" if tok.kind == "IDENT"
                else "expected a transition clause"
            ),
        )
        return TransitionDecl(
            name.text, c.get("vars", ()), c.get("fresh", ()), c.get("in", ()),
            c.get("out", ()), c.get("rollback", ()), c.get("guard", FTrue()),
            c.get("action"), name.span,
        )

    def var_block(self) -> tuple[ParamDecl, ...]:
        self.eat_punct("{")
        return self.seq("}", self.typed_var, ",")

    def action_ref(self) -> ActionRef:
        name = self.eat_name("action name")
        return ActionRef(name.text, self.args(), name.span)

    def arc_block(self) -> tuple[ArcDecl, ...]:
        self.eat_punct("{")
        return self.seq("}", self.arc_decl, ";")

    def arc_decl(self) -> ArcDecl:
        name = self.eat_name("place name")
        self.eat_punct("->")
        return ArcDecl(name.text, self.insc_tuples(), name.span)

    def insc_tuples(self) -> tuple[InscTuple, ...]:
        tuples = [self.insc_tuple()]
        while self.at_punct(","):
            self.advance()
            tuples.append(self.insc_tuple())
        return tuple(tuples)

    def insc_tuple(self) -> InscTuple:
        mult = 1
        start = self.cur
        if self.cur.kind == "INT":
            mult = self.advance().value
            if mult < 1:
                self.fail("multiplicity must be positive", start)
            self.eat_punct("*")
        self.eat_punct("<")
        return InscTuple(mult, self.seq(">", self.term, ","), start.span)

    # -- init / domains / config -------------------------------------------

    def _sec_init(self):
        return self.clauses(
            {"facts": self.template_block, "marking": self.marking_block},
            "block", lambda tok: "expected 'facts' or 'marking'",
        )

    def marking_block(self) -> tuple[ArcDecl, ...]:
        self.eat_punct("{")
        return self.seq("}", self.marking_entry, ";")

    def marking_entry(self) -> ArcDecl:
        name = self.eat_name("place name")
        self.eat_punct(":")
        return ArcDecl(name.text, self.insc_tuples(), name.span)

    def _sec_domains(self):
        return self.seq("}", self.domain_decl)

    def domain_decl(self) -> DomainDecl:
        tok = self.eat_type()
        self.eat_punct(":")
        self.eat_punct("[")

        def literal():
            term = self.term()
            if isinstance(term, VarRef):
                self.fail("input domains hold literals only", tok)
            return term

        return DomainDecl(tok.text, self.seq("]", literal, ","), tok.span)

    def _sec_config(self):
        return self.seq("}", self.config_entry)

    def config_entry(self) -> ConfigEntry:
        key = self.eat_name("config key")
        self.eat_punct(":")
        tok = self.cur
        if tok.kind != "INT":
            self.fail("expected an integer")
        self.advance()
        return ConfigEntry(key.text, tok.value, key.span)


def parse(text: str) -> NetDocument:
    """Parse a scenario document; raises DslSyntaxError on the first error."""
    parser = _Parser(_lex(text))
    try:
        return parser.document()
    except RecursionError:  # a formula nested deeper than the stack allows
        parser.fail(_TOO_DEEP)


def parse_formula(text: str) -> object:
    """Parse a standalone formula (used for goal queries)."""
    parser = _Parser(_lex(text))
    try:
        node = parser.formula()
    except RecursionError:
        parser.fail(_TOO_DEEP)
    if parser.cur.kind != "EOF":
        parser.fail("trailing input after formula")
    return node


# --- serializer ---------------------------------------------------------------

_LEVEL_IMPLIES = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_UNARY = 4


def _render_term(term) -> str:
    if isinstance(term, VarRef):
        return term.name
    return render_literal(term.value)


def _render_formula(node, min_level: int = 1) -> str:
    def wrap(text: str, level: int) -> str:
        return f"({text})" if level < min_level else text

    if isinstance(node, FTrue):
        return "true"
    if isinstance(node, FAtom):
        return f"{node.name}({', '.join(_render_term(a) for a in node.args)})"
    if isinstance(node, FCompare):
        return f"{_render_term(node.left)} {node.op} {_render_term(node.right)}"
    if isinstance(node, FNot):
        return wrap(f"not {_render_formula(node.body, _LEVEL_UNARY)}", _LEVEL_UNARY)
    if isinstance(node, FAnd):
        text = (
            f"{_render_formula(node.left, _LEVEL_AND)} and "
            f"{_render_formula(node.right, _LEVEL_AND + 1)}"
        )
        return wrap(text, _LEVEL_AND)
    if isinstance(node, FOr):
        text = (
            f"{_render_formula(node.left, _LEVEL_OR)} or "
            f"{_render_formula(node.right, _LEVEL_OR + 1)}"
        )
        return wrap(text, _LEVEL_OR)
    if isinstance(node, FImplies):
        text = (
            f"{_render_formula(node.left, _LEVEL_IMPLIES + 1)} -> "
            f"{_render_formula(node.right, _LEVEL_IMPLIES)}"
        )
        return wrap(text, _LEVEL_IMPLIES)
    if isinstance(node, (FExists, FForall)):
        # A quantifier's body extends maximally to the right, so it needs
        # parentheses anywhere except a full-formula (tail) position.
        word = "exists" if isinstance(node, FExists) else "forall"
        text = f"{word} {node.var.name}:{node.var.type_name} . {_render_formula(node.body, 1)}"
        return wrap(text, 1)
    raise DbNetError(f"cannot serialize formula node {node!r}")


def _render_params(params: tuple[ParamDecl, ...]) -> str:
    return ", ".join(f"{p.name}:{p.type_name}" for p in params)


def _render_template(atom: TemplateAtom) -> str:
    return f"{atom.relation}({', '.join(_render_term(a) for a in atom.args)})"


def _render_insc_tuple(tup: InscTuple) -> str:
    body = "<" + ", ".join(_render_term(t) for t in tup.terms) + ">"
    return f"{tup.mult} * {body}" if tup.mult > 1 else body


def _render_arcs(label: str, arcs: tuple[ArcDecl, ...], indent: str) -> list[str]:
    if not arcs:
        return []
    parts = [
        f"{arc.place} -> " + ", ".join(_render_insc_tuple(t) for t in arc.tuples)
        for arc in arcs
    ]
    return [f"{indent}{label} {{ " + " ; ".join(parts) + " }"]


def serialize(doc: NetDocument) -> str:
    """Render a document in canonical formatting."""
    out: list[str] = []

    if doc.types is not None:
        out.append("types { " + ", ".join(t.name for t in doc.types) + " }")
        out.append("")

    if doc.schema:
        out.append("schema {")
        for rel in doc.schema:
            out.append(f"  {rel.name}(" + ", ".join(c.name for c in rel.columns) + ")")
        out.append("}")
    else:
        out.append("schema { }")
    out.append("")

    out.append("constraints {")
    for c in doc.constraints:
        out.append(f"  {c.name}:")
        out.append(f"    {_render_formula(c.body)}")
    out.append("}")
    out.append("")

    if doc.queries:
        out.append("queries {")
        for q in doc.queries:
            out.append(f"  {q.name}({_render_params(q.params)}) := {_render_formula(q.body)}")
        out.append("}")
        out.append("")

    if doc.actions:
        out.append("actions {")
        for a in doc.actions:
            dels = ", ".join(_render_template(t) for t in a.dels)
            adds = ", ".join(_render_template(t) for t in a.adds)
            out.append(
                f"  action {a.name}({_render_params(a.params)}) "
                f"{{ del {{ {dels} }} add {{ {adds} }} }}"
            )
        out.append("}")
        out.append("")

    if doc.places or doc.transitions:
        out.append("net {")
        for p in doc.places:
            color = " >< ".join(c.name for c in p.color)
            head = "view place" if p.kind == "view" else "place"
            line = f"  {head} {p.name} : ({color})"
            if p.query_name is not None:
                line += f" <- {p.query_name}"
            out.append(line)
        for t in doc.transitions:
            out.append("")
            out.append(f"  transition {t.name} {{")
            if t.var_decls:
                out.append(f"    vars {{ {_render_params(t.var_decls)} }}")
            if t.fresh_decls:
                out.append(f"    fresh {{ {_render_params(t.fresh_decls)} }}")
            out.extend(_render_arcs("in", t.inputs, "    "))
            if not isinstance(t.guard, FTrue):
                out.append(f"    guard {_render_formula(t.guard)}")
            if t.action is not None:
                args = ", ".join(_render_term(a) for a in t.action.args)
                out.append(f"    action {t.action.name}({args})")
            out.extend(_render_arcs("out", t.outputs, "    "))
            out.extend(_render_arcs("rollback", t.rollbacks, "    "))
            out.append("  }")
        out.append("}")
        out.append("")

    if doc.init_facts or doc.init_marking:
        out.append("init {")
        if doc.init_facts:
            out.append("  facts {")
            for fact in doc.init_facts:
                out.append(f"    {_render_template(fact)}")
            out.append("  }")
        if doc.init_marking:
            out.append("  marking {")
            for entry in doc.init_marking:
                tokens = ", ".join(_render_insc_tuple(t) for t in entry.tuples)
                out.append(f"    {entry.place}: {tokens}")
            out.append("  }")
        out.append("}")
        out.append("")

    if doc.domains:
        out.append("domains {")
        for d in doc.domains:
            values = ", ".join(_render_term(v) for v in d.values)
            out.append(f"  {d.type_name}: [{values}]")
        out.append("}")
        out.append("")

    if doc.config:
        out.append("config {")
        for entry in doc.config:
            out.append(f"  {entry.key}: {entry.value}")
        out.append("}")
        out.append("")

    return "\n".join(out).rstrip("\n") + "\n"


# --- elaboration --------------------------------------------------------------


CONFIG_KEYS = {"seed", "steps", "max_states", "max_depth"}


@dataclass
class Scenario:
    """A fully resolved scenario: net, initial snapshot, and run defaults."""

    document: NetDocument
    net: DbNet
    initial: Snapshot
    domains: dict[str, tuple[Value, ...]]
    config: dict[str, int]
    warnings: list[Diagnostic]


def _ident_predicates(types: TypeDomain) -> set[str]:
    """Identifier-shaped predicate names (e.g. succ) of the selected types."""
    return {name for dt in types.types.values() for name in dt.predicates if name.isidentifier()}


class _Elaborator:
    def __init__(self, doc: NetDocument):
        self.doc = doc
        self.errors: list[Diagnostic] = []
        self.warnings: list[Diagnostic] = []
        self.types: TypeDomain = CATALOG
        self.relations: dict[str, RelDecl] = {}
        self.span_index: dict[tuple, Span] = {}

    def error(self, span: Span, message: str, clause: str = "") -> None:
        self.errors.append(Diagnostic("error", span, message, clause))

    def _declared(self, decls, section: str, noun: str):
        """Yield the declarations whose name is new, after recording each
        one's span under `(section, name)`; report every repeat."""
        names = set()
        for decl in decls:
            self.span_index[(section, decl.name)] = decl.span
            if decl.name in names:
                self.error(decl.span, f"duplicate {noun} {decl.name!r}")
                continue
            names.add(decl.name)
            yield decl

    def run(self) -> Scenario:
        doc = self.doc
        self._types()
        self.ident_predicates = _ident_predicates(self.types)
        schema = self._schema()
        constraints = self._constraints()
        queries = self._queries()
        actions = self._actions()
        places = self._places()
        transitions = self._transitions()
        domains = self._domains()
        config = self._config()

        if self.errors:
            raise DslValidationError(self.errors)

        try:
            persistence = PersistenceLayer(schema, constraints, self.types)
            logic = DataLogicLayer(queries, actions)
            net = DbNet(self.types, persistence, logic, places, transitions)
        except DbNetError as exc:
            raise DslValidationError(
                [Diagnostic("error", NO_SPAN, str(exc))]
            ) from None

        for diag in validate_net_with_spans(net, self.span_index):
            if diag.severity == "error":
                self.errors.append(diag)
            else:
                self.warnings.append(diag)
        if self.errors:
            raise DslValidationError(self.errors)

        initial = self._initial(net)
        return Scenario(doc, net, initial, domains, config, self.warnings)

    # -- sections ----------------------------------------------------------

    def _types(self) -> None:
        if self.doc.types is None:
            return
        selected: list[str] = []
        for ref in self.doc.types:
            if ref.name not in CATALOG_TYPES:
                self.error(ref.span, f"unknown type {ref.name!r} (catalog: {', '.join(CATALOG_TYPES)})")
            elif ref.name in selected:
                self.error(ref.span, f"type {ref.name!r} selected twice")
            else:
                selected.append(ref.name)
        if not self.errors:
            self.types = TypeDomain([CATALOG.type(n) for n in selected])

    def _check_type(self, ref: TypeRef) -> bool:
        if ref.name not in self.types:
            self.error(ref.span, f"unknown type {ref.name!r}")
            return False
        return True

    def _schema(self) -> DatabaseSchema:
        rels = []
        for rel in self._declared(self.doc.schema, "schema", "relation"):
            self.relations[rel.name] = rel
            if not rel.columns:
                self.error(rel.span, f"relation {rel.name!r} must have arity >= 1")
                continue
            ok = all(self._check_type(c) for c in rel.columns)
            if ok:
                rels.append(RelationSchema(rel.name, tuple(c.name for c in rel.columns)))
        return DatabaseSchema(rels)

    # -- formulas ----------------------------------------------------------

    def _term(self, term, scope: dict[str, Variable]):
        if isinstance(term, VarRef):
            var = scope.get(term.name)
            if var is None:
                self.error(term.span, f"undeclared variable {term.name!r}")
                return None
            return var
        if term.value.type_name not in self.types:
            self.error(term.span, f"literal {_render_term(term)} has unselected type {term.value.type_name!r}")
            return None
        return term.value

    def _terms(self, terms, scope: dict[str, Variable]) -> Optional[tuple]:
        """Resolve every term, reporting each one that fails; None if any did."""
        resolved = tuple(self._term(t, scope) for t in terms)
        return None if any(r is None for r in resolved) else resolved

    def _formula(self, node, scope: dict[str, Variable]) -> Query:
        if isinstance(node, FTrue):
            return Truth()
        if isinstance(node, FAtom):
            args = self._terms(node.args, scope)
            if args is None:
                return Truth()
            if node.name in self.relations:
                return RelationAtom(node.name, args)
            if node.name in self.ident_predicates:
                return PredicateAtom(node.name, args)
            self.error(node.span, f"unknown relation {node.name!r}")
            return Truth()
        if isinstance(node, FCompare):
            left = self._term(node.left, scope)
            right = self._term(node.right, scope)
            if left is None or right is None:
                return Truth()
            lt, rt = left.type_name, right.type_name
            if lt != rt:
                self.error(node.span, f"comparison between {lt!r} and {rt!r} values")
                return Truth()
            if node.op == "=":
                pred = EQUALITY_PREDICATES.get(lt)
            else:
                pred = ORDER_PREDICATES.get(lt)
            if pred is None:
                self.error(node.span, f"type {lt!r} has no {node.op!r} predicate")
                return Truth()
            return PredicateAtom(pred, (left, right))
        if isinstance(node, FNot):
            return Not(self._formula(node.body, scope))
        if isinstance(node, FAnd):
            return And(self._formula(node.left, scope), self._formula(node.right, scope))
        if isinstance(node, FOr):
            return or_(self._formula(node.left, scope), self._formula(node.right, scope))
        if isinstance(node, FImplies):
            return implies(self._formula(node.left, scope), self._formula(node.right, scope))
        if isinstance(node, (FExists, FForall)):
            decl = node.var
            if decl.type_name not in self.types:
                self.error(decl.span, f"unknown type {decl.type_name!r}")
                return Truth()
            var = Variable(decl.name, decl.type_name)
            inner = dict(scope)
            inner[decl.name] = var
            body = self._formula(node.body, inner)
            return Exists(var, body) if isinstance(node, FExists) else forall(var, body)
        raise DbNetError(f"unknown formula node {node!r}")

    def _params(self, params: tuple[ParamDecl, ...], where: str, *, fresh: bool = False) -> dict[str, Variable]:
        scope: dict[str, Variable] = {}
        for p in params:
            if p.name in scope:
                self.error(p.span, f"duplicate variable {p.name!r} in {where}")
                continue
            if p.type_name not in self.types:
                self.error(p.span, f"unknown type {p.type_name!r}")
                continue
            scope[p.name] = Variable(p.name, p.type_name, fresh)
        return scope

    def _constraints(self) -> list[Constraint]:
        out = []
        for c in self._declared(self.doc.constraints, "constraints", "constraint"):
            body = self._formula(c.body, {})
            if free_vars(body):
                self.error(c.span, f"constraint {c.name!r} has free variables")
                continue
            out.append(Constraint(c.name, body))
        return out

    def _queries(self) -> list[NamedQuery]:
        out = []
        for q in self._declared(self.doc.queries, "queries", "query"):
            scope = self._params(q.params, f"query {q.name!r}")
            if len(scope) != len(q.params):
                continue
            body = self._formula(q.body, scope)
            params = tuple(scope[p.name] for p in q.params)
            if set(params) != set(free_vars(body)):
                self.error(
                    q.span,
                    f"query {q.name!r}: declared parameters do not match the free "
                    f"variables of the body",
                    clause="free-variable ordering",
                )
                continue
            out.append(NamedQuery(q.name, params, body, self.types))
        return out

    def _template(self, atom: TemplateAtom, scope: dict[str, Variable]):
        args = self._terms(atom.args, scope)
        return None if args is None else FactTemplate(atom.relation, args)

    def _actions(self) -> list[Action]:
        out = []
        for a in self._declared(self.doc.actions, "actions", "action"):
            scope = self._params(a.params, f"action {a.name!r}")
            if len(scope) != len(a.params):
                continue
            dels = [self._template(t, scope) for t in a.dels]
            adds = [self._template(t, scope) for t in a.adds]
            if any(t is None for t in dels + adds):
                continue
            out.append(
                Action(
                    a.name,
                    tuple(scope[p.name] for p in a.params),
                    tuple(dict.fromkeys(adds)),
                    tuple(dict.fromkeys(dels)),
                )
            )
        return out

    def _places(self) -> list[Place]:
        out = []
        for p in self._declared(self.doc.places, "place", "place"):
            for c in p.color:
                self._check_type(c)
            if p.kind == "view" and p.query_name is None:
                self.error(p.span, f"view place {p.name!r} needs '<- <query>'")
            out.append(
                Place(p.name, p.kind, tuple(c.name for c in p.color), p.query_name)
            )
        return out

    def _inscription(self, arcs: tuple[ArcDecl, ...], scope) -> dict[str, Multiset]:
        """One multiset per place of `arcs`; a place named twice gets the sum."""
        counts: dict[str, dict[tuple, int]] = {}
        for arc in arcs:
            place = counts.setdefault(arc.place, {})
            for tup in arc.tuples:
                key = self._terms(tup.terms, scope)
                if key is not None:
                    place[key] = place.get(key, 0) + tup.mult
        return {name: Multiset.from_counts(c) for name, c in counts.items()}

    def _transitions(self) -> list[Transition]:
        out = []
        for t in self._declared(self.doc.transitions, "transition", "transition"):
            base = ("transition", t.name)
            self.span_index[("net", t.name)] = t.span  # where a place and a transition share a name
            normal = self._params(t.var_decls, f"transition {t.name!r} vars")
            fresh = self._params(t.fresh_decls, f"transition {t.name!r} fresh", fresh=True)
            clash = set(normal) & set(fresh)
            for name in sorted(clash):
                self.error(t.span, f"variable {name!r} declared both normal and fresh")
            scope = {**normal, **fresh}

            inputs = self._inscription(t.inputs, scope)
            outputs = self._inscription(t.outputs, scope)
            rollbacks = self._inscription(t.rollbacks, scope)
            for label, arcs in (("input arc from", t.inputs), ("output arc to", t.outputs), ("rollback arc to", t.rollbacks)):
                for arc in arcs:
                    self.span_index[base + (f"{label} {arc.place!r}",)] = arc.span
            if t.rollbacks:
                self.span_index[base + ("rollback arcs",)] = t.rollbacks[0].span

            guard = self._formula(t.guard, scope)
            guard_span = getattr(t.guard, "span", t.span)
            self.span_index[base + ("guard",)] = guard_span if guard_span != NO_SPAN else t.span

            action = None
            if t.action is not None:
                self.span_index[base + (f"action {t.action.name!r}",)] = t.action.span
                args = self._terms(t.action.args, scope)
                if args is not None:
                    action = ActionBinding(t.action.name, args)

            transition = Transition(t.name, inputs, outputs, rollbacks, guard, action)
            used = {v.name for v in (*transition.variables(), *free_vars(guard))}
            for name in sorted(set(scope) - used):
                self.warnings.append(
                    Diagnostic("warning", t.span, f"variable {name!r} is declared but never used")
                )
            out.append(transition)
        return out

    def _initial(self, net: DbNet) -> Snapshot:
        facts = []
        for atom in self.doc.init_facts:
            template = self._template(atom, {})
            if template is None:
                continue
            try:
                facts.append(check_fact(net.persistence.schema, net.types, template.ground({})))
            except DbNetError as exc:
                self.error(atom.span, str(exc))
        control_tokens = self._inscription(self.doc.init_marking, {})

        if self.errors:
            raise DslValidationError(self.errors)

        try:
            return make_snapshot(net, DatabaseInstance(facts), control_tokens)
        except DbNetError as exc:
            span = self.doc.init_marking[0].span if self.doc.init_marking else (
                self.doc.init_facts[0].span if self.doc.init_facts else NO_SPAN
            )
            self.error(span, str(exc), clause="initial snapshot")
            raise DslValidationError(self.errors) from None

    def _domains(self) -> dict[str, tuple[Value, ...]]:
        out: dict[str, tuple[Value, ...]] = {}
        for d in self.doc.domains:
            if d.type_name not in self.types:
                self.error(d.span, f"unknown type {d.type_name!r}")
                continue
            if d.type_name in out:
                self.error(d.span, f"duplicate domain for type {d.type_name!r}")
                continue
            values = []
            for lit in d.values:
                if lit.value.type_name != d.type_name:
                    self.error(
                        lit.span,
                        f"domain value {_render_term(lit)} is {lit.value.type_name!r}, "
                        f"domain is for {d.type_name!r}",
                    )
                    continue
                values.append(lit.value)
            out[d.type_name] = tuple(values)
        return out

    def _config(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for entry in self.doc.config:
            if entry.key not in CONFIG_KEYS:
                self.error(entry.span, f"unknown config key {entry.key!r} (known: {', '.join(sorted(CONFIG_KEYS))})")
                continue
            if entry.key in out:
                self.error(entry.span, f"duplicate config key {entry.key!r}")
                continue
            if entry.value < 0:
                self.error(entry.span, f"config {entry.key!r} must be non-negative")
                continue
            out[entry.key] = entry.value
        return out


def validate_net_with_spans(net: DbNet, span_index: dict[tuple, Span]) -> list[Diagnostic]:
    """Run structural net validation and attach the best-known source spans."""

    def span_for(path: tuple[str, ...]) -> Span:
        for cut in range(len(path), 0, -1):
            hit = span_index.get(tuple(path[:cut]))
            if hit is not None:
                return hit
        return NO_SPAN

    return [
        Diagnostic(d.severity, span_for(d.path), f"{' / '.join(d.path)}: {d.message}")
        for d in validate_net(net)
    ]


def elaborate(doc: NetDocument) -> Scenario:
    """Resolve a document into a DbNet plus initial snapshot and run config.

    Raises DslValidationError carrying every collected diagnostic; warnings
    are available on the returned Scenario.
    """
    try:
        return _Elaborator(doc).run()
    except RecursionError:
        raise DslValidationError([Diagnostic("error", NO_SPAN, _TOO_DEEP)]) from None


def elaborate_formula(scenario: Scenario, text: str) -> Query:
    """Parse and resolve a standalone formula against an elaborated scenario
    (used for reachability goals given on the command line)."""
    node = parse_formula(text)
    ela = _Elaborator(scenario.document)
    ela.types = scenario.net.types
    ela.ident_predicates = _ident_predicates(ela.types)
    ela.relations = {r.name: r for r in scenario.document.schema}
    try:
        q = ela._formula(node, {})
        if ela.errors:
            raise DslValidationError(ela.errors)
        problems = validate_query(q, scenario.net.persistence.schema, scenario.net.types)
        if problems:
            raise DslValidationError([Diagnostic("error", NO_SPAN, p) for p in problems])
        compile_formula(q, scenario.net.types)  # cached for `entails`; too deep a plan fails here
    except RecursionError:
        raise DslValidationError([Diagnostic("error", NO_SPAN, _TOO_DEEP)]) from None
    return q
