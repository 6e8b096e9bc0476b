import random
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dbnet import dsl
from dbnet.datatypes import string_value
from dbnet.multiset import Multiset
from dbnet.scenarios import scenario_text

from generators import random_document


class TestParse:
    def test_ticket_scenario_counts(self):
        doc = dsl.parse(scenario_text("ticket"))
        assert len(doc.schema) == 4
        assert len(doc.constraints) == 1
        assert len(doc.queries) == 2
        assert len(doc.actions) == 4
        assert len(doc.places) == 4
        assert len(doc.transitions) == 4

    def test_empty_file_missing_schema(self):
        with pytest.raises(dsl.DslSyntaxError, match="missing schema section"):
            dsl.parse("")

    def test_unknown_type_has_span(self):
        text = "schema { }\nnet { place mailbox : (string >< intx) }\n"
        doc = dsl.parse(text)  # syntactically fine
        with pytest.raises(dsl.DslValidationError) as err:
            dsl.elaborate(doc)
        diags = err.value.diagnostics
        assert any("unknown type 'intx'" in d.message for d in diags)
        diag = next(d for d in diags if "intx" in d.message)
        assert diag.span.line == 2
        assert text.splitlines()[diag.span.line - 1][diag.span.col - 1 :].startswith("intx")

    def test_unterminated_string(self):
        with pytest.raises(dsl.DslSyntaxError, match="unterminated string"):
            dsl.parse('schema { }\ninit { facts { R("oops) } }')

    def test_duplicate_section(self):
        with pytest.raises(dsl.DslSyntaxError, match="duplicate section"):
            dsl.parse("schema { }\nschema { }")

    def test_reserved_word_as_name(self):
        with pytest.raises(dsl.DslSyntaxError, match="reserved word"):
            dsl.parse("schema { exists(string) }")

    def test_parse_formula_trailing_input(self):
        with pytest.raises(dsl.DslSyntaxError) as err:
            dsl.parse_formula("true true")
        assert str(err.value.diagnostic) == "1:6: error: trailing input after formula"


TICKET_TEXT = scenario_text("ticket")


@given(
    st.integers(0, len(TICKET_TEXT)),
    st.text(string.punctuation + '²½Ⅻ١é\f"\\', min_size=1),
)
def test_parse_fails_only_with_a_syntax_error(offset, inserted):
    try:
        dsl.parse(TICKET_TEXT[:offset] + inserted + TICKET_TEXT[offset:])
    except dsl.DslSyntaxError:
        pass


#: One input per parser message and per duplicate-name error, with the exact
#: diagnostics (message and line:col) that `parse` then `elaborate` report.
GOLDEN_DIAGNOSTICS = [
    # lexer
    ('schema { }\ninit { facts { R("oops) } }', ["2:18: error: unterminated string literal"]),
    ('schema { }\ninit { facts { R("a\\q") } }', ["2:18: error: bad escape in string literal"]),
    ("schema { R(int) }\nconstraints { c: - 1 = 1 }", ["2:18: error: stray '-'"]),
    ("schema { R(int) }\nconstraints { c: 1 = 1 @ }", ["2:24: error: unexpected character '@'"]),
    # sections
    ("", ["1:1: error: missing schema section"]),
    ("schema { }\nnets { }", ["2:1: error: expected a section header"]),
    ("schema { }\nschema { }", ["2:1: error: duplicate section 'schema'"]),
    ("schema R(int)", ["1:8: error: expected '{', found 'R'"]),
    # names and types
    ("schema { exists(string) }", ["1:10: error: 'exists' is a reserved word and cannot name a relation name"]),
    ("schema { 1(int) }", ["1:10: error: expected relation name, found '1'"]),
    ("types { 1 }\nschema { }", ["1:9: error: expected a type name"]),
    ("schema { R(int }", ["1:16: error: expected a type name"]),
    ('schema { R("int") }', ["1:12: error: expected a type name"]),
    ("schema { }\nqueries { Q(x: 1) := true }", ["2:16: error: expected a type name"]),
    ("schema { }\nconstraints { c: exists x: 1 . true }", ["2:28: error: expected a type name"]),
    ("schema { }\nnet { transition t { vars { x: 1 } } }", ["2:32: error: expected a type name"]),
    ("schema { }\nnet { place p : (1) }", ["2:18: error: expected a type name"]),
    ("schema { }\ndomains { 1: [] }", ["2:11: error: expected a type name"]),
    # actions
    ("schema { R(int) }\nactions { act a() { } }", ["2:11: error: expected 'action', found 'act'"]),
    ("schema { R(int) }\nactions { action a() { put { } } }", ["2:24: error: expected 'add' or 'del'"]),
    ("schema { R(int) }\nactions { action a() { del { } del { } } }", ["2:32: error: duplicate 'del' block"]),
    ("schema { R(int) }\nactions { action a() { add { } add { } } }", ["2:32: error: duplicate 'add' block"]),
    # formulas
    ("schema { R(int) }\nconstraints { c: R(,) }", ["2:20: error: expected a variable or a literal"]),
    ("schema { R(int) }\nconstraints { c: x }", ["2:20: error: expected '=' or '<' after a term"]),
    # net
    ("schema { }\nnet { arc a }", ["2:7: error: expected 'place', 'view place', or 'transition'"]),
    ("schema { }\nnet { transition t { 1 } }", ["2:22: error: expected a transition clause"]),
    ("schema { }\nnet { transition t { guard true guard true } }", ["2:33: error: duplicate 'guard' clause"]),
    ("schema { }\nnet { transition t { when true } }", ["2:22: error: unknown transition clause 'when'"]),
    # init, domains, config
    (
        "schema { }\nnet { place p : (int) }\ninit { marking { p: 0 * <1> } }",
        ["3:21: error: multiplicity must be positive"],
    ),
    ("schema { R(int) }\ninit { facts { } facts { } }", ["2:18: error: duplicate 'facts' block"]),
    ("schema { }\ninit { marking { } marking { } }", ["2:20: error: duplicate 'marking' block"]),
    ("schema { }\ninit { tokens { } }", ["2:8: error: expected 'facts' or 'marking'"]),
    ("schema { }\ndomains { int: [x] }", ["2:11: error: input domains hold literals only"]),
    ("schema { }\nconfig { seed: x }", ["2:16: error: expected an integer"]),
    # duplicate names
    ("schema { R(int) R(int) }", ["1:17: error: duplicate relation 'R'"]),
    ("schema { }\nconstraints { c: true c: true }", ["2:23: error: duplicate constraint 'c'"]),
    ("schema { }\nqueries { Q() := true Q() := true }", ["2:23: error: duplicate query 'Q'"]),
    ("schema { R(int) }\nactions { action a() { } action a() { } }", ["2:33: error: duplicate action 'a'"]),
    ("schema { }\nnet { place p : () place p : () }", ["2:26: error: duplicate place 'p'"]),
    ("schema { }\nnet { transition t { } transition t { } }", ["2:35: error: duplicate transition 't'"]),
    # every unresolvable term of an action template is reported
    (
        "schema { R(int, int) }\nactions { action a(x:int) { add { R(y, z) } } }",
        ["2:37: error: undeclared variable 'y'", "2:40: error: undeclared variable 'z'"],
    ),
    # lexer: numerals that `str.isdigit` accepts but `int()` does not
    ("schema { R(int) }\ninit { facts { R(²) } }", ["2:18: error: unexpected character '²'"]),
    ("schema { R(int) }\ninit { facts { R(-²) } }", ["2:18: error: stray '-'"]),
    ("schema { R(real) }\ninit { facts { R(1.²) } }", ["2:20: error: unexpected character '²'"]),
    # lexer: more digits than `int()` converts (a short id in place of the text)
    pytest.param(
        "schema { R(int) }\ninit { facts { R(" + "1" * 5000 + ") } }",
        ["2:18: error: integer literal too long"],
        id="5000-digit-integer",
    ),
    # a fresh variable repeated in one tuple is reported once
    (
        "schema { }\nnet { place p : (int >< int) transition t { fresh { x: int } in { p -> <x, x> } } }",
        ["2:67: error: transition / t / input arc from 'p': fresh variable 'x' not allowed on an input arc"],
    ),
    # init is resolved like arcs and actions: the same messages, at the term
    ("schema { R(int) }\ninit { facts { R(x) } }", ["2:18: error: undeclared variable 'x'"]),
    (
        "schema { }\nnet { place p : (int >< int) }\ninit { marking { p: <1, x> } }",
        ["3:25: error: undeclared variable 'x'"],
    ),
    (
        'types { int }\nschema { }\nnet { place p : (int) }\ninit { marking { p: 2 * <"a"> } }',
        ["4:26: error: literal \"a\" has unselected type 'string'"],
    ),
    (
        'types { int }\nschema { R(int) }\ninit { facts { R("a") } }',
        ["3:18: error: literal \"a\" has unselected type 'string'"],
    ),
    # a place and a transition that share a name: at the transition
    (
        "schema { R(int) } net { place p : (int) transition p { in { p -> <1> } } }",
        ["1:52: error: net / p: place and transition share a name"],
    ),
]


@pytest.mark.parametrize("text,expected", GOLDEN_DIAGNOSTICS)
def test_golden_diagnostics(text, expected):
    try:
        dsl.elaborate(dsl.parse(text))
    except dsl.DslSyntaxError as exc:
        got = [str(exc.diagnostic)]
    except dsl.DslValidationError as exc:
        got = [str(d) for d in exc.diagnostics]
    else:
        got = []
    assert got == expected


class TestNesting:
    """A formula nested deeper than the interpreter's stack is a diagnostic."""

    def test_parse_stops_at_a_token(self):
        deep = ("(" * 3000 + "true" + ")" * 3000, "exists x:int . " * 3000 + "true", "not " * 3000 + "true")
        for formula in deep:
            with pytest.raises(dsl.DslSyntaxError) as err:
                dsl.parse("schema { }\nconstraints { c: " + formula + " }")
            assert err.value.diagnostic.message == "formula nested too deeply"
            assert err.value.diagnostic.span.line == 2
            with pytest.raises(dsl.DslSyntaxError, match="formula nested too deeply"):
                dsl.parse_formula(formula)

    def test_elaborate_reports_a_long_conjunction(self, relay_scenario):
        conjunction = " and ".join(["true"] * 3000)
        doc = dsl.parse("schema { }\nconstraints { c: " + conjunction + " }")
        with pytest.raises(dsl.DslValidationError) as err:
            dsl.elaborate(doc)
        with pytest.raises(dsl.DslValidationError) as goal_err:
            dsl.elaborate_formula(relay_scenario, conjunction)
        for exc in (err.value, goal_err.value):
            assert [str(d) for d in exc.diagnostics] == ["error: formula nested too deeply"]


class TestSerialize:
    def test_round_trip_bundled(self):
        for name in ("ticket", "nu_demo", "relay"):
            doc = dsl.parse(scenario_text(name))
            assert dsl.parse(dsl.serialize(doc)) == doc

    def test_empty_constraints_section_emitted(self):
        doc = dsl.parse("schema { R(int) }")
        assert doc.constraints == ()
        assert "constraints {" in dsl.serialize(doc)

    def test_multiplicity_rendering(self):
        doc = dsl.parse(
            'schema { }\nnet { place p : (string) }\ninit { marking { p: 3 * <"ann"> } }'
        )
        out = dsl.serialize(doc)
        assert '3 * <"ann">' in out

    def test_canonical_formatting_is_stable(self):
        doc = dsl.parse(scenario_text("ticket"))
        once = dsl.serialize(doc)
        assert dsl.serialize(dsl.parse(once)) == once


class TestRandomRoundTrip:
    def test_generated_documents(self):
        rng = random.Random(2718)
        for _ in range(120):
            doc = random_document(rng)
            text = dsl.serialize(doc)
            try:
                again = dsl.parse(text)
            except dsl.DslSyntaxError as exc:  # pragma: no cover - debugging aid
                raise AssertionError(f"serialized document failed to parse: {exc}\n{text}")
            assert again == doc, text


class TestLoadSnapshot:
    def test_ticket_initial_snapshot(self):
        doc = dsl.parse(scenario_text("ticket"))
        snap = dsl.elaborate(doc).initial
        assert snap.marking.tokens("IdleEmps") == Multiset([(string_value("ann"),)])
        assert snap.marking.tokens("staff") == Multiset(
            [(string_value("ann"),), (string_value("bob"),)]
        )

    def test_noncompliant_init_lists_constraint(self):
        text = scenario_text("ticket").replace(
            'Resp("bob", 1)', 'Resp("bob", 1), Resp("bob", 2), Ticket(2, "x")'
        )
        with pytest.raises(dsl.DslValidationError) as err:
            dsl.elaborate(dsl.parse(text))
        assert any("one_ticket_per_employee" in d.message for d in err.value.diagnostics)

    def test_init_cannot_mark_view_places(self):
        text = "schema { Emp(string) }\nqueries { Q(e:string) := Emp(e) }\n" \
               "net { view place v : (string) <- Q }\ninit { marking { v: <\"x\"> } }"
        with pytest.raises(dsl.DslValidationError) as err:
            dsl.elaborate(dsl.parse(text))
        assert any("view place" in d.message for d in err.value.diagnostics)

    def test_empty_marking_and_db_is_valid(self):
        scenario = dsl.elaborate(dsl.parse("schema { }\nnet { place p : (int) }"))
        assert scenario.initial.instance.facts == frozenset()
        assert not scenario.initial.marking.tokens("p")


class TestElaborationDiagnostics:
    def test_guard_with_relation_atom(self):
        text = (
            "schema { R(int) }\n"
            "net { place p : (int)\n"
            "  transition t { vars { x: int } in { p -> <x> } guard R(x) out { p -> <x> } }\n"
            "}"
        )
        with pytest.raises(dsl.DslValidationError) as err:
            dsl.elaborate(dsl.parse(text))
        assert any("relation atom" in d.message for d in err.value.diagnostics)

    def test_guard_with_quantifier(self):
        text = (
            "schema { }\n"
            "net { place p : (int)\n"
            "  transition t { vars { x: int } in { p -> <x> } guard exists y:int . y = x out { p -> <x> } }\n"
            "}"
        )
        with pytest.raises(dsl.DslValidationError) as err:
            dsl.elaborate(dsl.parse(text))
        errors = [d.message for d in err.value.diagnostics if d.severity == "error"]
        # The quantified y is not a free variable, so no unbound-variable error follows.
        assert len(errors) == 1 and "quantifier not allowed here" in errors[0]

    def test_query_params_must_match_free_vars(self):
        text = "schema { R(int) }\nqueries { Q(x:int, y:int) := R(x) }"
        with pytest.raises(dsl.DslValidationError) as err:
            dsl.elaborate(dsl.parse(text))
        assert any("do not match the free" in d.message for d in err.value.diagnostics)

    def test_undeclared_variable_in_arc(self):
        text = (
            "schema { }\n"
            "net { place p : (int)\n  transition t { in { p -> <x> } } }"
        )
        with pytest.raises(dsl.DslValidationError) as err:
            dsl.elaborate(dsl.parse(text))
        assert any("undeclared variable 'x'" in d.message for d in err.value.diagnostics)

    def test_comparison_type_mismatch(self):
        text = 'schema { }\nconstraints { c: 1 = "a" }'
        with pytest.raises(dsl.DslValidationError) as err:
            dsl.elaborate(dsl.parse(text))
        assert any("comparison between" in d.message for d in err.value.diagnostics)

    def test_string_order_unsupported(self):
        text = 'schema { }\nconstraints { c: "a" < "b" }'
        with pytest.raises(dsl.DslValidationError) as err:
            dsl.elaborate(dsl.parse(text))
        assert any("no '<' predicate" in d.message for d in err.value.diagnostics)

    def test_unselected_type_literal(self):
        text = "types { string }\nschema { }\nconstraints { c: 1 = 1 }"
        with pytest.raises(dsl.DslValidationError) as err:
            dsl.elaborate(dsl.parse(text))
        assert any("unselected type" in d.message for d in err.value.diagnostics)

    def test_unknown_config_key(self):
        text = "schema { }\nconfig { turbo: 9 }"
        with pytest.raises(dsl.DslValidationError) as err:
            dsl.elaborate(dsl.parse(text))
        assert any("unknown config key" in d.message for d in err.value.diagnostics)

    def test_domain_value_type_checked(self):
        text = 'schema { }\ndomains { int: ["zz"] }'
        with pytest.raises(dsl.DslValidationError) as err:
            dsl.elaborate(dsl.parse(text))
        assert any("domain is for" in d.message for d in err.value.diagnostics)

    def test_unused_variable_warning(self):
        text = (
            "schema { }\n"
            "net { place p : (int)\n"
            "  transition t { vars { x: int, dead: string } in { p -> <x> } out { p -> <x> } } }"
        )
        scenario = dsl.elaborate(dsl.parse(text))
        assert any("never used" in w.message for w in scenario.warnings)


class TestConfigAndDomains:
    def test_ticket_config(self, ticket_scenario):
        assert ticket_scenario.config == {
            "seed": 42,
            "steps": 10,
            "max_states": 5000,
            "max_depth": 50,
        }

    def test_ticket_domains(self, ticket_scenario):
        assert ticket_scenario.domains == {"string": (string_value("bug"),)}


class TestSugarExpansion:
    def test_or_and_forall_expand(self):
        text = (
            "schema { R(int) }\n"
            "constraints { c: forall x:int . R(x) or not R(x) }"
        )
        scenario = dsl.elaborate(dsl.parse(text))
        from dbnet.query import Exists, Not, And

        q = scenario.net.persistence.constraints[0].query
        assert isinstance(q, Not)  # forall -> not exists not
        assert isinstance(q.body, Exists)
        inner = q.body.body
        assert isinstance(inner, Not)
        assert isinstance(inner.body, Not)  # or -> not(and(not, not))
        assert isinstance(inner.body.body, And)

    def test_implies_expansion(self):
        text = "schema { R(int) }\nconstraints { c: forall x:int . R(x) -> R(x) }"
        scenario = dsl.elaborate(dsl.parse(text))
        from dbnet.query import And, Exists, Not

        q = scenario.net.persistence.constraints[0].query
        body = q.body.body.body  # strip forall encoding
        assert isinstance(body, Not)
        assert isinstance(body.body, And)


class TestGoalFormula:
    def test_elaborate_goal(self, ticket_scenario):
        q = dsl.elaborate_formula(
            ticket_scenario,
            "exists t:int . exists e:string . exists d:string . Log(t, e, d)",
        )
        from dbnet.query import free_vars

        assert free_vars(q) == ()

    def test_goal_with_unknown_relation(self, ticket_scenario):
        with pytest.raises(dsl.DslValidationError):
            dsl.elaborate_formula(ticket_scenario, "exists t:int . Nope(t)")
