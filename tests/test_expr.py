import re
import sys

import pytest

from latkit import evaluate, expr, isomorphic, named, parse, render
from latkit.errors import (ArityError, BadInput, ExprSyntaxError,
                           SizeCapExceeded, UnknownLabel)
from latkit.expr import MAX_DEPTH, Dilation, FileAtom, HSum, NamedAtom, OSum


def test_parse_simple():
    node = parse("hsum(chain(3),chain(4))")
    assert node == HSum((NamedAtom("chain", 3), NamedAtom("chain", 4)))
    assert parse("D(chain(3))") == Dilation(NamedAtom("chain", 3))
    assert parse("  osum( B2 ,chain( 2 ) ) ") == OSum(
        NamedAtom("B2"), NamedAtom("chain", 2))


def test_parse_error_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse("osum(chain(2)")
    assert err.value.position == 14
    with pytest.raises(ExprSyntaxError):
        parse("chain(x)")
    with pytest.raises(ExprSyntaxError):
        parse("frob(2)")
    with pytest.raises(ExprSyntaxError):
        parse('ihsum(N5,"y,"1",B2)')
    # a string token sits at its opening quote
    with pytest.raises(ExprSyntaxError) as err:
        parse('file( "x" "y")')
    assert str(err.value) == "expected ')', found 'y' at offset 11"
    with pytest.raises(ExprSyntaxError) as err:
        parse('osum(B2, "x')
    assert str(err.value) == "unterminated string at offset 10"


def test_parse_arity_errors():
    with pytest.raises(ArityError):
        parse("osum(chain(2))")
    with pytest.raises(ArityError):
        parse("hsum(chain(3))")
    with pytest.raises(ArityError):
        parse("D(chain(3),chain(3))")


def test_render_round_trip():
    # render writes the canonical text; the round trip parse(render(e)) == e
    # over any tree is a property test
    texts = [
        "hsum(chain(3),chain(4))",
        "osum(B2,chain(2))",
        "D(hsum(chain(3),chain(3),chain(3)))",
        'ihsum(N5,"y","1",B2)',
        'file("some/path.json")',
        "div(12)",
        'file("\u00e9\n\\"\\\\")',  # only a quote and a backslash are escaped
    ]
    for text in texts:
        assert render(parse(text)) == text
    assert parse(r'file("a\\b\"c\d")') == FileAtom('a\\b"cd')


def test_evaluate_constructions():
    assert isomorphic(evaluate(parse("hsum(chain(3),chain(3),chain(3))")),
                      named("M3")) is not None
    assert isomorphic(evaluate(parse("hsum(chain(3),osum(B2,chain(2)))")),
                      named("K")) is not None
    assert isomorphic(evaluate(parse("D(chain(3))")), named("M3")) is not None


def test_evaluate_sets_the_expression_as_name():
    lat = evaluate(parse("hsum(chain(3), chain(4))"))
    assert lat.name == "hsum(chain(3),chain(4))"


def test_evaluate_trivial_divisor_lattice():
    lat = evaluate(parse("div(1)"))
    assert lat.trivial


def test_evaluate_ihsum():
    lat = evaluate(parse('ihsum(N5,"y","1",B2)'))
    assert lat.n == 7
    with pytest.raises(UnknownLabel):
        evaluate(parse('ihsum(N5,"w","1",B2)'))


def test_evaluate_file_round_trip(tmp_path):
    target = tmp_path / "pentagon.json"
    target.write_text(named("N5").to_json())
    lat = evaluate(parse(f'file("{target}")'))
    assert lat.labels == named("N5").labels
    assert lat.up == named("N5").up


def test_digits_are_the_ones_int_reads():
    assert parse("chain(\u0663)") == NamedAtom("chain", 3)  # Arabic-Indic 3
    for text in ("chain(\u00b2)", "div(1\u00b9)", "chain(\u2460)"):
        with pytest.raises(ExprSyntaxError, match="unexpected character"):
            parse(text)


def test_the_scanner_classes_are_the_str_predicates():
    # The scanner's \s, \d and \w are the str predicates that the eager
    # tokenizer asks, at every code point.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    for cls, holds in ((r"\s", str.isspace), (r"\d", str.isdecimal),
                       (r"\w", lambda c: c.isalnum() or c == "_")):
        assert re.findall(cls, every) == [c for c in every if holds(c)]


def test_a_nul_in_a_file_path_is_bad_input():
    with pytest.raises(BadInput, match="null byte"):
        evaluate(parse('file("a\x00b.json")'))


def test_nesting_depth_is_limited():
    deepest = "D(" * (MAX_DEPTH - 1) + "B2" + ")" * (MAX_DEPTH - 1)
    assert parse(render(parse(deepest))) == parse(deepest)
    wide = "hsum(" + ",".join(["D(B2)"] * (2 * MAX_DEPTH)) + ")"
    assert len(parse(wide).args) == 2 * MAX_DEPTH
    for depth in (MAX_DEPTH, 3000):
        for text in ("D(" * depth + "B2" + ")" * depth,
                     "osum(" * depth + "B2" + ",B2)" * depth):
            with pytest.raises(ExprSyntaxError, match="nesting deeper"):
                parse(text)


def test_parse_stops_at_the_first_fault_in_reading_order():
    with pytest.raises(ExprSyntaxError) as err:
        parse("D(" * 3000 + "@")
    assert str(err.value) == (f"nesting deeper than {MAX_DEPTH} "
                              f"at offset {2 * MAX_DEPTH + 1}")
    with pytest.raises(ExprSyntaxError) as err:
        parse("B2) @")
    assert str(err.value) == "expected 'eof', found ')' at offset 3"


def test_an_over_long_int_literal_is_a_syntax_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter reads int literals of any length")
    assert parse("chain(" + "9" * limit + ")").arg == int("9" * limit)
    with pytest.raises(ExprSyntaxError) as err:
        parse("chain(" + "9" * (limit + 1) + ")")
    assert str(err.value) == "integer literal too long at offset 7"


def test_a_file_past_the_byte_cap_is_refused_before_it_is_decoded(
        tmp_path, monkeypatch):
    target = tmp_path / "pentagon.json"
    data = named("N5").to_json().encode()
    target.write_bytes(data)
    atom = FileAtom(str(target))
    monkeypatch.setattr(expr, "MAX_FILE_BYTES", len(data))
    assert evaluate(atom).up == named("N5").up
    monkeypatch.setattr(expr, "MAX_FILE_BYTES", len(data) - 1)
    with pytest.raises(SizeCapExceeded, match=f"more than {len(data) - 1} bytes"):
        evaluate(atom)
    target.write_bytes(b"\xff" * len(data))  # neither UTF-8 nor JSON
    with pytest.raises(SizeCapExceeded):
        evaluate(atom)
