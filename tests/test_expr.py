import pytest

from latkit import evaluate, isomorphic, named, parse, render
from latkit.errors import ArityError, BadInput, ExprSyntaxError, UnknownLabel
from latkit.expr import MAX_DEPTH, Dilation, HSum, NamedAtom, OSum


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


def test_parse_arity_errors():
    with pytest.raises(ArityError):
        parse("osum(chain(2))")
    with pytest.raises(ArityError):
        parse("hsum(chain(3))")
    with pytest.raises(ArityError):
        parse("D(chain(3),chain(3))")


def test_render_round_trip():
    texts = [
        "hsum(chain(3),chain(4))",
        "osum(B2,chain(2))",
        "D(hsum(chain(3),chain(3),chain(3)))",
        'ihsum(N5,"y","1",B2)',
        'file("some/path.json")',
        "div(12)",
    ]
    for text in texts:
        node = parse(text)
        assert render(node) == text
        assert parse(render(node)) == node


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
