import argparse
import hashlib
import json
import sys
import time

import pytest

from latkit import Lattice, cli, expr, named, verify
from latkit.cli import build_parser, main
from latkit.verify import SUITES


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_pentagon(capsys):
    code, out, _ = run_cli(capsys, "analyze", "N5")
    assert code == 0
    assert "|L|=5" in out
    assert "|Con|=5" in out
    assert "|Filt|=5" in out
    assert "|Id|=5" in out
    assert "{x,1}" in out and "{y,z,1}" in out
    assert out.splitlines()[-4:] == [
        "|Con01|=2", "simple=false", "subdirectly_irreducible=true",
        "monolith: {0}{x}{y,z}{1}"]


def test_analyze_respects_con_cap(capsys):
    # the 60-element cap binds only listings, and analyze lists nothing
    code, out, _ = run_cli(capsys, "analyze", "chain(61)")
    assert code == 0
    lines = out.splitlines()
    assert "|Con|=1152921504606846976" in lines
    assert "|Con01|=288230376151711744" in lines


def test_a_listing_of_two_to_the_sixteen_congruences_is_unchanged(capsys):
    # keyed and rendered lane-wise, a chunk of members at a time; the
    # digest is that of the member-at-a-time listing it replaced
    code, out, err = run_cli(capsys, "congruences", "osum(chain(7),chain(11))")
    assert code == 0 and err == ""
    assert out.count("\n") == 65537
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "67b55507fc2c9c92be33f971384a029530cd050481e7d306b7b3cf79cb90ab8d"


def test_congruences_listing(capsys):
    code, out, _ = run_cli(capsys, "congruences", "K")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "|Con|=3"
    assert lines[1:] == [
        "{0}{m}{n}{p}{q}{1}", "{0,n,p,q}{m,1}", "{0,m,n,p,q,1}",
    ]


def test_congruences_cap_exit_code(capsys):
    code, out, err = run_cli(capsys, "congruences", "chain(61)")
    assert code == 3
    assert out == ""
    assert err == "error: 61 elements exceeds congruence cap 60\n"


def test_a_listing_of_a_sum_of_chains_is_refused_without_validating(
        capsys, monkeypatch):
    def no_validation(*args, **kwargs):
        raise AssertionError("validated a lattice")

    monkeypatch.setattr(Lattice, "__init__", no_validation)
    code, out, err = run_cli(capsys, "congruences", "osum(chain(97),chain(44))")
    assert (code, out) == (3, "")
    assert err == "error: 140 elements exceeds congruence cap 60\n"


def test_filters_listing(capsys):
    code, out, _ = run_cli(capsys, "filters", "N5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines == [
        "0: {0,x,y,z,1}",
        "1: {1}",
        "x: {x,1}  P",
        "y: {y,z,1}  P",
        "z: {z,1}",
    ]


# sha256 over the exit code and stdout of analyze, filters, ideals and
# spectra of each expression, recorded when each set was rendered from a
# sorted frozenset of indices
FAMILY_GOLDEN = {
    "N5": "bfc4976c978a46615747179d460ee58188856320f352c95687254f5f4bfdc47b",
    "K": "df480cd73ed7598328170823becd7083ee451642c32f836f3a8693eb48d1c17f",
    "M3": "3737ba9ff2c9d4b00bd352e35a6c6272ecff8a6aeb1635a6ec8dee503aee2710",
    # label order is not index order
    "div(720720)":
        "5c91a576df83fc4b921fa80e8a71ea945b3b96edf3ddeeacc46a730d21e4e8ab",
    "div(1234800)":
        "0065c37d2c3f88dab0c27a1917431c9925c78427db3988abaf4af28b80bc204f",
    "chain(61)":
        "e1e9bb6b0384a825fcf733f9e92341278da2498582b40e125fc2d5f36bcd9c51",
    "hsum(osum(chain(112),chain(89)),osum(chain(63),chain(38)))":
        "66f911e7992fa3e33b1fd374f17a1d57e7f31096b4305bb22b0ef7d070057ec4",
    "hsum(osum(chain(120),chain(130)),chain(250))":
        "fb82162c63304ec6d921d3411e907b66e6d06e8f1d626182f6ab25980ecd0da8",
    'ihsum(chain(5),"m1","m3",M3)':
        "8eb28324e14ea313f23ccfd642bd21bf476f5ee1bfbd16bb2302ad9507c5ff4a",
    "D(hsum(N5,M3,K))":
        "4168d68a8c04e1cc62fae0337f911e42f2242e9b14e76b0636550b11bfb830b5",
    "hsum(N5,N5,N5)":
        "6202f9d692c692b81ac0656d88b74c67f6e37df3c3b3dd2f6498dc9f0971af92",
    "osum(B2,M3)":
        "2037de90efd53889f407604d6a78a5415305b7eb8c5920862f769a1c5af7472c",
    # a pentagon whose elements are listed top first
    "FILE": "334d84a2e90b5a4e8f463cb39a743ff545151330f81a928254379917a3a45d83",
    "chain(501)":
        "e5c830e2c953ff9bdaeaec481cd37fd928d54016886e0afc844e288044696dcc",
}


@pytest.mark.parametrize("expr", FAMILY_GOLDEN)
def test_family_and_spectra_outputs_are_pinned(capsys, tmp_path, expr):
    path = str(tmp_path / "pentagon.json")
    with open(path, "w") as fh:
        json.dump({"elements": ["top", "c", "b", "a", "bot"],
                   "covers": [["bot", "a"], ["a", "top"], ["bot", "b"],
                              ["b", "c"], ["c", "top"]]}, fh)
    text = expr.replace("FILE", f'file("{path}")')
    digest = hashlib.sha256()
    for command in ("analyze", "filters", "ideals", "spectra"):
        code, out, _ = run_cli(capsys, command, text)
        out = out.replace(path, "<path>")
        digest.update(f"{command} {code}\n{out}".encode())
    assert digest.hexdigest() == FAMILY_GOLDEN[expr]


def test_spectra_listing(capsys):
    code, out, _ = run_cli(capsys, "spectra", "K")
    assert code == 0
    assert "Spec_Filt:" in out and "Spec_Id:" in out
    assert "{m,1}" in out
    assert "{0,n,p,q}" in out


def test_iso_prints_bijection(capsys):
    code, out, _ = run_cli(capsys, "iso", "D(chain(3))", "M3")
    assert code == 0
    assert out.splitlines()[0] == "isomorphic"
    assert "0 -> 0" in out
    code, out, _ = run_cli(capsys, "iso", "chain(4)", "B2")
    assert code == 1
    assert "not isomorphic" in out


def crown(cycles):
    """0 < atoms < coatoms < 1, the atom-coatom covers forming one cycle of
    m atoms and m coatoms per entry m of `cycles`."""
    atoms, coatoms, covers = [], [], []
    for c, m in enumerate(cycles):
        for i in range(m):
            atoms.append(f"a{c}.{i}")
            coatoms.append(f"c{c}.{i}")
            covers += [["0", atoms[-1]], [coatoms[-1], "1"],
                       [atoms[-1], coatoms[-1]],
                       [atoms[-1], f"c{c}.{(i + 1) % m}"]]
    return {"elements": ["0", *atoms, *coatoms, "1"], "covers": covers}


def test_an_iso_search_past_the_node_cap_exits_3(capsys, tmp_path):
    # colour refinement cannot tell one 20-cycle crown from two 10-cycle
    # ones; the search would take about 40 s without the cap
    paths = []
    for name, cycles in (("one", [10]), ("two", [5, 5])):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(crown(cycles)))
    started = time.perf_counter()
    code, out, err = run_cli(capsys, "iso", *(f'file("{p}")' for p in paths))
    assert time.perf_counter() - started < 30
    assert (code, out) == (3, "")
    assert err == (f"error: isomorphism search past {verify.ISO_NODE_CAP} "
                   "nodes\n")


def test_export_json_round_trips_via_file(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "export", "N5", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data == named("N5").to_dict()
    target = tmp_path / "n5.json"
    target.write_text(out)
    code, out2, _ = run_cli(capsys, "analyze", f'file("{target}")')
    assert code == 0
    assert "elements (5): 0 x y z 1" in out2


BOWTIE = {"elements": ["0", "a", "b", "c", "d", "1"],
          "covers": [["0", "a"], ["0", "b"], ["a", "c"], ["b", "c"],
                     ["a", "d"], ["b", "d"], ["c", "1"], ["d", "1"]]}


def test_a_bowtie_file_names_its_first_pair_without_a_join(capsys, tmp_path):
    target = tmp_path / "bowtie.json"
    target.write_text(json.dumps(BOWTIE))
    code, out, err = run_cli(capsys, "analyze", f'file("{target}")')
    assert (code, out) == (2, "")
    assert err == "error: no unique least upper bound for pair ('a', 'b')\n"


@pytest.mark.parametrize("argv", [
    ("export", "chain(400)"),
    ("export", "--format", "dot", "osum(chain(200),chain(200))"),
    ("ideals", "chain(300)"),
])
def test_export_and_ideals_build_no_operation_table(capsys, monkeypatch, argv):
    built = []
    evaluate = cli._eval_arg

    def evaluate_and_keep(text):
        built.append(evaluate(text))
        return built[-1]

    monkeypatch.setattr(cli, "_eval_arg", evaluate_and_keep)
    assert run_cli(capsys, *argv)[0] == 0
    (lat,) = built
    assert "join_t" not in lat.__dict__ and "meet_t" not in lat.__dict__


def test_the_shared_parser_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    sequence = [
        ("verify", "--suite", "prime", "--count", "0", "--seed", "3"),
        ("verify", "--count", "0"),
        ("congruences", "--dot", "N5"),
        ("congruences", "N5"),
        ("export", "--format", "dot", "N5"),
        ("export", "N5"),
    ]
    outs = []
    for argv in sequence:
        fresh = build_parser.__wrapped__().parse_args(argv)
        assert vars(build_parser().parse_args(argv)) == vars(fresh), argv
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        outs.append(out)
    # without --suite every suite runs
    checks = {line.split(":")[0] for line in outs[1].splitlines()[:-1]}
    assert len(checks) == len(SUITES)
    assert outs[3].startswith("|Con|=5\n")
    assert json.loads(outs[5]) == named("N5").to_dict()


def _options(parser):
    return {o for a in parser._actions for o in a.option_strings
            if o.startswith("--") and o != "--help"}


def test_each_option_is_declared_only_where_it_is_read():
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert _options(parser) == set()
    assert {name: _options(p) for name, p in sub.choices.items()} == {
        "analyze": set(),
        "congruences": {"--dot"},
        "filters": set(),
        "ideals": set(),
        "spectra": set(),
        "iso": set(),
        "export": {"--format"},
        "verify": {"--seed", "--quiet", "--suite", "--count", "--max-size",
                   "--json", "--census", "--inject-fault"},
    }


@pytest.mark.parametrize("argv", [
    ["--dot", "congruences", "chain(10)"],
    ["--seed", "3", "verify"],
    ["--quiet", "verify"],
    ["filters", "--dot", "B2"],
])
def test_an_option_where_it_is_not_read_is_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "latkit: error:" in err


@pytest.mark.parametrize("argv", [
    ["analyze", "chain(\u00b2)"],
    ["analyze", 'file("a\x00b.json")'],
])
def test_odd_digits_and_nul_paths_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("error:") == 1 and err.startswith("error:")


def test_export_dot(capsys):
    code, out, _ = run_cli(capsys, "export", "N5", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph")
    assert '"y" -> "z";' in out


def test_congruences_dot(capsys):
    code, out, _ = run_cli(capsys, "congruences", "N5", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert '"{0}{x}{y,z}{1}"' in out


def test_congruences_dot_of_a_boolean_con(capsys):
    # Con(chain(12)) is the Boolean lattice 2^11: 2^11 nodes, 11 * 2^10 covers
    code, out, _ = run_cli(capsys, "congruences", "chain(12)", "--dot")
    assert code == 0
    lines = out.splitlines()
    assert sum(" -> " in line for line in lines) == 11 * 2**10
    assert sum(line.startswith('  "{') and " -> " not in line
               for line in lines) == 2**11


def test_analyze_a_long_chain(capsys):
    code, out, _ = run_cli(capsys, "analyze", "chain(300)")
    assert code == 0
    lines = out.splitlines()
    assert "|Filt|=300" in lines and "|Id|=300" in lines
    spec = lines.index("Spec_Filt:")
    assert lines.index("Spec_Id:") - spec - 1 == 299


def test_oversized_div_exit_code(capsys):
    code, out, err = run_cli(capsys, "export", "div(10000000000000000)")
    assert (code, out) == (3, "")
    assert err.count("error:") == 1 and err.startswith("error:")


def test_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze", "osum(chain(2)")
    assert code == 2
    assert "offset 14" in err


@pytest.mark.parametrize("content", [
    b'{"elements": ["0", "1"]}',
    b"0 < 1\n",
    b"\xff\xfe not text",
])
def test_malformed_file_exit_code(capsys, tmp_path, content):
    target = tmp_path / "bad.json"
    target.write_bytes(content)
    code, out, err = run_cli(capsys, "analyze", f'file("{target}")')
    assert (code, out) == (2, "")
    assert err.startswith("error:")


def test_an_over_long_int_literal_exits_2(capsys):
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter reads int literals of any length")
    code, out, err = run_cli(capsys, "analyze", "chain(" + "9" * (limit + 1) + ")")
    assert (code, out) == (2, "")
    assert err == "error: integer literal too long at offset 7\n"


def test_a_file_past_the_byte_cap_exits_3(capsys, tmp_path, monkeypatch):
    target = tmp_path / "pentagon.json"
    target.write_text(named("N5").to_json())
    monkeypatch.setattr(expr, "MAX_FILE_BYTES", 64)
    code, out, err = run_cli(capsys, "analyze", f'file("{target}")')
    assert (code, out) == (3, "")
    assert err == f"error: {target}: more than 64 bytes\n"


def test_deep_nesting_exit_code(capsys):
    code, out, err = run_cli(capsys, "filters", "D(" * 3000 + "B2" + ")" * 3000)
    assert (code, out) == (2, "")
    assert "nesting deeper" in err


def test_verify_suite_exit_zero(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "dilate,counts",
                           "--count", "5", "--max-size", "7")
    assert code == 0
    assert "0 failed" in out


def test_verify_json_report(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "verify", "--suite", "counts",
                           "--count", "3", "--max-size", "6",
                           "--json", str(target))
    assert code == 0
    data = json.loads(target.read_text())
    assert all(d["status"] == "PASS" for d in data)


def test_an_unwritable_report_path_is_refused_before_any_check(
        capsys, monkeypatch, tmp_path):
    def no_checks(*args, **kwargs):
        raise AssertionError("ran the checks")

    monkeypatch.setattr(cli, "run_suite", no_checks)
    code, out, err = run_cli(capsys, "verify", "--suite", "prime",
                             "--count", "0",
                             "--json", str(tmp_path / "missing" / "x.json"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    pytest.param(["analyze", "B2", "--con-cap", "-1"], id="analyze-minus-one"),
    pytest.param(["analyze", "B2", "--con-cap", "0"], id="analyze-zero"),
    pytest.param(["analyze", "B2", "--con-cap", "1"], id="analyze-one"),
    pytest.param(["congruences", "B2", "--con-cap", "0"], id="congruences"),
    pytest.param(["verify", "--con-cap", "0"], id="verify"),
])
def test_con_cap_is_an_unrecognized_argument(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert f"unrecognized arguments: --con-cap {argv[-1]}" in captured.err


def test_verify_count_past_the_cap_exits_2(capsys, monkeypatch):
    def no_lattices():
        raise AssertionError("started building the corpus")

    monkeypatch.setattr(verify, "_named_baseline", no_lattices)
    code, out, err = run_cli(capsys, "verify", "--suite", "prime",
                             "--max-size", "2", "--count", "99999999999")
    assert code == 2
    assert out == ""
    assert err == "error: count capped at 10000\n"


def test_verify_inject_fault(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "prime", "--count", "0",
                           "--inject-fault", "--quiet")
    assert code == 1
    assert "[FAIL]" in out


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2
    assert "unknown suite" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_ideals_listing(capsys):
    code, out, _ = run_cli(capsys, "ideals", "K")
    assert code == 0
    assert "q: {0,q}" in out
    assert "p: {0,n,p,q}  P" in out


def test_verify_census_flag(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "irred",
                           "--count", "0", "--max-size", "6",
                           "--census", "5", "--quiet")
    assert code == 0
    assert "0 failed" in out


@pytest.mark.parametrize("expr, con, con01", [
    ("chain(30)", 536870912, 134217728),
    ("hsum(chain(12),chain(12))", 262147, 262144),
    ("chain(60)", 576460752303423488, 144115188075855872),
])
def test_analyze_counts_con_past_the_member_cap(capsys, expr, con, con01):
    code, out, err = run_cli(capsys, "analyze", expr)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert f"|Con|={con}" in lines and f"|Con01|={con01}" in lines
    assert lines[-2:] == ["simple=false", "subdirectly_irreducible=false"]


def test_listing_past_the_member_cap_prints_nothing(capsys):
    for argv in (["congruences", "chain(30)"],
                 ["congruences", "--dot", "hsum(chain(12),chain(12))"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert err == "error: more than 200000 congruences\n"


def test_analyze_prints_nothing_when_a_con_fact_is_refused(capsys, monkeypatch):
    import latkit.cli as cli
    from latkit.errors import SizeCapExceeded

    def refuse(lat):
        raise SizeCapExceeded("refused")

    monkeypatch.setattr(cli, "con_summary", refuse)
    code, out, err = run_cli(capsys, "analyze", "N5")
    assert (code, out, err) == (3, "", "error: refused\n")

