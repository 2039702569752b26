import json

import pytest

from padicres.cli import main
from padicres.parsing import parse_poly
from padicres.resultants import CyclicResultantRequest, cyclic_resultant


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_res_table(capsys):
    code, out, _ = run(capsys, "res", "-p", "2", "-n", "1,1", "t1*t2-2")
    assert code == 0
    assert "value: 9" in out


def test_res_univariate(capsys):
    code, out, _ = run(capsys, "res", "-p", "3", "-n", "1", "t1-2")
    assert code == 0 and "value: -7" in out


def test_res_rprime_json_with_verify(capsys):
    code, out, _ = run(
        capsys, "res", "-p", "3", "-n", "1,1", "--mask", "rprime", "--format", "json", "--verify", "1+t1*t2"
    )
    assert code == 0
    record = json.loads(out)
    assert record["value"] == "4"
    assert record["verify"]["agree"] is True


def test_res_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "res", "-p", "2", "-n", "1,1", "t1*t3-2")
    assert code == 2 and "t3" in err


def test_res_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("PADIC_RES_BUDGET", "8")
    code, _, err = run(capsys, "res", "-p", "2", "-n", "9", "t1-2")
    assert code == 3 and "budget" in err


def test_res_custom_mask(capsys):
    code, out, _ = run(
        capsys, "res", "-p", "2", "-n", "3", "--mask", "custom", "--mask-sets", "2,3", "1-t1"
    )
    assert code == 0 and "value: 4" in out


def test_climit_json_round_trip(capsys):
    code, out, _ = run(
        capsys, "climit", "-p", "7", "-K", "2", "--vars", "2", "--format", "json", "2-t1"
    )
    assert code == 0
    record = json.loads(out)
    assert record["certified_digits"] == 2
    assert record["raw_limit"] == "7^0 * 1 mod 7^2"
    assert record["window"] == [[1, 0, 1], [2, 0, 1]]


def test_iwasawa_bare_t_accepted(capsys):
    code, out, _ = run(capsys, "iwasawa", "-p", "5", "t-6")
    assert code == 0
    assert "lambda: 1" in out and "mu: 0" in out and "nu: 1" in out


def test_linkh1_builtin_whitehead(capsys):
    code, out, _ = run(capsys, "linkh1", "--whitehead", "2", "-p", "2", "-n", "1,1", "--verify")
    assert code == 0
    assert "order: 4" in out


def test_linkh1_trefoil_json(capsys):
    code, out, _ = run(capsys, "linkh1", "--trefoil", "-p", "2", "-n", "1", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record == {"order": "3", "nonp": "3", "p_exponent": 0}


def test_linkh1_spec_file(tmp_path, capsys):
    doc = {
        "name": "hopf-ish",
        "components": 1,
        "ambient": "S3",
        "sublinks": [{"indices": [1], "alexander": "t1^2 - t1 + 1"}],
    }
    path = tmp_path / "link.json"
    path.write_text(json.dumps(doc))
    # 9-fold cover: primitive-3rd-root factor Delta(w)Delta(w^2) = 4, the
    # primitive-9th-root factor is a cyclotomic resultant equal to 1
    code, out, _ = run(capsys, "linkh1", "--spec", str(path), "-p", "3", "-n", "2")
    assert code == 0 and "order: 4" in out


def test_whitehead_odd_p(capsys):
    code, out, _ = run(capsys, "whitehead", "-k", "4", "-p", "3", "-K", "2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["closed_form_residue"] == 7 and record["agree"] is True


def test_whitehead_degenerate(capsys):
    code, out, _ = run(capsys, "whitehead", "-k", "1", "-p", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["degenerate"] is True


def test_twopart(capsys):
    code, out, _ = run(capsys, "twopart", "-k", "3", "--n-max", "2", "--format", "json")
    assert code == 0
    record = json.loads(out)
    assert record["ok"] is True and record["rows"][1] == [2, 9, 9]


def test_output_determinism(capsys):
    _, out1, _ = run(capsys, "res", "-p", "3", "-n", "2,2", "--format", "json", "t1^2*t2-3*t1+1")
    _, out2, _ = run(capsys, "res", "-p", "3", "-n", "2,2", "--format", "json", "t1^2*t2-3*t1+1")
    assert out1 == out2


def test_big_integers_print_in_full(capsys):
    # the value has about 4,900 digits, past Python's default int/str limit
    expr = "2 - t1 - t2 + 2*t1*t2"
    code, out, _ = run(capsys, "res", "-p", "2", "-n", "7,7", "--mask", "rprime", "--format", "json", expr)
    assert code == 0
    expected = cyclic_resultant(CyclicResultantRequest.rprime(parse_poly(expr, 2), 2, (7, 7)))
    assert int(json.loads(out)["value"]) == expected


def test_truncate_marks_non_canonical(capsys):
    code, out, _ = run(capsys, "res", "-p", "2", "-n", "6,6", "--truncate", "8", "3+t1*t2")
    assert code == 0 and "non-canonical" in out


def test_unknown_subcommand_is_user_error(capsys):
    assert main(["frobnicate"]) == 2
