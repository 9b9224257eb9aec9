import hashlib
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest

from monodiv.cli import run

CERTIFY2_GOLDEN = (
    '{"version":1,"alpha":2,"verdict":"monogenic","hypothesis_ok":true,'
    '"field_disc":"-97200","primes":[{"p":2,"lift":"-1,1","a0_val":1,'
    '"polygon":{"points":[[0,1],[1,1],[2,null],[3,2],[4,0]],'
    '"sides":[{"x0":0,"y0":1,"x1":4,"y1":0,"slope":"-1/4","degree":1}],'
    '"ind_phi":0},"ind_p":0,"exact":true,"dedekind":true},'
    '{"p":3,"lift":"4,1","a0_val":1,"polygon":{"points":[[0,1],[1,1],[2,2],[3,0],[4,0]],'
    '"sides":[{"x0":0,"y0":1,"x1":3,"y1":0,"slope":"-1/3","degree":1}],'
    '"ind_phi":0},"ind_p":0,"exact":true,"dedekind":true},'
    '{"p":5,"lift":"-1,1","a0_val":1,"polygon":{"points":[[0,1],[1,1],[2,null],[3,0],[4,0]],'
    '"sides":[{"x0":0,"y0":1,"x1":3,"y1":0,"slope":"-1/3","degree":1}],'
    '"ind_phi":0},"ind_p":0,"exact":true,"dedekind":true}],"trust":[],'
    '"reduction_ok":true,"reason":null}'
)


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_fueter_golden():
    code, out, _ = invoke("fueter", "--alpha", "2", "--beta", "1", "--n", "3")
    assert code == 0
    assert out == "-3,-2,-6,0,1\n"


def test_fueter_even_json_golden():
    code, out, _ = invoke("fueter", "--alpha", "2", "--beta", "1", "--n", "4", "--json")
    assert code == 0
    assert out == '{"n":4,"even_part":true,"coefficients":"-2,-2,-10,0,10,2,2"}\n'


def test_divpoly_golden():
    code, out, _ = invoke("divpoly", "--a-invariants", "0,0,0,1,0", "--n", "3")
    assert code == 0
    assert out == "-1,0,6,0,3\n"


def test_certify_json_golden():
    code, out, _ = invoke("certify", "--alpha", "2", "--json")
    assert code == 0
    assert out == CERTIFY2_GOLDEN + "\n"


def test_reduce_table_golden():
    code, out, _ = invoke("reduce", "--alpha", "2", "--beta", "1")
    assert code == 0
    assert out.splitlines() == [
        "p      kodaira  f  c  case",
        "2      I*_1     3  4  tate2-1",
        "3      I_1      1  1  tate1-2b",
        "5      I*_1     2  4  tate1-3a",
    ]


def test_reduce_json_golden():
    code, out, _ = invoke("reduce", "--alpha", "2", "--beta", "1", "--json")
    assert code == 0
    assert out == (
        '[{"p":2,"kodaira":"I*_1","f":3,"c":4,"case":"tate2-1"},'
        '{"p":3,"kodaira":"I_1","f":1,"c":1,"case":"tate1-2b"},'
        '{"p":5,"kodaira":"I*_1","f":2,"c":4,"case":"tate1-3a"}]\n'
    )


def test_newton_json_golden():
    code, out, _ = invoke(
        "newton", "--poly=-3,-2,-6,0,1", "--phi=-1,1", "--prime", "2", "--json"
    )
    assert code == 0
    assert out == (
        '{"points":[[0,1],[1,1],[2,null],[3,2],[4,0]],'
        '"sides":[{"x0":0,"y0":1,"x1":4,"y1":0,"slope":"-1/4","degree":1}],'
        '"ind_phi":0}\n'
    )


def test_newton_ascii_render():
    code, out, _ = invoke("newton", "--poly=-3,-2,-6,0,1", "--phi=-1,1", "--prime", "2")
    assert code == 0
    assert "ind_phi = 0" in out
    assert "slope -1/4 degree 1" in out


def test_valuation_json_golden():
    code, out, _ = invoke(
        "valuation", "--alpha", "13", "--beta", "1", "--prime", "5", "--n", "3", "--json"
    )
    assert code == 0
    assert out == (
        '{"case":"minus","p":5,"v":1,"n":3,'
        '"psi":{"predicted":1,"observed":1},'
        '"fueter":{"predicted":1,"observed":1}}\n'
    )


def test_index_json():
    code, out, _ = invoke("index", "--poly=-3,-2,-6,0,1", "--prime", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ind_p_lower_bound"] == 0 and data["exact"] is True


def test_scan_text_summary():
    code, out, _ = invoke("scan", "--min", "2", "--max", "7")
    assert code == 0
    assert out.splitlines()[-1] == "monogenic: 2,3,5,6,7"


def test_scan_json_golden_digest():
    # every certificate of the window, byte for byte
    code, out, _ = invoke("scan", "--min", "-100", "--max", "100", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7fcffce094302a821a547c5748c5db4302d0cb2cca38b3bdc19d9ec3953f48fa"
    )


# sha256 of the text output for n = 1..25, concatenated in order of n, as the
# Fraction recurrence printed it
DIVISION_GOLDEN_DIGESTS = {
    ("divpoly", "--alpha", "2", "--beta", "1"):
        "3ee1ec8a886e70e95af579371555c9f20db95abd9b25d14a886065f68596147a",
    ("divpoly", "--alpha", "7", "--beta", "3"):
        "e91f8f2f39ba286bf68a10c22bb2a99569a6e9709f3e82dd6ac034d1baf94962",
    ("divpoly", "--a-invariants", "1,-1,0,3/2,-5"):
        "2742efbaa31c5459f84f6d009798f8df51b0f6d5cd9b48e135ac070ed71fef11",
    ("fueter", "--alpha", "2", "--beta", "1"):
        "c81166b4e0fc46fbd7a0ffd6f37e893d5ded955fec96a060132a0b4a9233adfd",
    ("fueter", "--alpha", "7", "--beta", "3"):
        "dc55b500c7f6d1a04db8972f8582e5356cbd7f2293df5883e5ff6ba38c90db35",
}


@pytest.mark.parametrize("argv", list(DIVISION_GOLDEN_DIGESTS))
def test_division_polynomial_golden_digests(argv):
    text = ""
    for n in range(1, 26):
        code, out, _ = invoke(*argv, "--n", str(n))
        assert code == 0
        text += out
    assert hashlib.sha256(text.encode()).hexdigest() == DIVISION_GOLDEN_DIGESTS[argv]


# sha256 of `survey --family F --s -4:5 --t -4:5 --json`; each grid runs the
# Montes pass on its squarefree specializations
SURVEY_GOLDEN_DIGESTS = {
    "A": "15c535a1b210731f4c6947937367d71db5b2da9b1bb2055400d4dd87a4fe0a04",
    "B": "275ec2f3b64d88c2241e16314fe4efed3282467a454484365fc15523f9aad6f9",
    "C": "d289daf3809baa4b26e6c7b7375dd8bf47a90c6414168a127c7c6e04822752ef",
}


@pytest.mark.parametrize("family", list(SURVEY_GOLDEN_DIGESTS))
def test_survey_json_golden_digests(family):
    code, out, _ = invoke("survey", "--family", family, "--s=-4:5", "--t=-4:5", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SURVEY_GOLDEN_DIGESTS[family]


def test_survey_json():
    code, out, _ = invoke("survey", "--family", "B", "--s", "0:0", "--t", "1:1", "--json")
    assert code == 0
    data = json.loads(out)
    assert data[0]["predicted_disc"] == "-7803"
    assert data[0]["disc_ok"] is True
    assert data[0]["verdict"] == "monogenic"


def test_reduce_single_prime():
    code, out, _ = invoke("reduce", "--alpha", "2", "--beta", "1", "--prime", "5", "--json")
    assert code == 0
    assert out == '[{"p":5,"kodaira":"I*_1","f":2,"c":4,"case":"tate1-3a"}]\n'


def test_math_error_exit_codes():
    code, _, err = invoke("reduce", "--alpha", "8", "--beta", "1")
    assert code == 1
    assert "singular" in err
    code, _, err = invoke("reduce", "--alpha", "2", "--beta", "1", "--prime", "7")
    assert code == 1  # good reduction at 7
    code, _, err = invoke("fueter", "--alpha", "2", "--beta", "4", "--n", "3")
    assert code == 1  # not coprime
    code, out, err = invoke("index", "--poly=1", "--prime", "3")
    assert (code, out) == (1, "")
    assert "Phi must be nonconstant" in err


def test_composite_primes_are_rejected():
    for argv in (
        ("reduce", "--alpha", "7", "--beta", "1", "--prime", "15"),
        ("valuation", "--alpha", "7", "--beta", "1", "--prime", "15", "--n", "3"),
        ("index", "--poly=1,0,1", "--prime", "15"),
        ("newton", "--poly=-3,-2,-6,0,1", "--phi=-1,1", "--prime", "6"),
        ("index", "--poly=1,0,1", "--prime", "1"),
        ("reduce", "--alpha", "7", "--beta", "1", "--prime", "1"),
        ("valuation", "--alpha", "7", "--beta", "1", "--prime", "1", "--n", "3"),
    ):
        code, out, err = invoke(*argv)
        p = argv[argv.index("--prime") + 1]
        assert (code, out) == (1, ""), argv
        assert f"p = {p} is not a prime" in err, argv


def test_n_above_cap_is_usage_error():
    for argv in (
        ("divpoly", "--alpha", "2", "--beta", "1"),
        ("fueter", "--alpha", "2", "--beta", "1"),
        ("valuation", "--alpha", "13", "--beta", "1", "--prime", "5"),
    ):
        with pytest.raises(SystemExit) as exc:
            invoke(*argv, "--n", "200")
        assert exc.value.code == 2, argv


def test_malformed_poly_is_usage_error():
    code, _, err = invoke("newton", "--poly=zap", "--phi=-1,1", "--prime", "2")
    assert code == 2
    assert "invalid" in err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        invoke("reduce", "--alpha", "2")  # missing --beta
    assert exc.value.code == 2


def test_unknown_subcommand_exit_code():
    with pytest.raises(SystemExit) as exc:
        invoke("frobnicate")
    assert exc.value.code == 2


def test_budget_exit_code():
    # factoring two enormous semiprimes cannot finish in one millisecond
    big = (2**127 - 1) * (2**89 - 1) * ((2**107 - 1) * (2**61 - 1))
    code, _, err = invoke(
        "reduce",
        "--alpha",
        str(8 + big),
        "--beta",
        "1",
        "--budget-ms",
        "1",
    )
    assert code == 3
    assert "budget" in err


def test_no_floats_in_json_outputs():
    for argv in (
        ("certify", "--alpha", "2", "--json"),
        ("reduce", "--alpha", "2", "--beta", "1", "--json"),
        ("scan", "--min", "2", "--max", "4", "--json"),
    ):
        _, out, _ = invoke(*argv)
        parsed = json.loads(out)

        def walk(node):
            assert not isinstance(node, float)
            if isinstance(node, dict):
                for v in node.values():
                    walk(v)
            elif isinstance(node, list):
                for v in node:
                    walk(v)

        walk(parsed)
