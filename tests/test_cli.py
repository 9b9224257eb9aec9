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


def test_index_json_golden_with_a_residual_over_f9():
    # phi = T^2 + 1 is irreducible mod 3, so the residual lives over F_9
    code, out, _ = invoke("index", "--poly=10,3,2,3,1", "--prime", "3", "--json")
    assert code == 0
    assert out == (
        '{"p":3,"ind_p_lower_bound":2,"exact":true,"per_phi":[{"phi":"1,0,1",'
        '"exponent":2,"a0_val":2,"ind_phi":2,"regular":true,"polygon":'
        '{"points":[[0,2],[1,1],[2,0]],"sides":[{"x0":0,"y0":2,"x1":2,"y1":0,'
        '"slope":"-1","degree":2}]}}]}\n'
    )


def test_index_phi_override_json_golden():
    # x + 2 is a lift of x mod 2 whose residual is inseparable: bound only
    code, out, _ = invoke("index", "--poly=0,4,1", "--prime", "2", "--phi=2,1", "--json")
    assert code == 0
    assert out == (
        '{"p":2,"ind_p_lower_bound":1,"exact":false,"per_phi":[{"phi":"2,1",'
        '"exponent":2,"a0_val":2,"ind_phi":1,"regular":false,"polygon":'
        '{"points":[[0,2],[1,null],[2,0]],"sides":[{"x0":0,"y0":2,"x1":2,"y1":0,'
        '"slope":"-1","degree":2}]}}]}\n'
    )


def test_index_phi_override_text_and_default_lift():
    code, out, _ = invoke("index", "--poly=0,4,1", "--prime", "2", "--phi=2,1")
    assert code == 0
    assert out.splitlines() == [
        "p = 2: ind_p >= 1 (bound only)",
        "  phi = 2,1 (e = 2): ind_phi = 1, regular = False",
    ]
    code, out, _ = invoke("index", "--poly=0,4,1", "--prime", "2")
    assert code == 0
    assert out.splitlines() == [
        "p = 2: ind_p >= 2 (exact)",
        "  phi = 0,1 (e = 2): ind_phi = 2, regular = True",
    ]


@pytest.mark.parametrize(
    "phi, message",
    [
        ("--phi=1,1", "supplied lift is not congruent to an irreducible factor mod p"),
        ("--phi=0,2", "supplied lift must be monic"),
    ],
)
def test_index_phi_override_rejected(phi, message):
    code, out, err = invoke("index", "--poly=0,4,1", "--prime", "2", phi)
    assert (code, out) == (1, "")
    assert message in err


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


def test_scan_json_golden_digest_small_alphas():
    # the rows certify builds in closed form, against those the generic
    # index_report pass printed for the same window
    code, out, _ = invoke("scan", "--min", "-3000", "--max", "3000", "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3d83f219a81146d8cc6fb2689788a1fa5f576b53f0caf25637409dc70f09f9dd"
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


def test_n_below_one_is_usage_error(capsys):
    for argv in (
        ("divpoly", "--alpha", "2", "--beta", "1"),
        ("fueter", "--alpha", "2", "--beta", "1"),
        ("valuation", "--alpha", "13", "--beta", "1", "--prime", "5"),
    ):
        for n in ("0", "-3"):
            with pytest.raises(SystemExit) as exc:
                run([*argv, "--n", n])
            captured = capsys.readouterr()
            assert exc.value.code == 2, argv
            assert captured.out == ""
            assert "argument --n: n must be at least 1" in captured.err
    with pytest.raises(SystemExit):
        run(["divpoly", "--alpha", "2", "--beta", "1", "--n", "42"])
    assert "argument --n: n must be at most 41" in capsys.readouterr().err
    assert invoke("divpoly", "--alpha", "2", "--beta", "1", "--n", "1") == (0, "1\n", "")


@pytest.mark.parametrize(
    "argv, named",
    [
        (("certify", "--alpha", "2", "--budget-ms", "-5"), "argument --budget-ms"),
        (("scan", "--min", "2", "--max", "4", "--budget-ms", "-1"), "argument --budget-ms"),
        (("scan", "--min", "5", "--max", "1"), "argument --max"),
        (("survey", "--family", "B", "--s=3:1", "--t", "0:1"), "argument --s"),
        (("survey", "--family", "B", "--s", "0:1", "--t=2:-2"), "argument --t"),
    ],
)
def test_out_of_domain_arguments_are_usage_errors(argv, named, capsys):
    with pytest.raises(SystemExit) as exc:
        run(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 2
    assert captured.out == ""
    assert named in captured.err


def test_zero_budget_and_one_alpha_scan_are_in_domain():
    code, out, _ = invoke("certify", "--alpha", "2", "--budget-ms", "0", "--json")
    assert (code, out) == (0, CERTIFY2_GOLDEN + "\n")
    code, out, _ = invoke("scan", "--min", "5", "--max", "5")
    assert (code, out) == (0, "5: monogenic\nmonogenic: 5\n")


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


def test_certify_budget_exit_code():
    # alpha - 8 is a 122-bit semiprime; certify reports its own budget reason
    alpha = (2**61 - 1) * 1152921504606847009 + 8
    code, out, err = invoke("certify", "--alpha", str(alpha), "--budget-ms", "1")
    assert (code, out) == (3, "")
    assert err.startswith("factorization budget exceeded: ")


def test_reduce_at_two_text_row():
    code, out, err = invoke("reduce", "--alpha", "2", "--beta", "1", "--prime", "2")
    assert (code, err) == (0, "")
    assert out == "p      kodaira  f  c  case\n2      I*_1     3  4  tate2-1\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("divpoly", "--n", "3"), "provide --alpha/--beta or --a-invariants"),
        (("divpoly", "--a-invariants", "0,0,1", "--n", "3"), "--a-invariants needs a1,a2,a3,a4,a6"),
    ],
)
def test_divpoly_curve_arguments_are_math_errors(argv, message):
    assert invoke(*argv) == (1, "", f"error: {message}\n")


def test_certify_text_reason_and_trust_lines():
    code, out, _ = invoke("certify", "--alpha", "0")
    assert code == 0
    assert out == (
        "alpha = 0: hypothesis_failed\n"
        "  reason: alpha - 8 or alpha + 8 is not squarefree\n"
    )
    code, out, _ = invoke("certify", "--alpha", str(2**61 + 7))
    assert code == 0
    assert out.endswith(
        "  trust: prime 2305843009213693951 of alpha - 8 is probable, not certified\n"
        "  trust: prime 2305843009213693967 of alpha + 8 is probable, not certified\n"
    )
    assert out.startswith("alpha = 2305843009213693959: monogenic\n")


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


# every command the CLI documents, and the reduce/index/certify cases whose
# rows or messages no golden above pins, each in text and in --json
_SWEEP = [
    ("certify", "--alpha", "2"),
    ("scan", "--min", "-25", "--max", "25"),
    ("fueter", "--alpha", "2", "--beta", "1", "--n", "3"),
    ("divpoly", "--a-invariants", "0,0,0,1,0", "--n", "3"),
    ("divpoly", "--a-invariants", "1,-1,0,3/2,-5", "--n", "4"),
    ("newton", "--poly=-3,-2,-6,0,1", "--phi=-1,1", "--prime", "2"),
    ("newton", "--poly=10,3,2,3,1", "--phi=1,0,1", "--prime", "3"),
    ("index", "--poly=-3,-2,-6,0,1", "--prime", "3"),
    ("index", "--poly=0,4,1", "--prime", "2", "--phi=2,1"),
    ("index", "--poly=0,4,1", "--prime", "2", "--phi=1,1"),
    ("valuation", "--alpha", "13", "--beta", "1", "--prime", "5", "--n", "3"),
    ("valuation", "--alpha", "2", "--beta", "1", "--prime", "5", "--n", "4"),
    ("survey", "--family", "B", "--s", "0:9", "--t", "0:9"),
    ("survey", "--family", "A", "--s=-2:2", "--t", "1:2"),
    ("survey", "--family", "C", "--s=-2:2", "--t", "1:2"),
    *(
        ("reduce", "--alpha", alpha, "--beta", beta, *prime)
        for alpha, beta in (("2", "1"), ("9", "5"), ("248", "1"))
        for prime in ((), ("--prime", "2"), ("--prime", "3"), ("--prime", "5"))
    ),
    *(("certify", "--alpha", alpha) for alpha in ("0", "12", str(2**61 + 7))),
]


def test_every_command_output_digest():
    digest = hashlib.sha256()
    for argv in _SWEEP:
        for mode in ((), ("--json",)):
            digest.update(repr((argv + mode, *invoke(*argv, *mode))).encode())
    assert digest.hexdigest() == (
        "63aa1edd9c08d04fe0b14bc3b8660b898c36807709fc712e88dfd999fdf7b9bd"
    )
