import importlib
import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import heckeq
import heckeq.cli
import heckeq.verify
from heckeq.cli import main
from heckeq.diagrams import partitions
from heckeq.hecke_oracle import MAX_Q0_BITS
from heckeq.laurent import LaurentPoly


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *args):
    code, out, err = run_cli(capsys, *args, "--format", "json")
    return code, json.loads(out), err


def run_cold(*args, timeout=30):
    """Run the CLI in a fresh interpreter, failing instead of hanging past `timeout` s.

    The arguments go in through stdin, so a polynomial of any length fits.
    """
    script = f"import sys\nfrom heckeq.cli import main\nsys.exit(main({[*args, '--format', 'json']!r}))"
    env = {**os.environ, "PYTHONPATH": str(pathlib.Path(heckeq.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-"], input=script, env=env, capture_output=True, text=True, timeout=timeout
    )
    return done.returncode, json.loads(done.stdout)


class TestEigenvalue:
    def test_published_value(self, capsys):
        code, out, _ = run_cli(capsys, "eigenvalue", "--n", "6", "--diagram", "3,3")
        assert code == 0
        assert "q^2+3*q-1" in out

    def test_single_column(self, capsys):
        code, doc, _ = run_json(capsys, "eigenvalue", "--n", "2", "--diagram", "1,1")
        assert code == 0
        assert doc["result"]["eigenvalue"] == "-1"

    def test_box_count_mismatch(self, capsys):
        code, doc, _ = run_json(capsys, "eigenvalue", "--n", "5", "--diagram", "2,2,2")
        assert code == 1
        assert doc["error"]["type"] == "CommandError"

    def test_q0_is_a_usage_error(self, capsys):
        # only verify specializes q
        with pytest.raises(SystemExit) as exc:
            main(["eigenvalue", "--n", "3", "--diagram", "2,1", "--q0", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --q0 2" in capsys.readouterr().err

    def test_table_error_goes_to_stderr(self, capsys):
        code, out, err = run_cli(capsys, "eigenvalue", "--n", "5", "--diagram", "2,2,2")
        assert code == 1
        assert not out
        assert "boxes" in err


class TestReconstruct:
    def test_published_value(self, capsys):
        code, doc, _ = run_json(capsys, "reconstruct", "--n", "6", "--poly", "q^2+3*q-1")
        assert code == 0
        assert doc["result"]["diagram"] == "3,3"

    def test_roundtrip_sweep(self, capsys):
        for g in partitions(7):
            code, doc, _ = run_json(capsys, "eigenvalue", "--n", "7", "--diagram", str(g))
            assert code == 0
            code, doc, _ = run_json(
                capsys, "reconstruct", "--n", "7", "--poly=" + doc["result"]["eigenvalue"]
            )
            assert code == 0
            assert doc["result"]["diagram"] == str(g)

    @pytest.mark.parametrize(
        "command,option,value",
        [
            ("reconstruct --n 4", "--poly", "-3-2*q^-1-q^-2"),
            ("verify --n 4", "--q0", "-3/2"),
            ("verify --n 3", "--q0", "-3"),
        ],
    )
    def test_value_with_leading_minus_after_a_space(self, capsys, command, option, value):
        spaced = run_cli(capsys, *command.split(), option, value, "--format", "json")
        joined = run_cli(capsys, *command.split(), f"{option}={value}", "--format", "json")
        assert spaced[0] == 0
        assert spaced == joined

    def test_malformed_poly(self, capsys):
        code, doc, _ = run_json(capsys, "reconstruct", "--n", "3", "--poly", "q^^2")
        assert code == 1
        assert doc["error"]["type"] == "PolynomialParseError"

    def test_huge_n_is_refused_promptly(self):
        # "0" puts all n boxes on the main diagonal, which would mean n rows
        code, doc = run_cold("reconstruct", "--n", "1000000000", "--poly=0")
        assert code == 1
        assert doc["error"]["type"] == "InvalidSpectrum"

    @pytest.mark.parametrize("exponent", ["1000000000000", "-1000000000000"])
    def test_huge_exponent_is_refused_promptly(self, exponent):
        code, doc = run_cold("reconstruct", "--n", "5", f"--poly=q^{exponent}", timeout=10)
        assert code == 1
        assert doc["error"]["type"] == "InvalidSpectrum"

    def test_long_column_roundtrips_promptly(self):
        n = 20_000
        column = ",".join(["1"] * n)
        # one box of each content 0, -1, ..., 1-n: q^k has coefficient -(n-1+k)
        poly = str(LaurentPoly({k: -(n - 1 + k) for k in range(2 - n, 1)}))
        code, doc = run_cold("eigenvalue", "--n", str(n), "--diagram", column)
        assert (code, doc["result"]["eigenvalue"]) == (0, poly)
        code, doc = run_cold("reconstruct", "--n", str(n), "--poly=" + poly)
        assert (code, doc["result"]["diagram"]) == (0, column)


class TestCharacters:
    def test_s3_row(self, capsys):
        code, doc, _ = run_json(capsys, "characters", "--n", "3", "--method", "both")
        assert code == 0
        assert doc["result"]["agreement"] is True
        assert doc["result"]["projector"]["rows"]["2,1"] == {"1,1,1": 2, "2,1": 0, "3": -1}

    def test_methods_agree_at_five(self, capsys):
        code, doc, _ = run_json(capsys, "characters", "--n", "5", "--method", "both")
        assert code == 0
        assert doc["result"]["agreement"] is True

    def test_methods_agree_at_eight(self, capsys):
        code, doc, _ = run_json(capsys, "characters", "--n", "8", "--method", "both")
        assert code == 0
        assert doc["result"]["agreement"] is True

    def test_scale_guard(self, capsys):
        code, doc, _ = run_json(capsys, "characters", "--n", "9", "--method", "projector")
        assert code == 1
        assert "capped" in doc["error"]["message"]

    def test_unsafe_flag_reaches_nine(self, capsys):
        code, doc, _ = run_json(
            capsys, "characters", "--n", "9", "--method", "both", "--unsafe-large-n"
        )
        assert code == 0
        assert doc["result"]["agreement"] is True

    def test_unsafe_flag_reaches_twelve(self, capsys):
        code, doc, _ = run_json(
            capsys, "characters", "--n", "12", "--method", "both", "--unsafe-large-n"
        )
        assert code == 0
        assert doc["result"]["agreement"] is True


class TestTraces:
    def test_murphy_single_diagram(self, capsys):
        code, doc, _ = run_json(
            capsys, "traces", "--n", "4", "--diagram", "3,1", "--kind", "murphy"
        )
        assert code == 0
        assert doc["result"]["murphy_traces"] == {
            "2": "2*q-1",
            "3": "q^2+2*q-1",
            "4": "2*q^2+2*q-1",
        }

    def test_murphy_full_table(self, capsys):
        code, doc, _ = run_json(capsys, "traces", "--n", "3", "--kind", "murphy")
        assert code == 0
        assert set(doc["result"]["tables"]) == {"3", "2,1", "1,1,1"}

    def test_simply(self, capsys):
        code, doc, _ = run_json(
            capsys, "traces", "--n", "3", "--diagram", "1,1,1", "--kind", "simply"
        )
        assert code == 0
        assert doc["result"]["connected_traces"] == {"2": "-1", "3": "1"}

    def test_products(self, capsys):
        code, doc, _ = run_json(
            capsys,
            "traces", "--n", "4", "--diagram", "3,1", "--kind", "products", "--alphas", "2,4",
        )
        assert code == 0
        assert doc["result"]["trace"] == "q^3-2*q"

    def test_products_table_lists_alphas(self, capsys):
        code, out, _ = run_cli(capsys, "traces", "--n", "4", "--diagram", "3,1", "--kind", "products", "--alphas", "2,4")
        assert code == 0
        assert out.splitlines() == ["alphas: 2, 4", "diagram: 3,1", "kind: products", "n: 4", "trace: q^3-2*q"]

    def test_products_requires_alphas(self, capsys):
        code, doc, _ = run_json(
            capsys, "traces", "--n", "4", "--diagram", "3,1", "--kind", "products"
        )
        assert code == 1

    def test_doubly(self, capsys):
        code, doc, _ = run_json(
            capsys, "traces", "--n", "4", "--diagram", "4", "--kind", "doubly"
        )
        assert code == 0
        assert doc["result"]["doubly_connected_traces"]["g1*g3"] == "q^2"

    def test_deep_row_products(self):
        # a 1200-box row is far deeper than Python's default recursion limit
        code, doc = run_cold(
            "traces", "--n", "1200", "--kind", "products", "--diagram", "1200", "--alphas", "2,5",
            "--unsafe-large-n",
        )
        assert code == 0
        assert doc["result"]["trace"] == "q^5+q^4+q^3+q^2"


class TestVerify:
    def test_all_pass_at_four(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--n", "4")
        assert code == 0
        assert doc["result"]["all_pass"] is True
        assert doc["result"]["checks"]["fundamental_invariant_central"] is True
        assert doc["result"]["checks"]["doubly_connected_traces_agree"] is True

    def test_table_mode_prints_pass_per_invariant(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3")
        assert code == 0
        assert "fundamental_invariant_central: PASS" in out
        assert "FAIL" not in out

    @pytest.mark.parametrize("q0", ["1", "0", "-1"])
    def test_degenerate_q0_refused(self, capsys, q0):
        code, doc, _ = run_json(capsys, "verify", "--n", "3", "--q0", q0)
        assert code == 1
        assert doc["error"]["type"] == "CommandError"

    def test_rational_q0(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--n", "3", "--q0", "3/2")
        assert code == 0
        assert doc["result"]["all_pass"] is True

    @pytest.mark.parametrize("q0", ["1e100000", "1e5000", "2.5", "3 / 2"])
    def test_q0_outside_integer_or_ratio_refused(self, q0):
        # Fraction alone reads each of these, and "1e100000" as a 100001-digit integer
        code, doc = run_cold("verify", "--n", "3", "--q0", q0, timeout=10)
        assert code == 1
        assert doc["error"] == {
            "type": "CommandError", "message": f"cannot parse q0 {q0!r} (expected an integer or p/q)"
        }

    @pytest.mark.parametrize("q0", ["3/0", "3/00", "1/-2"])
    def test_q0_denominator_outside_the_grammar_refused(self, capsys, q0):
        # the rational grammar of polynomial coefficients, so no zero denominator reaches Fraction
        code, doc, _ = run_json(capsys, "verify", "--n", "3", "--q0", q0)
        assert code == 1
        assert doc["error"] == {
            "type": "CommandError", "message": f"cannot parse q0 {q0!r} (expected an integer or p/q)"
        }

    def test_q0_with_blanks_around(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--n", "3", "--q0", " 3/2 ")
        assert code == 0
        assert doc["result"]["all_pass"] is True

    def test_q0_past_the_bit_cap_refused_promptly(self):
        # the library's size guard answers before any element is built
        code, doc = run_cold("verify", "--n", "5", "--q0", "9" * 4000, timeout=10)
        assert code == 1
        assert doc["error"] == {
            "type": "ValueError", "message": f"q0's numerator and denominator are capped at {MAX_Q0_BITS} bits"
        }

    def test_q0_just_inside_the_bit_cap(self, capsys):
        largest = 2**MAX_Q0_BITS - 1
        code, doc, _ = run_json(capsys, "verify", "--n", "3", "--q0", f"-{largest}/{largest - 2}")
        assert code == 0
        assert doc["result"]["all_pass"] is True

    def test_scale_guard(self, capsys):
        # no CLI default: the library's ceiling answers, and no flag lifts it
        code, doc, _ = run_json(capsys, "verify", "--n", "8")
        assert code == 1
        assert doc["error"]["message"] == "the regular-representation oracle is capped at n <= 7"

    def test_needs_two_strands(self, capsys):
        code, doc, _ = run_json(capsys, "verify", "--n", "1")
        assert code == 1
        assert "n >= 2" in doc["error"]["message"]

    def test_unsafe_flag_meets_the_oracle_ceiling(self, capsys):
        # verify has no scale guard to lift, so the flag is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--n", "8", "--unsafe-large-n"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --unsafe-large-n" in capsys.readouterr().err

    def test_huge_n_is_refused_promptly(self):
        # the ceiling is checked before the partitions of n are listed
        code, doc = run_cold("verify", "--n", "100", timeout=10)
        assert code == 1
        assert doc["error"] == {
            "type": "ValueError",
            "message": "the regular-representation oracle is capped at n <= 7",
        }

    def test_failed_trace_check_carries_witness(self, capsys, monkeypatch):
        real = heckeq.verify.simply_connected_trace
        monkeypatch.setattr(heckeq.verify, "simply_connected_trace", lambda g, k: real(g, k) + 1)
        code, doc, _ = run_json(capsys, "verify", "--n", "3")
        assert code == 1
        result = doc["result"]
        assert result["all_pass"] is False
        assert [name for name, ok in result["checks"].items() if not ok] == ["simply_connected_traces_agree"]
        # tr(g_1) in the trivial irrep is q0 = 2; the patched symbolic side says 3
        assert result["witness"] == {
            "check": "simply_connected_traces_agree",
            "diagram": "3",
            "word": "1",
            "symbolic": "3",
            "oracle": "2",
        }

    def test_failed_element_check_names_a_basis_word(self, capsys, monkeypatch):
        real = heckeq.verify.projector_element
        monkeypatch.setattr(heckeq.verify, "projector_element", lambda g, q0: real(g, q0) * 2)
        code, doc, _ = run_json(capsys, "verify", "--n", "3")
        assert code == 1
        witness = doc["result"]["witness"]
        assert (witness["check"], witness["diagram"], witness["word"]) == ("projector_idempotent", "3", "")
        assert witness["basis_word"] == ""  # the identity, first in lexicographic order
        assert Fraction(witness["oracle"]) == 2 * Fraction(witness["symbolic"]) != 0


class TestSuq:
    def test_casimir(self, capsys):
        code, doc, _ = run_json(
            capsys, "suq", "--N", "3", "--action", "casimir", "--diagram", "1"
        )
        assert code == 0
        assert doc["result"]["casimir"] == "1+q^-4"

    def test_dimension(self, capsys):
        code, doc, _ = run_json(
            capsys, "suq", "--N", "3", "--action", "dimension", "--diagram", "2,1,0"
        )
        assert code == 0
        assert doc["result"]["dimension"] == 8

    def test_reconstruct(self, capsys):
        code, doc, _ = run_json(
            capsys, "suq", "--N", "3", "--action", "reconstruct", "--poly", "1+q^-4"
        )
        assert code == 0
        assert doc["result"]["row_lengths"] == "1,0"

    def test_check_single(self, capsys):
        code, doc, _ = run_json(
            capsys, "suq", "--N", "3", "--action", "check", "--diagram", "2,1"
        )
        assert code == 0
        assert doc["result"]["holds"] is True

    def test_check_single_with_trailing_zero(self, capsys):
        # --diagram takes trailing zeros for every action, as casimir and dimension do
        code, doc, _ = run_json(
            capsys, "suq", "--N", "3", "--action", "check", "--diagram", "2,1,0"
        )
        assert code == 0
        assert doc["result"] == {"N": 3, "action": "check", "diagram": "2,1", "holds": True}

    def test_failed_check_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(heckeq.cli, "hecke_casimir_correspondence", lambda g, N: False)
        code, doc, _ = run_json(capsys, "suq", "--N", "3", "--action", "check", "--diagram", "2,1")
        assert code == 1
        assert doc["result"] == {"N": 3, "action": "check", "diagram": "2,1", "holds": False}

    def test_check_sweep(self, capsys):
        code, doc, _ = run_json(capsys, "suq", "--N", "6", "--action", "check", "--sweep-n", "5")
        assert code == 0
        assert doc["result"]["holds"] is True
        assert doc["result"]["checked"] > 0

    def test_check_sweep_stops_at_N(self, capsys):
        # (1) and (2) for N = 2, 3; (1,1) for N = 3; (3) for N = 2, 3; (2,1) for N = 3
        code, doc, _ = run_json(capsys, "suq", "--N", "3", "--action", "check", "--sweep-n", "3")
        assert code == 0
        assert doc["result"]["checked"] == 8

    def test_failed_sweep_stops_at_the_first_failure(self, capsys, monkeypatch):
        # the third pair of the sweep, (2) at N = 2, fails; nothing after it is checked
        seen = []

        def fails_at_2_of_rank_2(g, big_n):
            seen.append((str(g), big_n))
            return (str(g), big_n) != ("2", 2)

        monkeypatch.setattr(heckeq.cli, "hecke_casimir_correspondence", fails_at_2_of_rank_2)
        code, doc, _ = run_json(capsys, "suq", "--N", "3", "--action", "check", "--sweep-n", "3")
        assert code == 1
        assert seen == [("1", 2), ("1", 3), ("2", 2)]
        assert doc["result"] == {
            "N": 3, "action": "check", "sweep_n": 3, "checked": 3, "holds": False,
            "witness": {"diagram": "2", "N": "2"},
        }

    @pytest.mark.parametrize("action, message", [
        ("check", "action=check needs --diagram or --sweep-n"),
        ("casimir", "--diagram is required for action=casimir"),
        ("dimension", "--diagram is required for action=dimension"),
        ("reconstruct", "--poly is required for action=reconstruct"),
    ])
    def test_action_without_its_input_is_refused(self, capsys, action, message):
        code, doc, _ = run_json(capsys, "suq", "--N", "3", "--action", action)
        assert code == 1
        assert doc["error"] == {"type": "CommandError", "message": message}

    @pytest.mark.parametrize("sweep_n", ["0", "-5"])
    def test_check_sweep_below_one_is_refused(self, capsys, sweep_n):
        code, doc, _ = run_json(capsys, "suq", "--N", "3", "--action", "check", "--sweep-n", sweep_n)
        assert code == 1
        assert doc["error"] == {"type": "CommandError", "message": f"--sweep-n must be at least 1, got {sweep_n}"}

    @pytest.mark.parametrize("big_n", ["-4", "0", "1"])
    def test_rank_below_two_is_refused(self, capsys, big_n):
        # no SU_q(N) exists, so an empty sweep must not report that it holds
        code, doc, _ = run_json(capsys, "suq", "--N", big_n, "--action", "check", "--sweep-n", "3")
        assert code == 1
        assert doc["error"] == {"type": "CommandError", "message": f"SU_q(N) needs N >= 2, got N = {big_n}"}

    @pytest.mark.parametrize("diagram", ["2,1,-1", "2,1,0,-3"])
    def test_negative_rows_past_the_limit_are_refused(self, capsys, diagram):
        code, doc, _ = run_json(capsys, "suq", "--N", "3", "--action", "casimir", "--diagram", diagram)
        assert code == 1
        rows = tuple(int(r) for r in diagram.split(","))
        assert doc["error"] == {
            "type": "CommandError",
            "message": f"cannot build an SU_q(3) irrep from '{diagram}': rows {rows} exceed the 2-row limit for N=3",
        }


# one command just above each scale guard, the variable it caps, and whether
# --unsafe-large-n lifts it; verify has no CLI default, only the library's ceiling
GUARDED = {
    "characters": (("characters", "--n", "9", "--method", "mn"), "n", True),
    "verify": (("verify", "--n", "8"), "n", False),
    "traces": (("traces", "--n", "25", "--kind", "simply", "--diagram", "25"), "n", True),
    "suq": (("suq", "--N", "6", "--action", "check", "--sweep-n", "25"), "n", True),
    "suq-rank": (("suq", "--N", "65", "--action", "dimension", "--diagram", "3,1"), "N", True),
}


class TestScaleGuards:
    @pytest.mark.parametrize("args,name,lifted", GUARDED.values(), ids=GUARDED.keys())
    def test_refused_above_default(self, capsys, args, name, lifted):
        code, doc, _ = run_json(capsys, *args)
        assert code == 1
        assert f"capped at {name} <= " in doc["error"]["message"]
        if lifted:
            assert doc["error"]["type"] == "CommandError"
            assert "--unsafe-large-n" in doc["error"]["message"]
        else:
            # the library's ceiling promises no override, since the flag cannot give one
            assert doc["error"]["type"] == "ValueError"
            assert "--unsafe-large-n" not in doc["error"]["message"]

    @pytest.mark.parametrize("guard", ["traces", "suq"])
    def test_unsafe_flag_lifts_partition_lattice_guard(self, capsys, guard):
        code, _, _ = run_json(capsys, *GUARDED[guard][0], "--unsafe-large-n")
        assert code == 0

    @pytest.mark.parametrize(
        "args", [("eigenvalue", "--n", "3", "--diagram", "2,1"), ("reconstruct", "--n", "3", "--poly", "q-1")]
    )
    def test_unguarded_commands_refuse_the_flag(self, capsys, args):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--unsafe-large-n"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --unsafe-large-n" in capsys.readouterr().err

    def test_unsafe_flag_lifts_rank_guard(self, capsys):
        code, doc, _ = run_json(capsys, *GUARDED["suq-rank"][0], "--unsafe-large-n")
        assert code == 0
        # hook-content formula for the rows (3, 1): N (N + 1)(N + 2)(N - 1) / (4 * 2)
        assert doc["result"]["dimension"] == 65 * 66 * 67 * 64 // 8


# int() alone reads "1_0" as 10; the one integer grammar has no "_", for q0 as for every integer
UNDERSCORED = {
    "verify q0": ("verify --n 3 --q0 1_0", "1_0"),
    "eigenvalue diagram": ("eigenvalue --n 10 --diagram 1_0", "1_0"),
    "eigenvalue n": ("eigenvalue --n 1_0 --diagram 10", "1_0"),
    "traces alphas": ("traces --n 6 --kind products --diagram 3,3 --alphas 2,0_4", "2,0_4"),
    "suq diagram": ("suq --N 3 --action casimir --diagram 1_0", "1_0"),
}


@pytest.mark.parametrize("argv, text", UNDERSCORED.values(), ids=UNDERSCORED.keys())
def test_underscored_integer_text_is_refused(capsys, argv, text):
    try:
        code = main(argv.split())
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code in (1, 2)
    assert not captured.out
    assert repr(text) in captured.err


class TestOutputDiscipline:
    def test_json_is_deterministic(self, capsys):
        _, out1, _ = run_cli(capsys, "characters", "--n", "4", "--format", "json")
        _, out2, _ = run_cli(capsys, "characters", "--n", "4", "--format", "json")
        assert out1 == out2

    def test_json_reparses_to_same_values(self, capsys):
        code, doc, _ = run_json(capsys, "traces", "--n", "4", "--kind", "murphy")
        assert code == 0
        assert json.loads(json.dumps(doc)) == doc


def test_cache_directory_cannot_change_results(tmp_path):
    # HECKEQ_CACHE_DIR once named a cache file whose entries overrode
    # computed dimensions; each command runs cold so nothing is warm yet
    (tmp_path / "heckeq_cache.json").write_text('{"version": 1, "dimensions": {"2,1": 1}}')
    env = {
        **os.environ,
        "HECKEQ_CACHE_DIR": str(tmp_path),
        "PYTHONPATH": str(pathlib.Path(heckeq.__file__).parents[1]),
    }

    def cold(*args):
        done = subprocess.run(
            [sys.executable, "-m", "heckeq.cli", *args, "--format", "json"],
            env=env, capture_output=True, text=True, check=True,
        )
        return json.loads(done.stdout)["result"]

    chars = cold("characters", "--n", "3", "--method", "projector")
    assert chars["projector"]["rows"]["2,1"]["1,1,1"] == 2
    traces = cold("traces", "--n", "4", "--kind", "murphy", "--diagram", "3,1")
    assert traces["murphy_traces"]["4"] == "2*q^2+2*q-1"


def test_import_set():
    # `-S` skips site, so no .pth file preloads a module; the package must
    # not import the slow standard modules, and must import eagerly every
    # module that bench/tracer.py reads right after `import heckeq.cli`
    src = str(pathlib.Path(heckeq.__file__).parents[1])
    code = f"import sys\nsys.path.insert(0, {src!r})\nimport heckeq.cli\nprint(' '.join(sys.modules))"
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert not loaded & {"dataclasses", "inspect", "typing"}
    layers = ("laurent", "diagrams", "invariant", "symgroup", "hecke_oracle", "traces", "suq", "cli")
    assert {f"heckeq.{name}" for name in layers} <= loaded


# every name the package exported while it kept a hand-written list, less
# `paths`, `TableauPath`, `MurphyTraceTable` and `ProjectorPoly`, which left the API
EARLIER_EXPORTS = {
    "LaurentPoly", "NotDivisible", "PolynomialParseError", "ZeroSpecialization", "exp_series",
    "q_content", "q_integer", "symmetric_bracket", "YoungDiagram", "dimension", "generic_degree",
    "partitions", "InvalidSpectrum", "NonIntegerPowerSum", "UnsupportedCycle", "central_character",
    "central_character_table", "content_power_sum",
    "invariant_eigenvalue", "power_sums_from_eigenvalue", "reconstruct_diagram",
    "rescaled_invariant_eigenvalue", "separating_depth", "ClassVector", "NonIntegerCharacter",
    "NotSeparated", "build_projector", "character_table", "character_table_json",
    "characters_from_projector", "class_product", "class_size", "conjugacy_classes", "cycle_type",
    "murnaghan_nakayama_character", "single_cycle_class_sum", "DegenerateSpecialization",
    "HeckeElement", "fundamental_invariant", "hecke_projector",
    "irreducible_trace", "murphy_element", "projector_element", "regular_trace",
    "symmetrizing_trace", "word_element", "doubly_connected_traces",
    "invariant_trace_consistency", "murphy_product_trace", "murphy_trace_table_json",
    "murphy_traces", "simply_connected_trace", "GZPattern", "PatternViolation", "SuqIrrep",
    "casimir_eigenvalue", "check_ef_commutator", "chevalley_weight", "gz_patterns",
    "hecke_casimir_correspondence", "irrep_from_casimir", "lowering_squared",
}


def test_package_exports_are_the_module_alls():
    layers = ("laurent", "diagrams", "invariant", "symgroup", "hecke_oracle", "traces", "suq")
    modules = [importlib.import_module(f"heckeq.{name}") for name in layers]
    names = [name for module in modules for name in module.__all__]
    assert heckeq.__all__ == names
    assert len(set(names)) == len(names)
    assert len(EARLIER_EXPORTS) == 62 and EARLIER_EXPORTS <= set(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(heckeq, name) is getattr(module, name)
