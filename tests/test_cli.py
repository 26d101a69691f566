import json
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import heckeq
import heckeq.verify
from heckeq.cli import main
from heckeq.diagrams import partitions
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
        monkeypatch.setattr(heckeq.verify, "projector_element", lambda p: real(p) * 2)
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
