"""End-to-end command line tests through main()."""
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from smyth.cli import main
from smyth.errors import ParseError
from smyth.serialize import verify_doc

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "perfbench" / "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_capped(argv, stdin=None):
    """smyth as a subprocess under a 1 GiB address-space cap and a 10 s timeout."""
    def cap_address_space():
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "smyth.cli", *argv], input=stdin, capture_output=True,
        text=True, timeout=10, env=dict(os.environ, PYTHONPATH=path),
        preexec_fn=cap_address_space)


class TestCheck:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "check", "--q", "2", "--coeffs", "1;t;t+1")
        assert code == 0
        assert json.loads(out)["passes"] is True

    def test_fail_exit_one(self, capsys):
        code, out, _ = run(capsys, "check", "--q", "2", "--coeffs", "1;1;t")
        assert code == 1
        assert json.loads(out)["passes"] is False

    def test_parse_error_exit_two(self, capsys):
        code, _, err = run(capsys, "check", "--q", "2", "--coeffs", "1;;t")
        assert code == 2
        assert "coefficient 2" in err

    def test_int_ring(self, capsys):
        code, out, _ = run(capsys, "check", "--ring", "int", "--coeffs", "5;6;7")
        assert code == 0
        code, _, _ = run(capsys, "check", "--ring", "int", "--coeffs", "1;1;3")
        assert code == 1

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "check", "--q", "2", "--coeffs", "1;t;t+1",
                           "--format", "text")
        assert code == 0
        assert out.startswith("pass")


class TestFieldSizeCap:
    def test_q_past_a_machine_word_exits_two(self):
        big, huge = str(2 ** 127 - 1), str(2 ** 521 - 1)
        for argv in (["check", "--q", big, "--coeffs", "1;t;t+1"],
                     ["certify", "--q", big, "--coeffs", "1;t;t+1", "--N", "2"],
                     ["extremal", "--q", big, "--D", "2"],
                     ["heuristic", "--mode", "mc", "--q", big, "--coeffs", "1;t;t+1",
                      "--N", "1"],
                     ["enumerate", "--q", huge, "--coeffs", "1;t;t+1", "--N", "1"]):
            start = time.perf_counter()
            result = run_capped(argv)
            assert time.perf_counter() - start < 1, argv[0]
            assert (result.returncode, result.stdout) == (2, ""), argv[0]
            assert result.stderr == "error: q must fit in a machine word\n", argv[0]


class TestEnumerate:
    def test_json_count(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--q", "2",
                           "--coeffs", "1;t;t+1", "--N", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 8
        assert doc["count"] == doc["expected_count"]

    def test_csv_rows(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--q", "2",
                           "--coeffs", "1;t;t+1", "--N", "1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "x1,x2,x3"
        assert len(out.strip().splitlines()) == 3

    @pytest.mark.parametrize("q, coeffs, N, digests", [
        ("2", "1;t;t+1", "8", {
            "json": "ec7dfb01ce370751ba4bddaf6028f815259a8f8bc3febd6d381a7a26420dd030",
            "csv": "20a230ec6000e0b9190f19130bf90c5c109de3921c3a2ddc1f8a368ae4f16ebf",
            "text": "c126cfa1151b9e2c9b9b69dfcd31ab9ba86a40fdd52ef88de589610b0b6ebdd1"}),
        ("3", "1;t;2*t+1;t^2+2", "2", {
            "json": "c5b709fc3aa9becd469c87f10044d226c484257fa3e77aa7ad9a0d451b40c503",
            "csv": "1be285d4ab72051485156633d97f3d8318c1d3c56e69800696a9b527c974f946",
            "text": "9a36011ccc865364eb7b8c52c1fea1a629953afb227c3b906bd1ccac49a4830b"}),
        ("2", "1;1;t", "3", {
            "json": "083667ebe3b2898455ce1058b91e250ea091122364a44fcd1b99b1811e17c00a",
            "csv": "180eb40562751783dc3932b7c2739946af47bc9a25cbcc5e69a50c64f70da19e",
            "text": "9fe951294ca272109daef9ee6271c0cfd7b3058788d65971bc576ae72e052b0e"}),
    ], ids=["q2-n3-N8", "q3-n4-N2", "criteria-fail"])
    def test_frozen_bytes_of_every_format(self, capsys, q, coeffs, N, digests):
        import hashlib

        for fmt, digest in digests.items():
            code, out, _ = run(capsys, "enumerate", "--q", q, "--coeffs", coeffs,
                               "--N", N, "--format", fmt)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, fmt

    def test_budget_exit_two(self, capsys):
        code, _, err = run(capsys, "enumerate", "--q", "5",
                           "--coeffs", "1;t;t+1;t+2", "--N", "3",
                           "--budget", "10")
        assert code == 2


class TestCertify:
    def test_certificate_emitted(self, capsys):
        code, out, _ = run(capsys, "certify", "--q", "2",
                           "--coeffs", "1;t;t+1", "--N", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "certificate"
        assert doc["permutations"][-1] == list(range(1, doc["m"] + 1))

    def test_non_smyth_exit_one(self, capsys):
        code, _, err = run(capsys, "certify", "--q", "2",
                           "--coeffs", "1;1;t", "--N", "1")
        assert code == 1
        assert "no balanced multiset exists" in err


class TestMinimal:
    def test_found(self, capsys):
        code, out, _ = run(capsys, "minimal", "--q", "2",
                           "--coeffs", "1;t^2;t^2+t+1", "--N", "2",
                           "--size-bound", "4")
        assert code == 0
        doc = json.loads(out)
        assert doc["search"]["minimal_size"] == 3

    def test_not_found_exit_one(self, capsys):
        code, out, _ = run(capsys, "minimal", "--q", "2",
                           "--coeffs", "1;t^2;t^2+t+1", "--N", "2",
                           "--size-bound", "2")
        assert code == 1
        assert json.loads(out)["found"] is False

    def test_int_ring(self, capsys):
        code, out, _ = run(capsys, "minimal", "--ring", "int",
                           "--coeffs", "1;1;-2", "--N", "1",
                           "--size-bound", "3")
        assert code == 0

    @pytest.mark.parametrize("ring", [["--q", "2", "--coeffs", "1;t;t+1"],
                                      ["--ring", "int", "--coeffs", "1;1;-2"]],
                             ids=["fqt", "int"])
    def test_negative_N_exit_two(self, capsys, ring):
        code, out, err = run(capsys, "minimal", *ring, "--N", "-1",
                             "--size-bound", "2")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "N must be nonnegative" in err


class TestExtremal:
    def test_fqt(self, capsys):
        code, out, _ = run(capsys, "extremal", "--ring", "fqt", "--q", "2",
                           "--D", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["claimed_min"] == 3

    def test_int(self, capsys):
        code, out, _ = run(capsys, "extremal", "--ring", "int", "--D", "2")
        assert code == 0
        assert json.loads(out)["triple"] == [5, 6, 7]

    def test_missing_q_exit_two(self, capsys):
        code, _, _ = run(capsys, "extremal", "--ring", "fqt", "--D", "2")
        assert code == 2

    def test_seed_byte_identical(self, capsys):
        _, out1, _ = run(capsys, "extremal", "--ring", "fqt", "--q", "5",
                         "--D", "2", "--seed", "3")
        _, out2, _ = run(capsys, "extremal", "--ring", "fqt", "--q", "5",
                         "--D", "2", "--seed", "3")
        assert out1 == out2

    @pytest.mark.parametrize("argv, message", [
        (("--ring", "int", "--D", "17"), "prime search bound"),
        (("--ring", "int", "--D", "1000"), "prime search bound"),
        (("--ring", "fqt", "--q", "2", "--D", "65"), "factoring bound"),
        (("--ring", "fqt", "--q", "2", "--D", "300"), "factoring bound"),
    ], ids=["int-D17", "int-D1000", "fqt-q2-D65", "fqt-q2-D300"])
    def test_past_the_search_bounds_exit_two_at_once(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run(capsys, "extremal", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err


class TestHeuristic:
    def test_mc_exact(self, capsys):
        code, out, _ = run(capsys, "heuristic", "--mode", "mc", "--q", "2",
                           "--coeffs", "1;t;t+1", "--N", "1")
        assert code == 0
        doc = json.loads(out)
        assert doc["exact"] is True
        assert doc["empirical_rate"] == 0.25

    def test_mc_seed_byte_identical(self, capsys):
        args = ("heuristic", "--mode", "mc", "--q", "2", "--coeffs", "1;t;t+1",
                "--N", "2", "--family", "cyclic", "--trials", "200",
                "--seed", "5")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2

    def test_pn(self, capsys):
        code, out, _ = run(capsys, "heuristic", "--mode", "pn", "--q", "2",
                           "--d", "1", "--n", "3", "--N", "1",
                           "--group-size", "2")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["p"] - (15 / 16) ** 4) < 1e-12

    def test_scan_csv(self, capsys):
        code, out, _ = run(capsys, "heuristic", "--mode", "scan", "--q", "2",
                           "--d", "1", "--n", "3", "--growth", "1,2,3",
                           "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "N,growth_constant,log_group_size,log_p"

    def test_scan_names_a_huge_n(self, capsys):
        code, out, err = run(capsys, "heuristic", "--mode", "scan", "--q", "2", "--d", "1",
                             "--n", "1" + "0" * 400, "--growth", "1")
        assert (code, out) == (2, "")
        assert err == "error: n of 401 digits is too large for the float log|G| at N = 1\n"

    @pytest.mark.parametrize("argv, code, out", [
        (("--mode", "pn", "--N", "16", "--group-size", "6"), 0, "log p_N = -0\n"),
        (("--mode", "pn", "--N", "30", "--group-size", "6"), 0, "log p_N = -0\n"),
        (("--mode", "pn", "--N", "1000000", "--group-size", "6"), 0, "log p_N = -0\n"),
        (("--mode", "pn", "--N", "1", "--log-group-size", "1e300"), 0, "log p_N = -inf\n"),
        (("--mode", "scan", "--growth", "1", "--start", "1100"), 2, ""),
    ], ids=["pn-N16", "pn-N30", "pn-N1000000", "pn-log-size-1e300", "scan-start-1100"])
    def test_estimates_end_in_bounded_time(self, argv, code, out):
        start = time.perf_counter()
        result = run_capped(["heuristic", "--q", "2", "--d", "1", "--n", "3", *argv,
                             "--format", "text"])
        assert time.perf_counter() - start < 1
        assert (result.returncode, result.stdout) == (code, out)
        if code:
            assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        else:
            assert result.stderr == ""

    def test_infinite_estimate_is_not_written_as_json(self, capsys):
        # log p_N = -inf prints in text (above) but is not JSON
        code, out, err = run(capsys, "heuristic", "--mode", "pn", "--q", "2", "--d", "1",
                             "--n", "3", "--N", "1", "--log-group-size", "1e300")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("option", ["--log-group-size=nan", "--log-group-size=inf",
                                        "--log-group-size=-inf", "--growth=nan",
                                        "--growth=1,inf"])
    def test_non_finite_input_exit_two(self, capsys, option):
        mode = "scan" if option.startswith("--growth") else "pn"
        code, out, err = run(capsys, "heuristic", "--mode", mode, "--q", "2", "--d", "1",
                             "--n", "3", "--N", "1", option)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


class TestNumfield:
    def test_pipeline(self, capsys):
        code, out, _ = run(capsys, "numfield", "--action", "pipeline",
                           "--m", "-7", "--alpha", "w")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "numfield"
        assert doc["dimension"] == 6

    def test_check_negative(self, capsys):
        code, out, _ = run(capsys, "numfield", "--action", "check",
                           "--m", "-15", "--coeffs", "1;1;w")
        assert code == 1

    def test_rou_found(self, capsys):
        code, out, _ = run(capsys, "numfield", "--action", "rou",
                           "--m", "-3", "--coeffs", "1;1;1")
        assert code == 0
        assert json.loads(out)["common_order"] == 3

    def test_rou_not_found(self, capsys):
        code, out, _ = run(capsys, "numfield", "--action", "rou",
                           "--m", "-15", "--coeffs", "1;1;w",
                           "--max-order", "30")
        assert code == 1

    @pytest.mark.parametrize("coeffs", ["100000000000;100000000000;100000000000",
                                        f"{10**400};1;1"], ids=["1e11", "1e400"])
    def test_rou_entry_too_large_exit_two(self, capsys, coeffs):
        code, out, err = run(capsys, "numfield", "--action", "rou",
                             "--m", "-3", "--coeffs", coeffs)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "too large" in err
        assert "Traceback" not in err

    def test_large_ball_ends_in_bounded_time_and_memory(self):
        # the bridge refuses the first two balls (2,453 and 9,741 points),
        # and the third, of about 39,000, is refused before it is listed
        start = time.perf_counter()
        result = run_capped(["numfield", "--m", "-7", "--alpha", "2+w", "--n", "4"])
        assert time.perf_counter() - start < 10
        assert result.returncode in (1, 2)
        assert result.stdout == ""
        assert "Traceback" not in result.stderr

    def test_twist(self, capsys):
        code, out, _ = run(capsys, "numfield", "--action", "twist",
                           "--coeffs", "1;1;-2", "--members", "1,1,1;2,2,2",
                           "--j", "1", "--order", "3")
        assert code == 0
        assert json.loads(out)["size"] == 6


FQT_CERTIFY = ("certify", "--q", "2", "--coeffs", "1;t;t+1", "--N", "2")
NUMFIELD_M7 = ("numfield", "--m", "-7", "--alpha", "w")


class TestVerify:
    def test_round_trip_via_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, "certify", "--q", "2",
                           "--coeffs", "1;t;t+1", "--N", "2")
        path = tmp_path / "cert.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert json.loads(out2)["verified"] is True

    def test_tampered_exit_one(self, capsys, tmp_path):
        code, out, _ = run(capsys, "certify", "--q", "2",
                           "--coeffs", "1;t;t+1", "--N", "2")
        doc = json.loads(out)
        doc["kernel_vector"][0] = "t^5"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out2, _ = run(capsys, "verify", str(path))
        assert code == 1

    @pytest.mark.parametrize("name, key, value", [
        ("int-size3.json", "m", 2**63),
        ("fqt-m8-balanced.json", "tuples", ""),
    ], ids=["huge-m", "tuples-empty-string"])
    def test_hostile_field_fails_in_bounded_time_and_memory(self, name, key, value):
        # the permutation lengths are compared with m before any set of
        # range(m) is built; tuples that are not a list of rows fail
        doc = json.loads((CORPUS / name).read_text(encoding="utf-8"))
        doc[key] = value
        start = time.perf_counter()
        result = run_capped(["verify", "-"], stdin=json.dumps(doc))
        assert time.perf_counter() - start < 1
        assert result.returncode == 1
        assert json.loads(result.stdout)["verified"] is False
        assert "Traceback" not in result.stderr

    def test_dense_coefficient_times_dense_kernel_entry_exits_two(self):
        # one dense coefficient and one dense kernel entry of degree 65,535
        # over F_p, p = 2^61 - 1, need 2^32 digit products: past the budget
        rng = random.Random(7)
        q = 2**61 - 1
        doc = json.loads((CORPUS / "fqt-m8-balanced.json").read_text(encoding="utf-8"))
        doc["q"] = q
        for entries in (doc["coeffs"], doc["kernel_vector"]):
            entries[0] = "+".join(f"{rng.randrange(1, q)}*t^{j}" for j in range(65536))
        start = time.perf_counter()
        result = run_capped(["verify", "-"], stdin=json.dumps(doc))
        assert time.perf_counter() - start < 1
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1

    def test_huge_m_error_line_stays_short(self, capsys, tmp_path):
        doc = json.loads((CORPUS / "numfield-d3.json").read_text(encoding="utf-8"))
        doc["m"] = 10 ** 400
        path = tmp_path / "huge-m.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run(capsys, "verify", str(path))
        assert (code, out) == (2, "")
        assert err == ("error: an integer of 401 digits exceeds the factoring bound "
                       "18446744073709551616\n")

    def test_malformed_exit_two(self, capsys, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{]")
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2

    @pytest.mark.parametrize("argv, path", [
        (FQT_CERTIFY, ("coeffs", 0)),
        (FQT_CERTIFY, ("kernel_vector", 0)),
        (FQT_CERTIFY, ("tuples", 0, 0)),
        (NUMFIELD_M7, ("alpha",)),
        (NUMFIELD_M7, ("eigenvector", 0)),
    ], ids=["coeffs", "kernel_vector", "tuples", "alpha", "eigenvector"])
    def test_non_string_entry_exit_two(self, capsys, tmp_path, argv, path):
        _, out, _ = run(capsys, *argv)
        doc = json.loads(out)
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out2, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert out2 == ""
        assert err.startswith("error:") and "must be a string" in err

    @pytest.mark.parametrize("name, path, value", [
        ("int-size3.json", ("kernel_vector", 0), 2.5),
        ("numfield-d16.json", ("m",), 2.5),
        ("fqt-m15-certificate.json", ("q",), 2.5),
        ("numfield-d16.json", ("matrix", 1, 4), True),
    ], ids=["int-kernel-float", "numfield-m-float", "fqt-q-float", "numfield-matrix-bool"])
    def test_non_integer_number_exit_two(self, capsys, tmp_path, name, path, value):
        doc = json.loads((CORPUS / name).read_text(encoding="utf-8"))
        target = doc
        for key in path[:-1]:
            target = target[key]
        assert type(target[path[-1]]) is int and target[path[-1]] == int(value)
        target[path[-1]] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "must be an integer" in err

    @pytest.mark.parametrize("name, field, value, message", [
        ("fqt-m8-balanced.json", "q", 4, "q must be prime"),
        ("extremal-fqt-q2.json", "q", 9, "q must be prime"),
        ("numfield-d3.json", "m", 1, "m must not be 0 or 1"),
    ], ids=["fqt-q4", "extremal-q9", "numfield-m1"])
    def test_invalid_field_parameter_exit_two(self, capsys, tmp_path, name, field, value,
                                              message):
        doc = json.loads((CORPUS / name).read_text(encoding="utf-8"))
        doc[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(bad))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("value", ["110", 3, None, {"0": 1}],
                             ids=["string", "number", "null", "object"])
    @pytest.mark.parametrize("name, field", [
        ("fqt-m8-balanced.json", "permutations"),
        ("fqt-m8-balanced.json", "coeffs"),
        ("int-size3.json", "kernel_vector"),
        ("numfield-d3.json", "matrix"),
        ("numfield-d3.json", "eigenvector"),
        ("extremal-int.json", "triple"),
        ("extremal-fqt-q2.json", "triple"),
    ], ids=["permutations", "coeffs", "kernel_vector", "matrix", "eigenvector",
            "int-triple", "fqt-triple"])
    def test_non_list_field_exit_two(self, capsys, tmp_path, name, field, value):
        doc = json.loads((CORPUS / name).read_text(encoding="utf-8"))
        doc[field] = value
        message = f"{field} must be a list, not {type(value).__name__}"
        with pytest.raises(ParseError, match=message):
            verify_doc(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(bad))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("field", ["coeffs", "kernel_vector"])
    def test_list_field_joined_into_one_string_exit_two(self, capsys, tmp_path, field):
        # each entry of this certificate is one character, so the joined
        # string would read as the list if a string were iterated
        _, out, _ = run(capsys, "certify", "--q", "2", "--coeffs", "1;1;1", "--N", "1")
        doc = json.loads(out)
        doc[field] = "".join(doc[field])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out2, err = run(capsys, "verify", str(bad))
        assert (code, out2) == (2, "")
        assert err == f"error: {field} must be a list, not str\n"

    def test_tuples_rows_as_strings_exit_one(self, capsys, tmp_path):
        _, out, _ = run(capsys, "certify", "--q", "2", "--coeffs", "1;1;1", "--N", "1")
        doc = json.loads(out)
        doc["tuples"] = ["".join(row) for row in doc["tuples"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out2, _ = run(capsys, "verify", str(bad))
        assert code == 1
        assert json.loads(out2)["verified"] is False

    @pytest.mark.parametrize("name, triple", [
        ("extremal-int.json", [92, 139, 139]),
        ("extremal-fqt-q2.json", ["t^2", "t^4+t+1", "t^4+t+1"]),
    ], ids=["int", "fqt"])
    def test_triple_with_no_order_bound_exit_one(self, capsys, tmp_path, name, triple):
        # -a/b is no unit mod c, so no order bound exists and the claim is false
        doc = json.loads((CORPUS / name).read_text(encoding="utf-8"))
        doc["triple"] = triple
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(bad))
        assert (code, err) == (1, "")
        assert json.loads(out)["verified"] is False

    @pytest.mark.parametrize("name, field, value", [
        ("numfield-d3.json", "dimension", 4),
        ("numfield-d3.json", "strategy", "as-built"),
        ("numfield-d3.json", "covering_radius_squared", "1/2"),
        ("numfield-d56.json", "dimension", 55),
        ("numfield-d56.json", "strategy", "sink class"),
        ("numfield-d56.json", "covering_radius_squared", "4/7"),
    ], ids=["dimension", "strategy", "covering-radius", "d56-dimension", "d56-strategy",
            "d56-covering-radius"])
    def test_derived_numfield_field_edited_exit_one(self, capsys, tmp_path, name, field,
                                                    value):
        # the document verifies as stored; editing that one field refutes it
        doc = json.loads((CORPUS / name).read_text(encoding="utf-8"))
        assert verify_doc(doc) and doc[field] != value
        doc[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(bad))
        assert (code, err) == (1, "")
        assert json.loads(out)["verified"] is False

    @pytest.mark.parametrize("field, value, message", [
        ("dimension", "3", "dimension must be an integer, not str"),
        ("dimension", True, "dimension must be an integer, not bool"),
        ("strategy", 1, "strategy must be a string, not int"),
        ("covering_radius_squared", 0.5, "covering_radius_squared must be a string, not float"),
    ], ids=["dimension-string", "dimension-bool", "strategy-number", "covering-radius-float"])
    def test_derived_numfield_field_of_wrong_type_exit_two(self, capsys, tmp_path, field,
                                                          value, message):
        doc = json.loads((CORPUS / "numfield-d3.json").read_text(encoding="utf-8"))
        doc[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(bad))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_derived_numfield_fields_may_be_left_out(self):
        doc = json.loads((CORPUS / "numfield-d3.json").read_text(encoding="utf-8"))
        for field in ("dimension", "strategy", "covering_radius_squared"):
            del doc[field]
        assert verify_doc(doc)

    @pytest.mark.parametrize("D", [0, 1, 8, 17])
    def test_integer_extremal_D_edited_exit_one(self, capsys, tmp_path, D):
        # D fixes the prime the construction takes, and 139 is the one for D = 5
        doc = json.loads((CORPUS / "extremal-int.json").read_text(encoding="utf-8"))
        assert doc["D"] == 5
        doc["D"] = D
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", str(bad))
        assert (code, err) == (1, "")
        assert json.loads(out)["verified"] is False

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no int-string digit limit")
    @pytest.mark.parametrize("name, key, value", [
        ("fqt-m8-balanced.json", "kernel_vector", "1" * 5000 + "*t"),
        ("numfield-d10.json", "eigenvector", "1" * 5000 + "+w"),
    ], ids=["fqt-kernel-entry", "numfield-eigenvector-entry"])
    def test_number_past_the_digit_limit_exits_two(self, name, key, value):
        # Python refuses to convert an int string of more than 4,300 digits
        doc = json.loads((CORPUS / name).read_text(encoding="utf-8"))
        doc[key][0] = value
        result = run_capped(["verify", "-"], stdin=json.dumps(doc))
        assert (result.returncode, result.stdout) == (2, "")
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "digits" in result.stderr and "Traceback" not in result.stderr

    @pytest.mark.parametrize("name, field, value, code", [
        ("fqt-m15-certificate.json", "coeffs", ["t^100000000", "t", "t+1"], 2),
        ("extremal-fqt-q2.json", "D", 10**12, 1),
        # the unit group of a degree-300 modulus is too large to factor
        ("extremal-fqt-q2.json", "triple", ["t^2", "t^4+1", "t^300+t+1"], 2),
    ], ids=["degree-1e8", "extremal-D-1e12", "extremal-modulus-degree-300"])
    def test_huge_field_answered_quickly(self, capsys, tmp_path, name, field, value, code):
        doc = json.loads((CORPUS / name).read_text(encoding="utf-8"))
        doc[field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        start = time.perf_counter()
        got, _, _ = run(capsys, "verify", str(bad))
        assert got == code
        assert time.perf_counter() - start < 1.0

    def test_missing_file_exit_two(self, capsys):
        code, _, _ = run(capsys, "verify", "/nonexistent/cert.json")
        assert code == 2

    def test_dimension_1030_numfield_certificate(self, capsys, tmp_path):
        code, out, _ = run(capsys, "numfield", "--m", "-1", "--alpha", "1+w",
                           "--n", "5")
        assert code == 0
        assert json.loads(out)["dimension"] == 1030
        path = tmp_path / "numfield.json"
        path.write_text(out)
        code, out2, _ = run(capsys, "verify", str(path))
        assert code == 0
        assert json.loads(out2)["verified"] is True

    def test_dimension_511_certificate_from_stdin(self, capsys, monkeypatch):
        code, out, _ = run(capsys, "certify", "--q", "2",
                           "--coeffs", "1;t;t+1", "--N", "5")
        assert code == 0
        assert json.loads(out)["m"] == 511
        monkeypatch.setattr("sys.stdin", io.StringIO(out))
        code, out2, _ = run(capsys, "verify", "-")
        assert code == 0
        assert json.loads(out2)["verified"] is True


class TestBatch:
    def grid(self, tmp_path, rows):
        path = tmp_path / "grid.csv"
        path.write_text("q,N,coeffs\n" + "\n".join(rows) + "\n")
        return str(path)

    def test_all_ok(self, capsys, tmp_path):
        path = self.grid(tmp_path, ["2,1,1;t;t+1", "2,2,1;t;t+1", "3,1,1;t;t+1"])
        code, out, _ = run(capsys, "batch", "--grid", path, "--format", "csv")
        assert code == 0
        assert out.count(",ok,") == 3

    def test_not_applicable_still_ok(self, capsys, tmp_path):
        path = self.grid(tmp_path, ["2,1,1;t;t+1", "2,1,1;1;t"])
        code, out, _ = run(capsys, "batch", "--grid", path, "--format", "csv")
        assert code == 0
        assert "not-applicable" in out

    def test_empty_exit_two(self, capsys, tmp_path):
        path = self.grid(tmp_path, [])
        code, _, _ = run(capsys, "batch", "--grid", path)
        assert code == 2

    def test_jobs_is_a_usage_error(self, capsys, tmp_path):
        path = self.grid(tmp_path, ["2,1,1;t;t+1"])
        with pytest.raises(SystemExit) as exc:
            main(["batch", "--grid", path, "--jobs", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    def test_row_without_coeffs_exit_two(self, capsys, tmp_path):
        path = self.grid(tmp_path, ["2,1"])
        code, out, err = run(capsys, "batch", "--grid", path)
        assert (code, out) == (2, "")
        assert err == "error: grid row 1 must have integer q, integer N, and coeffs\n"

    def test_row_far_past_the_budget_is_an_error_row(self, capsys, tmp_path):
        path = self.grid(tmp_path, ["2,1,1;t;t+1", "3,10000000,1;t;t+1"])
        start = time.perf_counter()
        code, out, _ = run(capsys, "batch", "--grid", path, "--format", "csv")
        assert time.perf_counter() - start < 1
        assert code == 1
        assert out.splitlines()[2] == ('3,10000000,1;t;t+1,error,,,,"enumeration needs '
                                       '3^20000000 candidates, budget is 16777216"')


class TestBudgetEnv:
    def test_env_budget_applies(self, capsys, monkeypatch):
        monkeypatch.setenv("SMYTH_BUDGET", "10")
        code, _, _ = run(capsys, "enumerate", "--q", "5",
                         "--coeffs", "1;t;t+1;t+2", "--N", "3")
        assert code == 2

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SMYTH_BUDGET", "10")
        code, _, _ = run(capsys, "enumerate", "--q", "2",
                         "--coeffs", "1;t;t+1", "--N", "1",
                         "--budget", str(1 << 22))
        assert code == 0

    def test_invalid_env_exit_two(self, capsys, monkeypatch):
        monkeypatch.setenv("SMYTH_BUDGET", "lots")
        code, _, err = run(capsys, "enumerate", "--q", "2",
                           "--coeffs", "1;t;t+1", "--N", "1")
        assert code == 2
