import ast
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from char2forms import groups
from char2forms.cli import build_parser, main, parse_document
from char2forms.errors import CheckFailed
from char2forms.fields import MAX_DEGREE, MAX_NESTING
from char2forms.forms import BilinearForm, quadratic_data
from char2forms.linalg import Matrix


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


IDENT_GF2 = """\
field: gf2
gram:
1 0 0 0
0 1 0 0
0 0 1 0
0 0 0 1
"""

H1_F2T = """\
field: ratfunc(gf2,t)
gram:
t 0 0 0
0 1 0 0
0 0 1 0
0 0 0 1
"""

H2_F2T = """\
field: ratfunc(gf2,t)
gram:
t 0 0 0
0 t 0 0
0 0 1 0
0 0 0 1
"""

DEFECT0 = """\
field: ratfunc(ratfunc(gf2,t),u)
gram:
1 0 0 0
0 t 0 0
0 0 u 0
0 0 0 tu
"""

SWAP_GF2 = """\
field: gf2
matrix:
0 1
1 0
"""

GOLDEN_ANALYZE_IDENT = """\
command: analyze
field: gf2
dimension: 4
alternating: no
degenerate: no
orthogonal basis columns:
  1 0 0 0
  0 1 0 0
  0 0 1 0
  0 0 0 1
diagonal: 1 1 1 1
range dimension: 1
defect: 3
kernel of q (rows):
  1 1 0 0
  1 0 1 0
  1 0 0 1
discriminant: 1 (square)
volume scale: 1
delta: 1
K algebra: split (local ring with nilpotents)
g gram over K, basis (1,2) (1,3) (1,4):
  1 0 0
  0 1 0
  0 0 1
"""

GOLDEN_DECOMPOSE_SWAP = """\
command: decompose
ring: gf2
input:
  0 1
  1 0
word: U(1) L(1) U(1)
product:
  0 1
  1 0
check word reproduces input: PASS
"""


def test_analyze_golden(tmp_path, capsys):
    path = _write(tmp_path, "ident.txt", IDENT_GF2)
    assert main(["analyze", path]) == 0
    assert capsys.readouterr().out == GOLDEN_ANALYZE_IDENT


def test_decompose_golden(tmp_path, capsys):
    path = _write(tmp_path, "swap.txt", SWAP_GF2)
    assert main(["decompose", path]) == 0
    assert capsys.readouterr().out == GOLDEN_DECOMPOSE_SWAP


def test_output_deterministic(tmp_path, capsys):
    path = _write(tmp_path, "h1.txt", H1_F2T)
    assert main(["analyze", path]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", path]) == 0
    assert capsys.readouterr().out == first
    assert "defect: 2" in first
    assert "delta: t" in first
    assert "non-split" in first


def test_machine_mode(tmp_path, capsys):
    path = _write(tmp_path, "ident.txt", IDENT_GF2)
    assert main(["analyze", path, "--machine"]) == 0
    out = capsys.readouterr().out
    assert "defect=3" in out
    assert "delta=1" in out
    for line in out.strip().splitlines():
        assert "=" in line


def test_classify_gf2(tmp_path, capsys):
    path = _write(tmp_path, "ident.txt", IDENT_GF2)
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "case: defect3" in out
    assert "predicted order: 48" in out
    assert "generated order: 48" in out
    assert "oracle order (full_gl_scan): 48" in out
    assert "check oracle agrees with generated group: PASS" in out


def test_classify_h2(tmp_path, capsys):
    path = _write(tmp_path, "h2.txt", H2_F2T)
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "case: defect2_split" in out
    assert "(F^3, +)" in out


def test_classify_defect0(tmp_path, capsys):
    path = _write(tmp_path, "d0.txt", DEFECT0)
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "case: defect0" in out
    assert "trivial" in out
    assert "sharply transitive" in out


DEFECT1 = """\
field: ratfunc(ratfunc(gf2,t),u)
gram:
0 1 0 0
1 1 0 0
0 0 t 0
0 0 0 u
"""


def test_classify_defect1(tmp_path, capsys):
    path = _write(tmp_path, "d1.txt", DEFECT1)
    assert main(["classify", path]) == 0
    out = capsys.readouterr().out
    assert "case: defect1" in out
    assert "(F, +)" in out


def test_verify_passes(tmp_path, capsys):
    for doc in (IDENT_GF2, H1_F2T):
        path = _write(tmp_path, "form.txt", doc)
        assert main(["verify", path]) == 0
        out = capsys.readouterr().out
        assert "result: all checks passed" in out
        assert "FAIL" not in out


VERIFY_F2TU = """\
field: ratfunc(ratfunc(gf2,t),u)
gram:
u 0 u 0
0 t 0 0
u 0 u+1 0
0 0 0 1
"""


def _child_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))


def test_verify_f2tu_finishes(tmp_path):
    # the sampled Pq(X)^2 check squares Pq of random nested fractions; run in a
    # child so that a stall fails on the timeout instead of hanging the suite
    path = _write(tmp_path, "f2tu.txt", VERIFY_F2TU)
    child = subprocess.run([sys.executable, "-m", "char2forms.cli", "verify", path],
                           capture_output=True, env=_child_env(), timeout=30)
    assert child.returncode == 0, child.stderr.decode()
    assert "result: all checks passed" in child.stdout.decode().splitlines()


def test_verify_gf16_finishes(tmp_path):
    # GF(16) is above the exhaustive Klein-quadric bound (16^6 vectors), so
    # verify takes the seeded sampled check
    path = _write(tmp_path, "ident.txt", IDENT_GF2.replace("field: gf2", "field: gf2k:4:19"))
    child = subprocess.run([sys.executable, "-m", "char2forms.cli", "verify", path],
                           capture_output=True, env=_child_env(), timeout=30)
    assert child.returncode == 0, child.stderr.decode()
    lines = child.stdout.decode().splitlines()
    assert any(line.startswith("check Pq(X)^2 = s*det(altX), sampled, s = 1: PASS")
               for line in lines), lines
    assert "result: all checks passed" in lines


NO_SAMPLED_SCALAR_CHILD = """\
import sys
from char2forms.cli import main
from char2forms.fields import RationalFunctionField

assert sys.flags.optimize == 1
RationalFunctionField.random_element = lambda field, rng, size=2: field.zero()
sys.exit(main(["verify", sys.argv[1]]))
"""


def test_sampled_klein_check_without_a_scalar_fails(tmp_path, capsys, monkeypatch):
    # every sampled X = 0 has det(alt X) = 0, so no s is measured; like the
    # exhaustive branch's NoConsistentScalar, that is a failed check, also
    # under python -O
    from char2forms.fields import RationalFunctionField
    path = _write(tmp_path, "h1.txt", H1_F2T)
    line = ("check Pq(X)^2 = s*det(altX), sampled, s = None: FAIL "
            "(no sampled X has det(alt X) != 0)")
    monkeypatch.setattr(RationalFunctionField, "random_element",
                        lambda field, rng, size=2: field.zero())
    assert main(["verify", path]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert line in lines and "result: 1 check(s) failed" in lines
    child = subprocess.run([sys.executable, "-O", "-c", NO_SAMPLED_SCALAR_CHILD, path],
                           capture_output=True, env=_child_env(), timeout=60)
    assert child.returncode == 1, child.stderr.decode()
    assert child.stdout.decode().splitlines() == lines


def test_classify_gf4_decodes_no_closure_element(tmp_path, capsys, monkeypatch):
    # classify compares the closure with the oracle on payload rows; decoding
    # an element into a Matrix is not needed for any printed line
    from char2forms._smallfield import IntField
    path = _write(tmp_path, "ident.txt", IDENT_GF2.replace("field: gf2", "field: gf2k:2:7"))
    assert main(["classify", path]) == 0
    expected = capsys.readouterr().out
    assert "generated order: 3840" in expected.splitlines()

    def no_decode(intf, rows):
        raise AssertionError("decoded a matrix")
    monkeypatch.setattr(IntField, "decode_matrix", no_decode)
    assert main(["classify", path]) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("field, completions", [("gf2", 4), ("gf2k:2:7", 4),
                                                ("gf2k:3:11", 5)])
def test_classify_lists_neither_group(field, completions, tmp_path, capsys, monkeypatch):
    # classify proves <gens> = O(V,h) from the orders of two stabilizer
    # chains: the oracle's column search reaches a completion only for a
    # candidate that the isometries found so far do not reach (4, 4 and 5 on
    # the identity form, against transversals of 8+3+2+1, 64+15+4+1 and
    # 512+63+8+1) and splits each into rows once, and neither group is listed
    from char2forms import _smallfield, oracle
    from char2forms._smallfield import IntField
    path = _write(tmp_path, "ident.txt", IDENT_GF2.replace("field: gf2", f"field: {field}"))
    assert main(["classify", path]) == 0
    expected = capsys.readouterr().out
    calls = {"split_rows": 0, "mat_mul": 0}

    def counting(name):
        real = getattr(IntField, name)

        def wrapper(self, *args):
            calls[name] += 1
            return real(self, *args)
        return wrapper

    def no_listing(*args):
        raise AssertionError("listed the elements of a group")

    for name in calls:
        monkeypatch.setattr(IntField, name, counting(name))
    monkeypatch.setattr(oracle, "chain_products", no_listing)
    monkeypatch.setattr(_smallfield, "chain_products", no_listing)
    assert main(["classify", path]) == 0
    assert capsys.readouterr().out == expected
    assert "check oracle agrees with generated group: PASS" in expected.splitlines()
    assert calls["split_rows"] == completions
    if field == "gf2k:2:7":
        # fewer products than the group has elements (3,840)
        assert calls["mat_mul"] < 1000


@pytest.mark.parametrize("field, predicted", [("gf2k:3:11", 258048),
                                              ("gf2k:4:19", 16711680)])
def test_classify_large_finite_field_gives_verdict(tmp_path, field, predicted):
    # the GF(8) group is proved equal to the oracle's from the orders of two
    # stabilizer chains; GF(16) is above MAX_VERIFIED_ORDER, and classify
    # still reports its verdict, with the order marked as not machine-verified
    path = _write(tmp_path, "ident.txt", IDENT_GF2.replace("field: gf2", f"field: {field}"))
    child = subprocess.run([sys.executable, "-m", "char2forms.cli", "classify", path],
                           capture_output=True, env=_child_env(), timeout=30)
    assert child.returncode == 0, child.stderr.decode()
    lines = child.stdout.decode().splitlines()
    assert "case: defect3" in lines
    assert f"predicted order: {predicted}" in lines
    if field == "gf2k:3:11":
        assert f"generated order: {predicted}" in lines
        assert f"oracle order (backtracking): {predicted}" in lines
        assert "check oracle agrees with generated group: PASS" in lines
        assert "check oracle agrees with predicted order: PASS" in lines
        assert not any("not machine-verified" in line for line in lines)
    else:
        assert not any(line.startswith(("generated order", "oracle order")) for line in lines)
        assert any(line.startswith("note: predicted order not machine-verified")
                   for line in lines)


DIAGONAL_GF4 = """\
field: gf2k:2:7
gram:
g 0 0 0
0 1 0 0
0 0 g+1 0
0 0 0 g
"""


def test_verify_gf4_random_diagonal(tmp_path, capsys):
    path = _write(tmp_path, "gf4.txt", DIAGONAL_GF4)
    assert main(["verify", path]) == 0
    out = capsys.readouterr().out
    assert "result: all checks passed" in out


def test_verify_corrupted_j_fails(tmp_path, capsys):
    path = _write(tmp_path, "ident.txt", IDENT_GF2)
    assert main(["verify", path, "--corrupt-j"]) == 1
    out = capsys.readouterr().out
    assert "check J^2 = delta*id: FAIL" in out
    assert "check(s) failed" in out


def test_verify_of_a_diagonal_form_takes_its_compound_once(tmp_path, capsys, monkeypatch):
    # a diagonal input is its own orthogonal basis: the module is built on
    # the Hodge data of the input, taken before --corrupt-j replaces J, so
    # Lambda^2 H is formed once and the module checks read the true J
    path = _write(tmp_path, "gf4.txt", DIAGONAL_GF4)
    calls = []
    real = Matrix.minors

    def counting(m, *args):
        calls.append(m)
        return real(m, *args)
    monkeypatch.setattr(Matrix, "minors", counting)
    assert main(["verify", path]) == 0
    passed = capsys.readouterr().out.splitlines()
    assert len(calls) == 1 and calls[0].is_diagonal()
    calls.clear()
    assert main(["verify", path, "--corrupt-j"]) == 1
    corrupted = capsys.readouterr().out.splitlines()
    assert len(calls) == 1
    module = passed.index("check g two-formula agreement: PASS")
    assert corrupted[module:-1] == passed[module:-1]
    assert "check J^2 = delta*id: FAIL (matrix mismatch)" in corrupted


def test_volume_scale_flag(tmp_path, capsys):
    path = _write(tmp_path, "h2.txt", H2_F2T)
    assert main(["analyze", path, "--volume-scale", "t"]) == 0
    out = capsys.readouterr().out
    assert "volume scale: t" in out
    assert "delta: 1" in out  # det = t^2 over b^2 = t^2


def test_parse_error_exit_2(tmp_path, capsys):
    doc = "field: ratfunc(gf2,t)\ngram:\nt^ 1\n1 0\n"
    path = _write(tmp_path, "bad.txt", doc)
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert "bad.txt:3" in err


def test_unknown_variable_exit_2(tmp_path, capsys):
    doc = "field: gf2\ngram:\nx 0\n0 1\n"
    path = _write(tmp_path, "bad.txt", doc)
    assert main(["analyze", path]) == 2


def _deep_entry(depth, signs=0):
    """IDENT_GF2 with its first entry behind `signs` unary minus signs and
    inside `depth` parentheses."""
    entry = "-" * signs + "(" * depth + "1" + ")" * depth
    return IDENT_GF2.replace("gram:\n1 ", f"gram:\n{entry} ", 1)


def _run_child(flags, argv):
    return subprocess.run([sys.executable, *flags, "-m", "char2forms.cli", *argv],
                          capture_output=True, env=_child_env(), timeout=30)


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 300, 5000])
def test_deep_nesting_exits_2_without_traceback(tmp_path, capsys, depth):
    path = _write(tmp_path, "deep.txt", _deep_entry(depth))
    for command in ("analyze", "classify", "verify"):
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert f"parentheses nest deeper than {MAX_NESTING}" in err
    for flags in ([], ["-O"]):
        child = _run_child(flags, ["analyze", path])
        err = child.stderr.decode()
        assert child.returncode == 2, err
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 1200])
def test_deep_field_descriptor_exits_2_without_traceback(tmp_path, capsys, depth):
    # ratfunc( levels are peeled in a loop; past MAX_NESTING they are refused
    descriptor = "ratfunc(" * depth + "gf2" + ",t)" * depth
    path = _write(tmp_path, "deep.txt", IDENT_GF2.replace("field: gf2", f"field: {descriptor}"))
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert f"ratfunc descriptors nest deeper than {MAX_NESTING}" in err
    for flags in ([], ["-O"]):
        child = _run_child(flags, ["analyze", path])
        err = child.stderr.decode()
        assert child.returncode == 2, err
        assert err.startswith("error: ") and "Traceback" not in err


def test_field_descriptor_levels_parse_up_to_the_tower(tmp_path, capsys):
    doc = "field: ratfunc( ratfunc(gf2 ,t) , u )\ngram:\nt 0\n0 u\n"
    assert main(["analyze", _write(tmp_path, "tu.txt", doc)]) == 0
    assert "field: ratfunc(ratfunc(gf2,t),u)" in capsys.readouterr().out
    # within MAX_NESTING levels, a repeated variable is the tower's error
    descriptor = "ratfunc(" * MAX_NESTING + "gf2" + ",t)" * MAX_NESTING
    path = _write(tmp_path, "tt.txt", IDENT_GF2.replace("field: gf2", f"field: {descriptor}"))
    assert main(["analyze", path]) == 2
    assert "variable 't' already used in this tower" in capsys.readouterr().err


def test_parse_error_quotes_a_long_entry_by_head_and_length(tmp_path, capsys):
    path = _write(tmp_path, "deep.txt", _deep_entry(5000))
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    head = "(" * 40
    assert f"entry 1 ('{head}'..., 10001 characters): parentheses nest" in err
    assert err.startswith("error: ") and len(err) < len(path) + 150
    # a short entry is quoted in full
    assert main(["analyze", _write(tmp_path, "x.txt", "field: gf2\ngram:\n(1 0\n0 1\n")]) == 2
    assert "entry 1 ('(1'): expected ')'" in capsys.readouterr().err


def test_verify_reads_no_single_entry_in_cli(tmp_path, capsys, monkeypatch):
    # the report's checks, "Pf alternating (zero diagonal)" among them, read
    # payload rows; an entry read from cli.py would build an element
    read_from = []
    getitem = Matrix.__getitem__

    def recording(self, key):
        read_from.append(Path(sys._getframe(1).f_code.co_filename).name)
        return getitem(self, key)
    monkeypatch.setattr(Matrix, "__getitem__", recording)
    for doc in (IDENT_GF2, H1_F2T):
        assert main(["verify", _write(tmp_path, "doc.txt", doc)]) == 0
        assert "check Pf alternating (zero diagonal): PASS" in capsys.readouterr().out
    assert "cli.py" not in read_from and "forms.py" in read_from


# seeded random symmetric F2(t)(u) forms, each classified and analyzed
# in-process within a per-command bound: fraction growth in nested F2(t)(u)
# arithmetic once took 12-26 s on two of them
SWEEP_TOKENS = "0 0 1 t u t+u tu u^2+t u+1 t+1 1/u t/(u+1)".split()


def test_random_f2tu_forms_classify_and_analyze_within_5_s(tmp_path, capsys):
    rng = random.Random(4)
    for k in range(40):
        gram = [[""] * 4 for _ in range(4)]
        for i in range(4):
            for j in range(i, 4):
                gram[i][j] = gram[j][i] = rng.choice(SWEEP_TOKENS)
        doc = "field: ratfunc(ratfunc(gf2,t),u)\ngram:\n"
        path = _write(tmp_path, f"form{k}.txt", doc + "".join(" ".join(r) + "\n" for r in gram))
        for command in ("classify", "analyze"):
            start = time.perf_counter()
            code = main([command, path])
            seconds = time.perf_counter() - start
            err = capsys.readouterr().err
            assert code == 0, (k, command, err)
            assert seconds < 5, (k, command, seconds)


def test_entries_at_the_nesting_bound_and_long_signs_parse(tmp_path, capsys):
    path = _write(tmp_path, "entry.txt", IDENT_GF2)
    assert main(["analyze", path]) == 0
    expected = capsys.readouterr().out
    for depth, signs in ((MAX_NESTING, 0), (0, 5000), (MAX_NESTING, 5000)):
        path = _write(tmp_path, "entry.txt", _deep_entry(depth, signs))
        assert main(["analyze", path]) == 0
        assert capsys.readouterr().out == expected
        for flags in ([], ["-O"]):
            child = _run_child(flags, ["analyze", path])
            assert child.returncode == 0, child.stderr.decode()
            assert child.stdout.decode() == expected


def _large_entry_doc(entry, field="ratfunc(gf2,t)"):
    """A non-degenerate, non-alternating 4x4 form with `entry` first."""
    return f"field: {field}\ngram:\n{entry} 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 t\n"


_HALF = MAX_DEGREE // 2
# entries refused before their large sum, product or power is computed
LARGE_EXPONENTS = {
    "sparse": "t^1000000",
    "dense": f"(t^2+t+1)^{_HALF + 1}",
    "many_powers": "*".join(["(t+1)^1024"] * (MAX_DEGREE // 1024)) + "*t",
    "sum": f"1/(t^{MAX_DEGREE}+1)+1/(t^{MAX_DEGREE}+t+1)",
    "f2tu": f"(t^{MAX_DEGREE}+1)*u",
    "long_exponent": "t^" + "9" * 5000,
}
# entries at the bound, which parse and run
AT_DEGREE_BOUND = {
    "sparse": f"t^{MAX_DEGREE}",
    "dense": f"(t^2+t+1)^{_HALF - 1}",
    "many_powers": "*".join(["(t+1)^1024"] * (MAX_DEGREE // 1024)),
}


@pytest.mark.parametrize("name", sorted(LARGE_EXPONENTS))
def test_large_exponent_exits_2_without_traceback(tmp_path, capsys, name):
    field = "ratfunc(ratfunc(gf2,t),u)" if name == "f2tu" else "ratfunc(gf2,t)"
    path = _write(tmp_path, "large.txt", _large_entry_doc(LARGE_EXPONENTS[name], field))
    for command in ("analyze", "classify", "verify"):
        assert main([command, path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        # a literal past the interpreter's limit on digits fails to tokenize
        assert name == "long_exponent" or f"could exceed degree {MAX_DEGREE}" in err
    for flags in ([], ["-O"]):
        start = time.perf_counter()
        child = _run_child(flags, ["analyze", path])
        err = child.stderr.decode()
        assert child.returncode == 2, err
        assert err.startswith("error: ") and "Traceback" not in err
        assert time.perf_counter() - start < 10


@pytest.mark.parametrize("name", sorted(AT_DEGREE_BOUND))
def test_entries_at_the_degree_bound_run(tmp_path, name):
    path = _write(tmp_path, "bound.txt", _large_entry_doc(AT_DEGREE_BOUND[name]))
    for flags in ([], ["-O"]):
        start = time.perf_counter()
        child = _run_child(flags, ["analyze", path])
        assert child.returncode == 0, child.stderr.decode()
        assert time.perf_counter() - start < 10


def test_decompose_rejects_det_not_one(tmp_path, capsys):
    doc = "field: gf2\nmatrix:\n1 1\n1 1\n"
    path = _write(tmp_path, "sing.txt", doc)
    assert main(["decompose", path]) == 2
    err = capsys.readouterr().err
    assert "determinant" in err


def test_decompose_over_split_k(tmp_path, capsys):
    # [[1+z, z], [z, 1+z]] with z = 1+j over the split algebra: 1+z = j
    doc = """\
field: gf2
ring: k(1)
matrix:
j 1+j
1+j j
"""
    path = _write(tmp_path, "kmat.txt", doc)
    assert main(["decompose", path]) == 0
    out = capsys.readouterr().out
    assert "check word reproduces input: PASS" in out
    assert out.startswith("command: decompose\nring: k(1) over gf2")
    # the (1,1) entry j is invertible, so the four-letter branch fires
    assert out.count("L(") + out.count("U(") == 4


def test_missing_file_exit_2(capsys):
    assert main(["analyze", "/nonexistent/nope.txt"]) == 2


def test_asymmetric_gram_rejected(tmp_path, capsys):
    doc = "field: gf2\ngram:\n1 1\n0 1\n"
    path = _write(tmp_path, "asym.txt", doc)
    assert main(["analyze", path]) == 2


def test_alternating_gram_rejected(tmp_path, capsys):
    doc = "field: gf2\ngram:\n0 1\n1 0\n"
    path = _write(tmp_path, "alt.txt", doc)
    assert main(["analyze", path]) == 2
    err = capsys.readouterr().err
    assert "alternating" in err


@pytest.mark.parametrize("argv, code", [
    (["analyze", "{ident}"], 0),
    (["verify", "{ident}", "--corrupt-j"], 1),
    (["analyze", "{bad}"], 2),
    (["analyze", "/nonexistent/nope.txt"], 2),
    (["analyze", "{ident}", "--volume-scale", "0"], 2),
    (["verify", "{ident}", "--volume-scale", "0"], 2),
])
def test_exit_code_contract(tmp_path, capsys, argv, code):
    paths = {"ident": _write(tmp_path, "ident.txt", IDENT_GF2),
             "bad": _write(tmp_path, "bad.txt", "field: gf2\ngram:\n1^ 0\n0 1\n")}
    assert main([a.format(**paths) for a in argv]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.out == GOLDEN_ANALYZE_IDENT
    if code == 2:
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err


def test_classify_failed_internal_check_exits_1(tmp_path, capsys, monkeypatch):
    # xi(1,0,0) left in the b-basis is an isometry of h~, not of the identity
    monkeypatch.setattr(groups, "defect3_generators",
                        lambda field: [groups.xi_matrix(field, 1, 0, 0)])
    path = _write(tmp_path, "ident.txt", IDENT_GF2)
    assert main(["classify", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: internal: ")


@pytest.mark.parametrize("command", ["analyze", "classify", "verify"])
def test_one_det_of_h_per_command(command, monkeypatch, capsys):
    # the form keeps det(H), so the degenerate check, the quadratic analysis,
    # the discriminant and the Hodge data of a command share one computation
    path = Path(__file__).parent / "golden" / "defect0_f2tu.txt"
    gram = parse_document(str(path), path.read_text()).matrix
    operands = []
    real = Matrix.det

    def counting(self):
        operands.append(self)
        return real(self)

    monkeypatch.setattr(Matrix, "det", counting)
    assert main([command, str(path)]) == 0
    capsys.readouterr()
    assert sum(m == gram for m in operands) == 1


def test_case_report_checks_generators_in_normal_coordinates(f2t):
    # over the identity form, with S = N = I, a shear is no isometry and
    # t*I is a similitude of multiplier t^2, not t
    form = BilinearForm(Matrix.identity(f2t, 4))
    ident, t = Matrix.identity(f2t, 4), f2t.generator
    shear = Matrix(f2t, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])

    def report(**generators):
        return groups._case_report(form, quadratic_data(form), True, "defect3", ident,
                                   f2t.one(), ident, case_data={}, **generators)

    with pytest.raises(CheckFailed, match="^internal: "):
        report(isometries=[shear])
    with pytest.raises(CheckFailed, match="^internal: "):
        report(similitudes=[(ident * t, t)])
    rep = report(isometries=[ident], similitudes=[(ident * t, t * t)])
    assert [(g.matrix, g.multiplier) for g in rep.generators] == [
        (ident, f2t.one()), (ident * t, t * t)]


# S^T S for S unit upper triangular with entries in {0, 1, g, g+1}: a
# defect-3 form over GF(4) whose normalizer is not the identity
SCRAMBLED_GF4 = """\
field: gf2k:2:7
gram:
1 g 0 1
g g g g
0 g g g
1 g g g+1
"""


@pytest.mark.parametrize("document, transports", [
    ((Path(__file__).parent / "golden" / "defect1_f2tu.txt").read_text(), 0),
    (SCRAMBLED_GF4, 1)], ids=["defect1_f2tu", "scrambled_gf4"])
def test_classify_transports_generators_only_for_the_closure(
        document, transports, tmp_path, monkeypatch, capsys):
    # S g S^-1 is computed, with one inverse of the normalizer S, only where
    # the closure over a finite field reads the generators
    path = _write(tmp_path, "doc.txt", document)
    normalizer = groups.classify(BilinearForm(parse_document(path, document).matrix)).normalizer
    operands = []
    real = Matrix.inverse

    def recording(self):
        operands.append(self)
        return real(self)

    monkeypatch.setattr(Matrix, "inverse", recording)
    assert main(["classify", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert sum(m == normalizer for m in operands) == transports
    assert ("generated order: 3840" in lines) == (transports == 1)


def test_reused_parser_keeps_no_state(capsys):
    # main builds its parser once per process; a flag given to one call must
    # not carry over to the next
    assert build_parser() is build_parser()
    path = str(Path(__file__).parent / "golden" / "defect2_nonsplit_f2t.txt")
    for argv in (["classify", "--machine"], ["classify"], ["verify", "--seed", "3"]):
        assert main(argv + [path]) == 0
        child = subprocess.run([sys.executable, "-m", "char2forms.cli", *argv, path],
                               capture_output=True, env=_child_env(), timeout=60)
        assert child.returncode == 0, child.stderr.decode()
        assert capsys.readouterr().out == child.stdout.decode()


def test_no_assert_in_package():
    # `python -O` strips assert statements, so no check in the package may be one
    package = Path(__file__).resolve().parents[1] / "src" / "char2forms"
    found = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


OPTIMIZED_CHILD = """\
import dataclasses, sys
from char2forms import GF2, BilinearForm, CheckFailed, Matrix, build_module, hodge
from char2forms import groups
from char2forms.cli import main
from char2forms.fields import RationalFunctionField
from char2forms.forms import quadratic_data
from char2forms.oracle import direct_g

assert sys.flags.optimize == 1
gf2 = GF2()
module = build_module(hodge(BilinearForm(Matrix.identity(gf2, 4))))
broken = dataclasses.replace(module.hodge, j_matrix=module.hodge.j_matrix
                             + Matrix.identity(gf2, module.hodge.space.dim))
module = dataclasses.replace(module, hodge=broken)
u = module.basis_vector((1, 2))
try:
    direct_g(u, u, module)
except CheckFailed:
    pass
else:
    sys.exit("direct_g accepted a corrupted J")
form = BilinearForm(Matrix.identity(gf2, 4))
try:
    groups._case_report(form, quadratic_data(form), True, "defect3",
                        Matrix.identity(gf2, 4), gf2.one(), groups.h_tilde_gram(gf2),
                        case_data={})
except CheckFailed:
    pass
else:
    sys.exit("_case_report accepted a wrong normal form")
f2t = RationalFunctionField(gf2, "t")
form, ident, t = BilinearForm(Matrix.identity(f2t, 4)), Matrix.identity(f2t, 4), f2t.generator
shear = Matrix(f2t, [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
for generators in ({"isometries": [shear]}, {"similitudes": [(ident * t, t)]}):
    try:
        groups._case_report(form, quadratic_data(form), True, "defect3", ident, f2t.one(),
                            ident, case_data={}, **generators)
    except CheckFailed:
        pass
    else:
        sys.exit(f"_case_report accepted a bad generator: {generators}")
codes = [main(["verify", sys.argv[1]])] + [main(["classify", p]) for p in sys.argv[1:]]
sys.exit(max(codes))
"""


def test_verify_checks_survive_python_O(tmp_path, capsys):
    # the child also classifies one input of each of the five cases
    path = _write(tmp_path, "ident.txt", IDENT_GF2)
    cases = [path] + [_write(tmp_path, f"case{i}.txt", doc)
                      for i, doc in enumerate((H1_F2T, H2_F2T, DEFECT1, DEFECT0))]
    child = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_CHILD, *cases],
                           capture_output=True, env=_child_env(), timeout=120)
    assert child.returncode == 0, child.stderr.decode()
    assert main(["verify", path]) == 0
    for case in cases:
        assert main(["classify", case]) == 0
    assert child.stdout.decode() == capsys.readouterr().out


# -- each distinct entry is parsed once -------------------------------------

def test_repeated_entries_are_parsed_once(tmp_path, monkeypatch):
    from char2forms import cli
    tokens = []
    real = cli.parse_expression

    def counting(token, variables, ring):
        tokens.append(token)
        return real(token, variables, ring)
    monkeypatch.setattr(cli, "parse_expression", counting)
    doc = "field: ratfunc(gf2,t)\ngram:\nt 1/t 0 0\n1/t 1 0 0\n0 0 t+1 t\n0 0 t 1/t\n"
    parsed = parse_document("doc.txt", doc).matrix
    assert tokens == ["t", "1/t", "0", "1", "t+1"]
    field = parsed.ring
    assert parsed == Matrix(field, [[field.parse(x) for x in line.split()]
                                    for line in doc.splitlines()[2:]])
    k_doc = "field: ratfunc(gf2,t)\nring: k(t)\nmatrix:\nj 1+j\n1+j j\n"
    tokens.clear()
    k_matrix = parse_document("k.txt", k_doc).matrix
    assert tokens == ["j", "1+j"] and k_matrix.rows[0] == k_matrix.rows[1][::-1]


# the error line of a repeated bad entry names its first occurrence in row
# order, byte for byte as when every occurrence was parsed
REPEATED_BAD_ENTRIES = {
    "unknown_variable": (
        "field: ratfunc(gf2,t)\ngram:\nt x 0 0\nx 1 0 0\n0 0 1 0\n0 0 0 x\n",
        "error: {path}:3: entry 2 ('x'): unknown variable 'x' (column 1 of entry)\n"),
    "division_by_zero": (
        "field: ratfunc(gf2,t)\ngram:\nt 0 0 0\n0 1/(t+t) 0 0\n0 0 1/(t+t) 0\n"
        "0 0 0 1/(t+t)\n",
        "error: {path}:4: entry 2 ('1/(t+t)'): division by zero (column 2 of entry)\n"),
    "degree_bound": (
        "field: ratfunc(gf2,t)\ngram:\nt^16385 0 0 0\n0 t^16385 0 0\n0 0 1 0\n0 0 0 t^16385\n",
        "error: {path}:3: entry 1 ('t^16385'): the result could exceed degree 16384 "
        "(column 3 of entry)\n"),
    "k_matrix": (
        "field: gf2\nring: k(1)\nmatrix:\nj y\ny j\n",
        "error: {path}:4: entry 2 ('y'): unknown variable 'y' (column 1 of entry)\n"),
}


@pytest.mark.parametrize("name", sorted(REPEATED_BAD_ENTRIES))
def test_repeated_bad_entry_reports_its_first_occurrence(tmp_path, capsys, name):
    doc, expected = REPEATED_BAD_ENTRIES[name]
    path = _write(tmp_path, "bad.txt", doc)
    for command in ("analyze", "classify", "verify"):
        assert main([command, path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == expected.format(path=path)
    child = _run_child([], ["analyze", path])
    assert child.returncode == 2
    assert child.stderr.decode() == expected.format(path=path)


# -- the polar check of verify --------------------------------------------

@pytest.mark.parametrize("doc", [IDENT_GF2, H1_F2T], ids=["gf2", "f2t"])
def test_polar_check_fails_on_a_changed_pf_pair(tmp_path, capsys, monkeypatch, doc):
    # one symmetric pair of Pf entries changed in the form's Hodge data: Pf
    # stays symmetric and alternating, but Pq(x + y) + Pq(x) + Pq(y) no
    # longer matches it
    import dataclasses
    from char2forms import cli
    real = cli.hodge
    calls = []

    def changed(form, scale=None):
        data = real(form, scale)
        calls.append(form)
        if len(calls) > 1:  # the module checks' Hodge data stays as it is
            return data
        rows = [list(row) for row in data.pf_gram.rows]
        ring = data.pf_gram.ring
        rows[0][1] = rows[1][0] = ring._add(rows[0][1], ring._from_int(1))
        return dataclasses.replace(data, pf_gram=Matrix._from_payloads(ring, rows))
    monkeypatch.setattr(cli, "hodge", changed)
    path = _write(tmp_path, "doc.txt", doc)
    assert main(["verify", path]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "check Pq polar form = Pf (scale 1): FAIL" in out
    assert "check Pf symmetric: PASS" in out
    assert "check Pf alternating (zero diagonal): PASS" in out
    monkeypatch.undo()
    assert main(["verify", path]) == 0
    assert "check Pq polar form = Pf (scale 1): PASS" in capsys.readouterr().out


# -- the dimension bound of analyze and verify -----------------------------

def _identity_doc(n, rank=None):
    # the GF(2) diagonal form with `rank` ones (all n by default), then zeros
    rank = n if rank is None else rank
    return "field: gf2\ngram:\n" + "".join(
        " ".join("1" if j == i < rank else "0" for j in range(n)) + "\n" for i in range(n))


@pytest.mark.parametrize("n", [12, 16])
def test_large_even_dimension_exits_2_without_traceback(tmp_path, capsys, n):
    # Lambda^{n/2} of an even n above 10 has more than C(10, 5) = 252 basis
    # vectors; analyze and verify refuse it before building it
    path = _write(tmp_path, f"ident{n}.txt", _identity_doc(n))
    for command in ("analyze", "verify"):
        start = time.perf_counter()
        assert main([command, path]) == 2
        assert time.perf_counter() - start < 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: dimension {n} is above 10")
        for flags in ([], ["-O"]):
            start = time.perf_counter()
            child = _run_child(flags, [command, path])
            err = child.stderr.decode()
            assert child.returncode == 2, err
            assert err.startswith("error: ") and "Traceback" not in err
            assert time.perf_counter() - start < 5


def test_dimensions_up_to_10_and_odd_dimensions_still_run(tmp_path, capsys):
    path = _write(tmp_path, "ident10.txt", _identity_doc(10))
    for command in ("analyze", "verify"):
        assert main([command, path]) == 0
    assert "result: all checks passed" in capsys.readouterr().out
    for flags in ([], ["-O"]):
        child = _run_child(flags, ["analyze", path])
        assert child.returncode == 0, child.stderr.decode()
    odd = _write(tmp_path, "ident13.txt", _identity_doc(13))
    assert main(["analyze", odd]) == 0
    assert "defect: 12" in capsys.readouterr().out
    assert main(["verify", odd]) == 2
    assert "verify needs an even-dimensional form" in capsys.readouterr().err
    # a degenerate form builds no exterior power in analyze, so it is not bounded
    degenerate = _write(tmp_path, "degenerate12.txt", _identity_doc(12, rank=11))
    assert main(["analyze", degenerate]) == 0
    assert "note: degenerate form: defect analysis skipped" in capsys.readouterr().out
