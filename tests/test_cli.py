import cmath
import copy
import importlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from thetatrace import cli, fock, involutions, modular, qseries
from thetatrace.lattice import EvenLattice, load_lattice

REPO_DIR = Path(__file__).resolve().parent.parent
LATTICE_DIR = REPO_DIR / "lattices"


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def report_of(args, capsys):
    code, out, _ = run_cli(args, capsys)
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_combinatorics_passes(capsys):
    code, rep = report_of(["verify", "combinatorics"], capsys)
    assert code == 0
    assert rep["schema"] == 1
    assert rep["suite"] == "combinatorics"
    assert rep["lattice"] == "builtin-norm4"
    assert rep["overall"] == "pass"
    for check in rep["checks"]:
        assert check["status"] == "pass"
        assert check["max_error"] <= check["tolerance"]
        assert isinstance(check["runtime_ms"], int)


def test_verify_special_functions_passes(capsys):
    code, rep = report_of(["verify", "special-functions"], capsys)
    assert code == 0
    assert rep["overall"] == "pass"
    names = [c["name"] for c in rep["checks"]]
    assert "g2-at-i" in names
    assert len(names) == len(set(names))


def test_verify_theta_classical_passes(capsys):
    code, rep = report_of(["verify", "theta-classical"], capsys)
    assert code == 0
    assert rep["overall"] == "pass"


def test_verify_special_functions_redraws_taus_below_floor(capsys):
    # at this seed the p2 law's taus (seed + 8) hold one with Im(TST.tau) =
    # 0.247, below the floor, which the law's sampler redraws
    seed = 340
    assert any(
        cli._sample_taus(seed + k, n, for_laws=True) != cli._sample_taus(seed + k, n)
        for k, n in ((4, 8), (6, 6), (8, 6))
    ), "no law tau is redrawn at this seed"
    code, rep = report_of(["verify", "special-functions", "--seed", str(seed)], capsys)
    assert code == 0
    assert rep["overall"] == "pass"


def test_verify_main_theorem_a2_word_holdout_at_t_power_six(capsys):
    # a random word at this seed is T^-6, whose pair map (v - 6u, u) pushed
    # |Z| to 1e15 on complex draws: max_error 115 against 1e-7; six is the
    # largest |b| of f = 0 that a word of at most six tokens reaches
    seed = 700
    mats = [modular.word_to_matrix(w) for w in modular.random_words(5, 6, seed + 19)]
    assert max((abs(m.b) for m in mats if m.f == 0), default=0) == 6
    code, rep = report_of(
        ["verify", "main-theorem", "--lattice", str(LATTICE_DIR / "a2.json"),
         "--seed", str(seed)],
        capsys,
    )
    assert code == 0
    (words,) = [c for c in rep["checks"] if c["name"] == "random-words-holdout"]
    assert words["status"] == "pass"
    assert words["max_error"] < 1e-10


def test_random_words_holdout_runs_each_distinct_matrix_once(monkeypatch):
    # at seed 12 the five words multiply out to three distinct matrices
    seed = 12
    mats = [modular.word_to_matrix(w) for w in modular.random_words(5, 6, seed + 19)]
    assert len(set(mats)) == 3
    L = EvenLattice(((4,),))
    want = max(cli._holdout(L, m, seed + 23) for m in mats)
    held = []
    holdout = cli._holdout

    def counted(L, alpha, seed):
        held.append(alpha)
        return holdout(L, alpha, seed)

    monkeypatch.setattr(cli, "_holdout", counted)
    assert cli.check_random_words(cli.RunConfig(L, "norm4", seed)) == want
    assert held == list(dict.fromkeys(mats))


def test_verify_all_a3_passes(capsys):
    # the shipped rank-three lattice: A3, det 4, every suite in one run
    assert load_lattice(str(LATTICE_DIR / "a3.json")).det == 4
    code, rep = report_of(
        ["verify", "all", "--lattice", str(LATTICE_DIR / "a3.json"), "--seed", "0"], capsys
    )
    assert code == 0
    assert rep["lattice"] == "a3"
    assert rep["overall"] == "pass"
    assert all(check["status"] == "pass" for check in rep["checks"])


LAYOUT_HEAD = [
    ("eta-shift", 1e-12),
    ("eta-inversion", 1e-12),
    ("eta-series-consistency", 1e-12),
    ("g2-at-i", 1e-12),
    ("g2-transformation", 1e-9),
    ("weierstrass-transformation", 1e-9),
    ("p2-transformation", 1e-9),
    ("p2-annulus-consistency", 1e-9),
    ("theta-inversion-table", 1e-10),
    ("theta-shift-table", 1e-10),
    ("involution-recurrence", 0.5),
    ("fixed-point-counts", 0.5),
    ("decomposition-products", 0.5),
    ("sign-lemma", 0.5),
    ("multinomial-identity", 0.5),
    ("exponential-regroup", 0.5),
    ("recursion-one-insertion", 1e-9),
    ("recursion-two-insertions-first-coset", 1e-9),
    ("recursion-two-insertions-mid-coset", 1e-9),
    ("fock-census", 0.5),
    ("fock-phase-census", 0.5),
]
MAIN_THEOREM_NAMES = [
    "t-phase-identity", "fit-t-diagonal", "holdout-t", "fit-s-moduli", "fit-s-oracle",
    "holdout-s", "fit-identity", "cocycle-st", "cocycle-ts", "cocycle-ss",
    "random-words-holdout", "word-decomposition-roundtrip",
]
# the built-in norm-4 Gram gets the sharp main-theorem tolerances, also
# when it is read from a file; any other Gram raises them to 1e-7
SHARP_TOLS = [1e-12, 1e-10, 1e-10, 1e-8, 1e-8, 1e-8, 1e-10, 1e-7, 1e-7, 1e-7, 1e-7, 0.5]
# case -> (lattice file or None for the built-in one, main-theorem tolerances)
LAYOUT_CASES = {
    "norm4": (None, SHARP_TOLS),
    "a2": ("a2.json", [1e-7] * 11 + [0.5]),
    "norm4.json": ("norm4.json", SHARP_TOLS),
}


@pytest.mark.parametrize("lattice", list(LAYOUT_CASES))
def test_verify_all_layout(lattice, capsys):
    path, tols = LAYOUT_CASES[lattice]
    args = ["verify", "all", "--seed", "0"]
    if path:
        args += ["--lattice", str(LATTICE_DIR / path)]
    code, rep = report_of(args, capsys)
    assert code == 0 and rep["overall"] == "pass"
    layout = [(c["name"], c["tolerance"]) for c in rep["checks"]]
    main = list(zip(MAIN_THEOREM_NAMES, tols))
    assert layout == LAYOUT_HEAD + main


def test_verify_deterministic_modulo_runtime(capsys):
    # main-theorem runs first on a cold fit memo, then on a warm one
    modular.fit_alpha.cache_clear()
    for suite in ("combinatorics", "main-theorem"):
        _, rep1 = report_of(["verify", suite, "--seed", "5"], capsys)
        _, rep2 = report_of(["verify", suite, "--seed", "5"], capsys)
        for rep in (rep1, rep2):
            for check in rep["checks"]:
                check["runtime_ms"] = 0
        assert rep1 == rep2


def test_p2_annulus_check_catches_a_kernel_that_is_not_tau_periodic(monkeypatch):
    # dropping the first q_z^-1 shell keeps the kernel 1-periodic in z but
    # breaks tau-periodicity, which only a reduction by tau can expose
    kernel = qseries.p2_eval

    def mutated(z, tau):
        w = cmath.exp(2j * cmath.pi * (tau - z))
        return kernel(z, tau) - (2j * cmath.pi) ** 2 * w / (1 - w) ** 2

    monkeypatch.setattr(cli, "p2_eval", mutated)
    monkeypatch.setattr(qseries, "p2_eval", mutated)
    L = EvenLattice(cli.DEFAULT_GRAM, name=cli.DEFAULT_LABEL)
    tol = dict(LAYOUT_HEAD)["p2-annulus-consistency"]
    for seed in range(3):
        cfg = cli.RunConfig(lattice=L, lattice_label=cli.DEFAULT_LABEL, seed=seed)
        assert cli.check_p2_annulus(cfg) > tol


def test_main_theorem_fits_each_alpha_once(monkeypatch):
    modular.fit_alpha.cache_clear()
    fits, holdouts = [], []
    fit, verify = modular.fit_transition, modular.verify_relation

    def counting_fit(L, alpha, samples, *rest):
        fits.append((alpha, tuple(samples)))
        return fit(L, alpha, samples, *rest)

    def counting_verify(*args):
        holdouts.append(args[1])
        return verify(*args)

    monkeypatch.setattr(modular, "fit_transition", counting_fit)
    monkeypatch.setattr(modular, "verify_relation", counting_verify)
    L = EvenLattice(cli.DEFAULT_GRAM, name=cli.DEFAULT_LABEL)
    cfg = cli.RunConfig(lattice=L, lattice_label=cli.DEFAULT_LABEL, seed=0)
    rep = cli.run_suite("main-theorem", cfg)
    assert rep["overall"] == "pass"
    assert len(fits) == len(set(fits))
    # holdout-t, holdout-s and the five random words
    assert len(holdouts) == 7
    assert holdouts[:2] == [modular.T, modular.S]


def test_npoint_builds_each_fock_basis_once():
    fock.build_basis.cache_clear()
    L = load_lattice(str(LATTICE_DIR / "a2.json"))
    cfg = cli.RunConfig(lattice=L, lattice_label="a2", seed=0)
    assert cli.run_suite("npoint", cfg)["overall"] == "pass"
    # three recursion checks (two lookups each) and one census per coset
    info = fock.build_basis.cache_info()
    assert (info.misses, info.hits) == (3, 6)


def test_npoint_builds_each_census_once(monkeypatch):
    built = []

    def counting(side, census):
        return lambda L, beta, g: built.append((side, beta)) or census(L, beta, g)

    monkeypatch.setattr(fock, "census_by_grade", counting("fock", fock.census_by_grade))
    monkeypatch.setattr(
        cli, "insertion_counts_by_grade", counting("closed", cli.insertion_counts_by_grade)
    )
    L = load_lattice(str(LATTICE_DIR / "a2.json"))
    cfg = cli.RunConfig(lattice=L, lattice_label="a2", seed=0)
    assert cli.run_suite("npoint", cfg)["overall"] == "pass"
    # fock-census and fock-phase-census share one census of each coset
    assert sorted(built) == sorted((side, b) for side in ("fock", "closed") for b in L.cosets)


def test_combinatorics_holds_no_involution_list_above_n8(monkeypatch):
    involutions._lowest_letter_tally.cache_clear()
    held = []
    enumerate_n = involutions._all_involutions
    monkeypatch.setattr(
        involutions, "_all_involutions", lambda n: held.append(n) or enumerate_n(n)
    )
    L = EvenLattice(cli.DEFAULT_GRAM, name=cli.DEFAULT_LABEL)
    cfg = cli.RunConfig(lattice=L, lattice_label=cli.DEFAULT_LABEL, seed=0)
    assert cli.run_suite("combinatorics", cfg)["overall"] == "pass"
    assert held and max(held) <= 8


def test_combinatorics_walks_each_count_once(monkeypatch):
    # the tally behind every count walks each of 1..N_CAP - 2 letters once
    # and never all N_CAP; the listings walk only n <= 8
    involutions._lowest_letter_tally.cache_clear()
    involutions._all_involutions.cache_clear()
    walked = []
    walk = involutions._walk

    def spy(n, leaf):
        walked.append((n, leaf.__qualname__.startswith("_lowest_letter_tally.")))
        return walk(n, leaf)

    monkeypatch.setattr(involutions, "_walk", spy)
    L = EvenLattice(cli.DEFAULT_GRAM, name=cli.DEFAULT_LABEL)
    cfg = cli.RunConfig(lattice=L, lattice_label=cli.DEFAULT_LABEL, seed=0)
    assert cli.run_suite("combinatorics", cfg)["overall"] == "pass"
    assert sorted(n for n, tally in walked if tally) == list(range(1, involutions.N_CAP - 1))
    assert max(n for n, tally in walked if not tally) <= 8


def test_verify_jobs_option_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "npoint", "--jobs", "3"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_verify_out_file_and_human_summary(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, stdout, stderr = run_cli(
        ["verify", "combinatorics", "--out", str(out), "--human"], capsys
    )
    assert code == 0
    assert stdout == ""
    rep = json.loads(out.read_text())
    assert rep["overall"] == "pass"
    assert "pass" in stderr


def test_unwritable_out_exits_2(tmp_path, capsys):
    out = tmp_path / "missing-dir" / "x.json"
    code, stdout, stderr = run_cli(["expand", "--what", "eta", "--out", str(out)], capsys)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error:") and str(out) in stderr
    assert not out.exists()


def test_verify_external_lattice_file(capsys):
    code, rep = report_of(
        ["verify", "combinatorics", "--lattice", str(LATTICE_DIR / "a2.json")], capsys
    )
    assert code == 0
    assert rep["lattice"] == "a2"


def test_verify_unknown_suite_rejected(capsys):
    with pytest.raises(SystemExit):
        cli.main(["verify", "bogus"])
    capsys.readouterr()


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------


def test_fit_s_norm4(capsys):
    code, rep = report_of(["fit", "--alpha", "0,-1,1,0"], capsys)
    assert code == 0
    assert rep["suite"] == "fit"
    assert rep["alpha"] == [0, -1, 1, 0]
    assert rep["cosets"] == [["0"], ["1/4"], ["1/2"], ["3/4"]]
    assert rep["fit_residual"] < 1e-10
    assert rep["holdout_max_error"] < 1e-8
    for row in rep["matrix"]:
        for re, im in row:
            assert abs(complex(re, im)) == pytest.approx(0.5, abs=1e-8)


def test_fit_t_is_diagonal(capsys):
    code, rep = report_of(["fit", "--alpha", "1,1,0,1", "--seed", "3"], capsys)
    assert code == 0
    m = [[complex(re, im) for re, im in row] for row in rep["matrix"]]
    for h in range(4):
        for k in range(4):
            if h != k:
                assert abs(m[h][k]) < 1e-9


@pytest.mark.parametrize("lattice", ["norm4", "a2", "a3"])
def test_fit_minus_identity_maps_each_coset_to_its_negative(lattice, capsys):
    # psi_{-I}(v, u) = (-v, -u), and m -> -m maps L + beta onto L - beta, so
    # A(-I) is the permutation beta -> -beta; a negative first entry needs
    # the "=" form of --alpha
    args = ["fit", "--alpha=-1,0,0,-1"]
    if lattice != "norm4":
        args += ["--lattice", str(LATTICE_DIR / f"{lattice}.json")]
    code, rep = report_of(args, capsys)
    assert code == 0
    cosets = [tuple(Fraction(x) for x in beta) for beta in rep["cosets"]]
    for h, beta in enumerate(cosets):
        minus = cosets.index(tuple(-x % 1 for x in beta))
        for k, (re, im) in enumerate(rep["matrix"][h]):
            assert abs(complex(re, im) - (k == minus)) < 1e-10


def test_fit_bad_alpha_exits_2(capsys):
    code, _, err = run_cli(["fit", "--alpha", "1,1,1,1"], capsys)
    assert code == 2
    assert "error:" in err


def _det_one(k):
    return f"{k},1,{k - 1},1"


@pytest.mark.parametrize(
    "alpha",
    [_det_one(10**400), _det_one(10**30), f"1,{10**30},0,1"],
    ids=["a=1e400", "a=1e30", "b=1e30"],
)
def test_fit_alpha_beyond_double_precision_aborts(alpha, capsys):
    # alpha.tau overflows, leaves the upper half-plane, or drowns Re tau
    code, out, err = run_cli(["fit", "--alpha", alpha], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("verification aborted: BoundTooLarge:")


def test_fit_on_a_huge_discriminant_aborts(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"name": "huge", "gram": [[2 * 10**12]]}))
    code, out, err = run_cli(["fit", "--alpha", "0,-1,1,0", "--lattice", str(path)], capsys)
    assert code == 1
    assert out == ""
    assert err.startswith("verification aborted: BoundTooLarge:")


def test_fit_alpha_at_the_entry_bound(capsys):
    code, out, err = run_cli(["fit", "--alpha", "1,0,1000000,1"], capsys)
    assert code == 1
    assert err.startswith("verification aborted: ImTooSmall:")
    code, rep = report_of(["fit", "--alpha", "1,1000000,0,1"], capsys)
    assert code == 0
    assert rep["holdout_max_error"] < 1e-8


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "special-functions", "--seed", "-5"],
        ["fit", "--alpha", "0,-1,1,0", "--seed", "-5"],
    ],
)
def test_negative_seed_exits_2(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--seed" in err


# ---------------------------------------------------------------------------
# expand
# ---------------------------------------------------------------------------


def test_expand_theta_series_norm4(capsys):
    code, rep = report_of(["expand", "--what", "theta-series", "--order", "8"], capsys)
    assert code == 0
    assert rep["denom"] == 1
    assert rep["terms"] == [[0, 1, 0], [2, 2, 0], [8, 2, 0]]


@pytest.mark.parametrize("lattice", [None, "a3.json"])
def test_expand_theta_series_empty_ball(lattice, capsys):
    # <beta,beta>/2 > 0 on coset 1, so order 0 holds no point and no grade
    args = ["expand", "--what", "theta-series", "--order", "0", "--coset", "1"]
    args += ["--lattice", str(LATTICE_DIR / lattice)] if lattice else []
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    assert '"denom":1,' in out
    assert json.loads(out)["terms"] == []


def test_expand_theta_series_a2_coset(capsys):
    code, rep = report_of(
        [
            "expand",
            "--what",
            "theta-series",
            "--order",
            "8",
            "--coset",
            "1",
            "--lattice",
            str(LATTICE_DIR / "a2.json"),
        ],
        capsys,
    )
    assert code == 0
    assert rep["denom"] == 3
    assert rep["terms"][:3] == [[1, 3, 0], [4, 3, 0], [7, 6, 0]]


def test_expand_eta(capsys):
    code, rep = report_of(["expand", "--what", "eta", "--order", "3"], capsys)
    assert code == 0
    assert rep["denom"] == 24
    assert rep["terms"] == [[1, 1, 0], [25, -1, 0], [49, -1, 0]]


def test_expand_prints_int_coefficients_as_ints(capsys):
    # json.loads reads 1 and 1.0 alike, so look at the raw text
    _, out, _ = run_cli(["expand", "--what", "eta", "--order", "3"], capsys)
    assert '"terms":[[1,1,0],[25,-1,0],[49,-1,0]]' in out
    args = ["expand", "--what", "theta-series", "--lattice", str(LATTICE_DIR / "a2.json")]
    _, out, _ = run_cli(args + ["--order", "2", "--coset", "1"], capsys)
    assert '"terms":[[1,3,0],[4,3,0]]' in out
    _, out, _ = run_cli(args + ["--order", "1"], capsys)
    assert '"terms":[[0,1,0],[1,6,0]]' in out


def test_series_terms_do_not_round():
    # a coefficient that is not an integer prints as it is, never rounded
    series = qseries.TruncatedSeries(2, {0: 2, 1: 0.5 + 1j, 3: 1.0}, 3)
    assert cli._series_terms(series) == [[0, 2, 0], [1, 0.5, 1.0], [3, 1.0, 0.0]]
    assert json.dumps(cli._series_terms(series)) == "[[0, 2, 0], [1, 0.5, 1.0], [3, 1.0, 0.0]]"


def test_expand_g2_constant_term(capsys):
    import math

    code, rep = report_of(["expand", "--what", "g2", "--order", "2"], capsys)
    assert code == 0
    const = [t for t in rep["terms"] if t[0] == 0]
    assert len(const) == 1
    assert const[0][1] == pytest.approx(math.pi ** 2 / 3, abs=1e-12)


def test_expand_bad_coset_exits_2(capsys):
    code, _, err = run_cli(
        ["expand", "--what", "theta-series", "--coset", "9"], capsys
    )
    assert code == 2
    assert "coset" in err


def test_expand_negative_order_exits_2(capsys):
    code, out, err = run_cli(["expand", "--what", "eta", "--order", "-2"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "--order" in err


# ---------------------------------------------------------------------------
# config errors and packaging
# ---------------------------------------------------------------------------


def test_missing_lattice_file_exits_2(tmp_path, capsys):
    code, _, err = run_cli(
        ["verify", "combinatorics", "--lattice", str(tmp_path / "nope.json")], capsys
    )
    assert code == 2
    assert "error:" in err


def test_odd_lattice_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "odd.json"
    bad.write_text(json.dumps({"name": "odd", "gram": [[1]]}))
    code, _, err = run_cli(["verify", "combinatorics", "--lattice", str(bad)], capsys)
    assert code == 2


def test_non_utf8_lattice_file_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe")
    code, _, err = run_cli(["verify", "combinatorics", "--lattice", str(bad)], capsys)
    assert code == 2
    assert "error:" in err and "UTF-8" in err


def test_console_script_installed(tmp_path):
    # Checks the declared console script from the checkout: the target resolves
    # to cli.main, and the wrapper pip would generate for it runs the CLI.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_DIR / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["thetatrace"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main
    script = tmp_path / "thetatrace"
    script.write_text(f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())\n")
    env = dict(os.environ, PYTHONPATH=str(REPO_DIR / "src"))
    proc = subprocess.run(
        [sys.executable, str(script), "verify", "combinatorics"],
        capture_output=True,
        text=True,
        timeout=300,
        cwd=tmp_path,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["overall"] == "pass", proc.stderr


def test_runtime_dependencies_are_empty():
    # numpy is only the tests' oracle: the package declares no runtime
    # dependency, and numpy sits in the test extra
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(REPO_DIR / "pyproject.toml", "rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == []
    assert any(req.startswith("numpy") for req in project["optional-dependencies"]["test"])


@pytest.mark.parametrize("blocked", [True, False], ids=["numpy-blocked", "numpy-importable"])
def test_commands_run_without_numpy(blocked):
    # with numpy made unimportable the commands still run; either way no
    # numpy module is loaded after them
    script = (
        ("import sys\nsys.modules['numpy'] = None\n" if blocked else "")
        + "import contextlib, io, json, sys\n"
        "from thetatrace import cli\n"
        "codes = []\n"
        "for args in (['fit', '--alpha', '1,0,8,1', '--lattice', 'lattices/a2.json'],\n"
        "             ['verify', 'all', '--lattice', 'lattices/a2.json']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(args))\n"
        "print(json.dumps([codes, sorted(n for n, mod in sys.modules.items()\n"
        "                                if n.split('.')[0] == 'numpy' and mod is not None)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_DIR / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        cwd=REPO_DIR, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0], []]


def test_commands_run_without_dataclasses():
    # each command is a fresh process that pays its imports: with dataclasses
    # made unimportable the commands still run, and neither dataclasses nor
    # inspect is loaded by them
    script = (
        "import sys\nsys.modules['dataclasses'] = None\n"
        "import contextlib, io, json\n"
        "before = {n for n, mod in sys.modules.items() if mod is not None}\n"
        "from thetatrace import cli\n"
        "codes = []\n"
        "for args in (['fit', '--alpha', '0,-1,1,0', '--lattice', 'lattices/a2.json'],\n"
        "             ['verify', 'combinatorics'],\n"
        "             ['expand', '--what', 'eta', '--order', '10']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        codes.append(cli.main(args))\n"
        "print(json.dumps([codes, sorted(n for n, mod in sys.modules.items()\n"
        "                                if n in ('dataclasses', 'inspect') and mod is not None\n"
        "                                and n not in before)]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO_DIR / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=300,
        cwd=REPO_DIR, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0], []]


def _run_script(script: str):
    env = dict(os.environ, PYTHONPATH=str(REPO_DIR / "src"))
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", script], capture_output=True, text=True,
        timeout=300, cwd=REPO_DIR, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_fock_and_involutions_load_on_first_use():
    # type() and not attribute access, which would load the module: a fit
    # and an expand leave both layers unexecuted, and the combinatorics and
    # npoint suites execute them
    script = (
        "import contextlib, io, json, sys, types\n"
        "from thetatrace import cli\n"
        "def loaded():\n"
        "    return [type(sys.modules['thetatrace.' + n]) is types.ModuleType\n"
        "            for n in ('fock', 'involutions')]\n"
        "codes, states = [], []\n"
        "for group in ([['fit', '--alpha', '0,-1,1,0', '--lattice', 'lattices/a2.json'],\n"
        "               ['expand', '--what', 'theta-series', '--coset', '1',\n"
        "                '--lattice', 'lattices/a2.json']],\n"
        "              [['verify', 'combinatorics'],\n"
        "               ['verify', 'npoint', '--lattice', 'lattices/a2.json']]):\n"
        "    for args in group:\n"
        "        with contextlib.redirect_stdout(io.StringIO()):\n"
        "            codes.append(cli.main(args))\n"
        "    states.append(loaded())\n"
        "print(json.dumps([codes, states]))\n"
    )
    assert _run_script(script) == [[0, 0, 0, 0], [[False, False], [True, True]]]


@pytest.mark.parametrize("cli_first", [True, False], ids=["cli-first", "layer-first"])
def test_lazy_layers_are_the_modules_imported_by_name(cli_first):
    # one module object per layer, so one build_basis lru_cache, whichever of
    # thetatrace.cli and the layer is imported first
    imports = ["from thetatrace import cli", "import thetatrace.fock, thetatrace.involutions"]
    script = (
        "import json, sys\n"
        + "\n".join(imports if cli_first else imports[::-1]) + "\n"
        "import thetatrace\n"
        "from thetatrace import fock, involutions\n"
        "print(json.dumps([\n"
        "    fock is cli.fock is thetatrace.fock is sys.modules['thetatrace.fock'],\n"
        "    involutions is cli.involutions is sys.modules['thetatrace.involutions'],\n"
        "    cli.fock.build_basis is fock.build_basis,\n"
        "]))\n"
    )
    assert _run_script(script) == [True, True, True]


def test_import_cli_registers_every_traced_layer():
    # the benchmark's tracer reads sys.modules['thetatrace.<layer>'] right
    # after importing thetatrace.cli and rebinds what getattr finds in the
    # module's namespace
    script = (
        "import json, sys\n"
        "import thetatrace.cli\n"
        "pins = {'qseries': 'eta_eval', 'lattice': 'load_lattice', 'trace': 'z_trace',\n"
        "        'fock': 'build_basis', 'involutions': 'list_involutions',\n"
        "        'modular': 'fit_transition', 'cli': 'main'}\n"
        "out = {}\n"
        "for layer, name in pins.items():\n"
        "    mod = sys.modules['thetatrace.' + layer]\n"
        "    fn = getattr(mod, name)\n"
        "    out[layer] = callable(fn) and vars(mod)[name] is fn\n"
        "print(json.dumps(out))\n"
    )
    layers = ("qseries", "lattice", "trace", "fock", "involutions", "modular", "cli")
    assert _run_script(script) == {layer: True for layer in layers}


@pytest.mark.skipif(
    shutil.which("thetatrace") is None, reason="thetatrace executable not on PATH"
)
def test_installed_console_script_runs():
    proc = subprocess.run(
        [shutil.which("thetatrace"), "verify", "combinatorics"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["overall"] == "pass", proc.stderr
