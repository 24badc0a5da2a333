import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from siegelforms import cohom, g1_modforms, harder, hecke_satake, siegel_g2
from siegelforms.cli import main
from siegelforms.exact_arith import InvalidInput


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_trace_command(capsys):
    code, out, _ = run(capsys, "trace", "--j", "6", "--k", "8", "--p", "3")
    assert code == 0
    assert "result: -27000" in out
    assert "CONDITIONAL" in out


def test_trace_json_byte_stable(capsys):
    code, out1, _ = run(capsys, "trace", "--j", "6", "--k", "8", "--p", "3", "--json")
    code2, out2, _ = run(capsys, "trace", "--j", "6", "--k", "8", "--p", "3", "--json")
    assert code == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["result"] == "-27000"
    assert payload["conditional"] is True


def test_g1_ratios(capsys):
    code, out, _ = run(capsys, "g1", "--weight", "12", "--ratios")
    assert code == 0
    assert "[48, 25, 20]" in out


def test_g1_ratios_share_the_scan_precision_cap(capsys, monkeypatch):
    # --ratios, --congruence-primes and the plain form read the one eigenform
    # of weight 22, built once with the 128 coefficients every caller stores
    builds = []
    form = g1_modforms.EigenformG1

    def counted(weight, disc, coeffs):
        builds.append((weight, len(coeffs)))
        return form(weight, disc, coeffs)

    monkeypatch.setattr(g1_modforms, "EigenformG1", counted)
    g1_modforms._eigenforms.cache_clear()
    code, out, _ = run(capsys, "g1", "--weight", "22", "--ratios", "--json")
    assert code == 0 and json.loads(out)["ratios"] == [82080, 9464, 1365, 246, 42]
    code, out, _ = run(capsys, "g1", "--weight", "22", "--congruence-primes", "--json")
    assert code == 0 and json.loads(out)["rows"] == [[41, 14, 4, 10]]
    code, out, _ = run(capsys, "g1", "--weight", "22", "--json")
    assert code == 0 and json.loads(out)["a_p"]["2"] == "-288"
    assert builds == [(22, 128)]


def test_census_commands(capsys):
    code, out, _ = run(capsys, "census", "--genus", "1", "--q", "3")
    assert code == 0 and "mass: 3" in out
    code, out, _ = run(capsys, "census", "--genus", "2", "--q", "3", "--cite")
    assert code == 0 and "mass: 27" in out and "reproduces:" in out
    # F_625: 625 points per model, 625 constant terms per histogram
    code, out, _ = run(capsys, "census", "--genus", "1", "--q", "625")
    assert code == 0 and "mass: 625" in out


def test_satake_verify_all(capsys):
    code, out, _ = run(capsys, "satake", "--verify-all", "--json")
    assert code == 0
    assert json.loads(out) == {"quartic_phi0": True, "square_relation": True}


def test_satake_spin_slopes(capsys):
    code, out, _ = run(capsys, "satake", "--spin", "6", "8", "2", "0", "-57344", "--slopes")
    assert code == 0
    assert "13/2" in out and "25/2" in out


def test_igusa_table(capsys):
    code, out, _ = run(capsys, "igusa", "--form", "E4", "--max-disc", "4", "--json")
    assert code == 0
    payload = json.loads(out)
    assert [1, 0, 1, "30240"] in payload["coeffs"]
    # max_disc 0 keeps only the singular classes [0,0,c], c <= 8
    code, out, _ = run(capsys, "igusa", "--form", "E4", "--max-disc", "0", "--json")
    assert code == 0
    assert [row[:3] for row in json.loads(out)["coeffs"]] == [[0, 0, c] for c in range(9)]


def test_harder_row(capsys):
    code, out, _ = run(capsys, "harder", "--row", "22", "4", "10", "41", "--pmax", "7", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_harder_wrong_modulus_exit_code(capsys):
    code, _, _ = run(capsys, "harder", "--row", "22", "4", "10", "43", "--pmax", "7")
    assert code == 1


def test_harder_untestable_row_exit_code(capsys):
    # no eigenvalue data in reach is neither a census fault (2) nor a failed verdict (1)
    code, out, err = run(capsys, "harder", "--row", "28", "6", "12", "823", "--json")
    assert code == 4
    assert json.loads(out) == {
        "conditional": True,
        "ell": 823,
        "entries": [],
        "j": 6,
        "k": 12,
        "missing_primes": [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37],
        "r": 28,
        "untestable": True,
        "verdict": None,
    }
    assert err == "untestable: no eigenvalue data in reach\n"


def test_config_errors(capsys):
    # L-values have one working precision: --precision-bits is an unknown
    # option, whatever its value and wherever it stands
    for argv in (
        ("--precision-bits", "64", "g1", "--weight", "12", "--ratios"),
        ("g1", "--weight", "22", "--ratios", "--precision-bits", "256"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.startswith("config error: ")
    assert "unrecognized arguments: --precision-bits 256" in err
    # an unknown option with a value before the subcommand is named as
    # such, not its value as an invalid subcommand; a bad subcommand still is
    code, out, err = run(capsys, "--bogus", "1", "census", "--genus", "1", "--q", "3")
    assert (code, out) == (3, "") and "unrecognized arguments: --bogus\n" in err
    code, out, err = run(capsys, "--json", "nope")
    assert (code, out) == (3, "") and "invalid choice: 'nope'" in err


def test_missing_census_exit_code(capsys):
    code, _, err = run(capsys, "census", "--genus", "2", "--q", "19")
    assert code == 2
    assert "census unavailable" in err
    code, _, err = run(capsys, "census", "--genus", "2", "--q", "8")
    assert code == 2
    assert "census unavailable" in err


def test_elliptic_census_cap_exit_code(capsys):
    # a prime far above the cap stops before any table of q^2 entries is built
    code, _, err = run(capsys, "census", "--genus", "1", "--q", "65537")
    assert code == 2
    assert "capped at q <= 4096" in err


def test_genus2_cap_is_shared(capsys):
    # census and trace build the same genus-2 censuses and stop at the same q
    code, out, _ = run(capsys, "census", "--genus", "2", "--q", "11")
    assert code == 0 and "mass: 1331" in out
    code, _, err = run(capsys, "trace", "--j", "6", "--k", "8", "--p", "19")
    assert code == 2
    assert "capped at q <= 17" in err


@pytest.mark.parametrize("q", ["8", "27", "1", "0"])
def test_unsupported_field_order_exit_code(capsys, q):
    code, _, err = run(capsys, "census", "--genus", "1", "--q", q)
    assert code == 2
    assert "unsupported field order" in err


@pytest.mark.parametrize("p", ["9", "6", "1", "-3"])
def test_trace_rejects_non_prime(capsys, p):
    code, out, err = run(capsys, "trace", "--j", "6", "--k", "8", "--p", p)
    assert code == 3
    assert "not a prime" in err and out == ""


def test_trace_T_Sjk_rejects_non_prime():
    from siegelforms.cohom import trace_T_Sjk

    with pytest.raises(ValueError, match="not a prime"):
        trace_T_Sjk(6, 8, 9)


@pytest.mark.parametrize("p", ["1", "4", "0"])
def test_satake_spin_rejects_non_prime(capsys, p):
    code, out, err = run(capsys, "satake", "--spin", "6", "8", p, "0", "-57344", "--slopes")
    assert code == 3
    assert "not a prime" in err and out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("trace", "--j", "1", "--k", "8", "--p", "3"),  # outside the regular range
        ("trace", "--j", "2", "--k", "10", "--p", "3", "--psq"),  # dim S_{2,10} = 0
        ("g1", "--weight", "12", "--hecke", "4"),  # T(m) needs a prime m
        ("g1", "--weight", "12", "--hecke", "0"),
        ("g1", "--weight", "36", "--ratios"),  # dim S_36 = 3
        ("harder", "--row", "13", "4", "10", "41"),  # dim S_13 = 0
        ("igusa", "--form", "E4", "--max-disc", "-3"),
        ("harder", "--row", "22", "4", "10", "0"),  # L must be a prime
        ("harder", "--row", "22", "4", "10", "1"),
        ("igusa", "--form", "chi10", "--max-disc", "0"),  # a([1,1,1]) has disc 3
        ("igusa", "--form", "chi12", "--max-disc", "2"),
        ("g1", "--weight", "24", "--ratios"),  # dim S_24 = 2: no rational eigenform
        ("satake", "--spin", "0", "0", "2", "0", "0", "--slopes"),  # motivic weight -3
        ("satake", "--spin", "-6", "8", "2", "0", "0"),  # negative J
        ("satake", "--spin", "5", "8", "2", "0", "0"),  # S_{J,K} = 0 for odd J
        ("satake", "--spin", "6", "8", "4", "0", "-57344"),  # P must be a prime
        ("harder", "--row", "22", "-4", "10", "41"),
        ("harder", "--row", "22", "5", "10", "41"),
        ("harder", "--all", "--pmax", "1"),  # no prime to test
        ("harder", "--row", "22", "4", "10", "41", "--pmax", "-5"),
        # usage errors: 3, not argparse's 2, which names a census fault
        ("g1", "--weight", "abc"),
        ("census", "--genus", "3", "--q", "5"),
        ("trace", "--j", "6", "--k", "8"),  # no --p
        ("no-such-command",),
        ("g1", "--weight", "12", "--bogus"),
        # at most one mode per command
        ("g1", "--weight", "12", "--hecke", "2", "--ratios"),
        ("g1", "--weight", "12", "--ratios", "--congruence-primes"),
        ("g1", "--weight", "12", "--hecke", "2", "--congruence-primes"),
        ("satake", "--verify-all", "--spin", "6", "8", "2", "0", "-57344"),
        ("harder", "--all", "--row", "22", "4", "10", "41"),
        ("satake", "--verify-all", "--slopes"),  # slopes are of a --spin factor
    ],
)
def test_invalid_option_value_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("config error: ") and out == ""


@pytest.mark.parametrize("argv", [("--help",), ("g1", "--help")])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(list(argv))
    assert info.value.code == 0 and capsys.readouterr().out.startswith("usage: siegelforms")


# each call is rejected by the library itself, as the CLI checks no input
LIBRARY_REJECTS = {
    "spin_factor(6, 8, 0, -57344, 4)": lambda: hecke_satake.spin_factor(6, 8, 0, -57344, 4),
    "check_congruence(5, 10, 22, 41)": lambda: harder.check_congruence(5, 10, 22, 41),
    "check_congruence(4, 10, 22, 41, p_max=1)": lambda: harder.check_congruence(4, 10, 22, 41, p_max=1),
    "run_table(1)": lambda: harder.run_table(1),
    "chi10(0)": lambda: siegel_g2.chi10(0),
    "eisenstein_g2(4, -3)": lambda: siegel_g2.eisenstein_g2(4, -3),
    "trace_T_Sjk(6, 8, 9)": lambda: cohom.trace_T_Sjk(6, 8, 9),
    "hecke_T(12, 4)": lambda: g1_modforms.hecke_T(12, 4),
    "check_congruence(4, 10, 22, 1)": lambda: harder.check_congruence(4, 10, 22, 1),
}


@pytest.mark.parametrize("call", LIBRARY_REJECTS.values(), ids=LIBRARY_REJECTS.keys())
def test_library_raises_invalid_input(call):
    with pytest.raises(InvalidInput) as info:
        call()
    assert isinstance(info.value, ValueError)


def test_library_runs_without_mpmath():
    # mpmath is a test-only oracle: importing every module and taking
    # L-values through the CLI loads none of it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    script = (
        "import sys\n"
        "import siegelforms.cohom, siegelforms.harder, siegelforms.hecke_satake, siegelforms.siegel_g2\n"
        "from siegelforms.cli import main\n"
        "codes = [main(['g1', '--weight', '22', '--ratios']),\n"
        "         main(['g1', '--weight', '28', '--congruence-primes'])]\n"
        "print(codes, 'mpmath' in sys.modules)\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert "[82080, 9464, 1365, 246, 42]" in done.stdout
    assert "(4057, 21, 12, 9)" in done.stdout
    assert done.stdout.splitlines()[-1] == "[0, 0] False"


def test_g1_zero_space_exit_code(capsys):
    code, _, err = run(capsys, "g1", "--weight", "13")
    assert code == 3
    assert "S_13 = 0" in err


def test_igusa_large_table(capsys):
    # the stored singular classes grow with max_disc: [0,0,9] at 40
    tables = {}
    for max_disc in ("20", "40"):
        code, out, _ = run(capsys, "igusa", "--form", "chi10", "--max-disc", max_disc, "--json")
        assert code == 0
        tables[max_disc] = {(n, r, m): v for n, r, m, v in json.loads(out)["coeffs"]}
    assert tables["40"][(0, 0, 9)] == "0"
    assert tables["20"].items() <= tables["40"].items()
    assert len(tables["40"]) > len(tables["20"])


def test_corrupt_cache_exit_code(tmp_path, capsys):
    from siegelforms import census

    golden = Path(__file__).resolve().parents[1] / ".census_cache"
    for path in golden.glob("*.json"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    target = tmp_path / "g2_q11_v1.json"
    payload = json.loads(target.read_text())
    payload["counts"][0][-1] += 2
    target.write_text(json.dumps(payload))
    try:
        code, out, err = run(capsys, "--cache-dir", str(tmp_path), "trace", "--j", "6", "--k", "8", "--p", "11")
        assert code == 2
        assert "corrupt census cache" in err and "g2_q11_v1.json" in err
    finally:
        census.set_cache_dir(None)


def test_twist_asymmetric_cache_exit_code(tmp_path, capsys):
    from siegelforms import census

    # the t = -6 count of ell_q11 moved to t = -5, masses rewritten to match:
    # total mass, model count and Hasse bound all still hold
    golden = Path(__file__).resolve().parents[1] / ".census_cache"
    target = tmp_path / "ell_q11_v1.json"
    payload = json.loads((golden / target.name).read_text())
    assert payload["counts"][:2] == [[-6, 5], [-5, 5]]
    payload["counts"][:2] = [[-5, 10]]
    payload["masses"][:2] = [[-5, "1"]]
    target.write_text(json.dumps(payload, sort_keys=True))
    try:
        code, _, err = run(capsys, "--cache-dir", str(tmp_path), "census", "--genus", "1", "--q", "11")
        assert code == 2
        assert "corrupt census cache" in err and "not symmetric" in err
    finally:
        census.set_cache_dir(None)


@pytest.mark.parametrize(
    "old, new",
    [
        pytest.param("[-6, 5]", "[-6, 5.0]", id="float-count"),
        pytest.param('"group_order": 10', '"group_order": 10.0', id="float-group-order"),
        pytest.param("[-6, ", "[-6.0, ", id="float-trace"),  # in counts and masses
        pytest.param("[1, ", "[true, ", id="boolean-trace"),  # int(True) == 1
        pytest.param('"version": 1', '"version": true', id="boolean-version"),  # True == 1
        pytest.param(None, lambda text: json.dumps(json.loads(text), sort_keys=True, indent=1), id="pretty-printed"),
    ],
)
def test_noncanonical_cache_exit_code(tmp_path, capsys, old, new):
    from siegelforms import census

    # each copy still decodes to the counts of the golden file, but is not
    # the text the cache writes
    golden = Path(__file__).resolve().parents[1] / ".census_cache" / "ell_q11_v1.json"
    text = golden.read_text()
    tampered = new(text) if old is None else text.replace(old, new)
    assert tampered != text
    (tmp_path / golden.name).write_text(tampered)
    try:
        code, _, err = run(capsys, "--cache-dir", str(tmp_path), "census", "--genus", "1", "--q", "11")
        assert code == 2
        assert "corrupt census cache" in err and "not the text" in err
    finally:
        census.set_cache_dir(None)


def test_unreadable_cache_exit_code(tmp_path, capsys):
    from siegelforms import census

    (tmp_path / "g2_q3_v1.json").mkdir()
    try:
        code, _, err = run(capsys, "--cache-dir", str(tmp_path), "census", "--genus", "2", "--q", "3")
        assert code == 2
        assert "corrupt census cache" in err and "g2_q3_v1.json" in err
    finally:
        census.set_cache_dir(None)


def test_cache_dir_flag(tmp_path, capsys):
    from siegelforms import census

    census.set_cache_dir(None)  # force the disk layer to be exercised
    try:
        code, _, _ = run(capsys, "--cache-dir", str(tmp_path), "census", "--genus", "1", "--q", "5")
        assert code == 0
        assert list(tmp_path.glob("ell_q5_*.json"))
    finally:
        census.set_cache_dir(None)


# `census --genus 1 --json` and the cache file it writes, frozen from the
# table-based five-coefficient engine these censuses were first built with
FIVE_COEFFICIENT_CENSUSES = {
    3: (162, "c16a0666337162caf0cc675fd8ab92d61a34d1b1be8a7c5e5423feed1fd11eee"),
    9: (52488, "73dcd504aa1d6f90a2c0cff1bf81780c92d6a9ed503a9a97d9e4f30c1916bc7e"),
    16: (983040, "2d65268b92cf06cc786565e665d5d94f5ed6dba3322e935900afce0d60409aba"),
}


@pytest.mark.parametrize("q", sorted(FIVE_COEFFICIENT_CENSUSES))
def test_five_coefficient_census_bytes(q, tmp_path, capsys):
    import hashlib

    from siegelforms import census

    model_count, digest = FIVE_COEFFICIENT_CENSUSES[q]
    try:
        code, out, _ = run(capsys, "--cache-dir", str(tmp_path), "census", "--genus", "1", "--q", str(q), "--json")
        assert code == 0
        assert out == f'{{"kind":"ell","mass":"{q}","model_count":{model_count},"q":{q}}}\n'
        written = (tmp_path / f"ell_q{q}_v1.json").read_bytes()
        assert hashlib.sha256(written).hexdigest() == digest
    finally:
        census.set_cache_dir(None)


@pytest.mark.parametrize("via_env", (False, True))
def test_cache_dir_naming_a_file_is_a_config_error(via_env, tmp_path, capsys, monkeypatch):
    from siegelforms import census

    path = tmp_path / "not_a_directory"
    path.write_text("")
    argv = ["census", "--genus", "1", "--q", "3"]
    if via_env:
        monkeypatch.setenv("SIEGELFORMS_CACHE_DIR", str(path))
    else:
        argv = ["--cache-dir", str(path)] + argv
    try:
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "config error" in err and "not_a_directory" in err
    finally:
        census.set_cache_dir(None)


# sha256 of the `--json` stdout of each `siegelforms ...` line of README.md
README_JSON = {
    "census --genus 1 --q 3": "d0fd34b101891447c4e3ad6fd6c7f1ad0e5baaf0522ac0eca0a6c37962dc9103",
    "census --genus 1 --q 9": "885fd135cc5390854ccdb34f39e22fe34a35ca6684b9a8162988c295a7eb4c13",
    "census --genus 1 --q 16": "2ea8090d522de10dca6e322d6ea8ced6f42374d8e8c040070b288b6807a719be",
    "census --genus 1 --q 625": "830c234d8787fc03af437a473d333fefbc0ee512c77661856e607ac0c8961fe0",
    "census --genus 2 --q 7": "f3907b06440e0acfa3cdbf3625b3b63dcd03df73268f27f924c5b5f8d6d5d858",
    "trace --j 6 --k 8 --p 3": "f9090b5e586824abf05ec3a18228acb8fecb1c6bb6f17e380e804ee3d9fd34f6",
    "trace --j 6 --k 8 --p 3 --psq": "f915513e69a86acd8bac03e6cd06c275b5b5655535daf9c75b0ec5444e23525a",
    "igusa --form chi10 --max-disc 20": "1fc21fe65aa730cbf438c3527b93e640964134dccd850e9c56d696df06aa5e5c",
    "g1 --weight 12 --ratios": "716255226c539e44d7bee9a6d08b4e715095175058b808c2f294c14e3baf82ba",
    "g1 --weight 22 --congruence-primes": "6a166e5a11b8919033608823eaa286c97fb8fadba27c80a3861b2460ecb5c29e",
    "g1 --weight 38 --congruence-primes": "a93b804fe3ec73bf0dde24b2bf4f55e3407d98755a38422bce41a1650db57229",
    "satake --verify-all": "6826f3e59fa7e3ea62f1606d75ccc0d3ff56db0b6196aefc10972943a3e92dba",
    "satake --spin 6 8 2 0 -57344 --slopes": "9506be08ffc2756915bdecda5108935ba51b4ba1903c5a1797f456888dcbd957",
    "harder --row 22 4 10 41 --pmax 37": "c764cc8329ffb0d65ea3273dad83b4c9e8a6db1ca518341043e73909d49779bd",
    "harder --all": "07723cd93b34bf865b1f14fd14ffd33f2216f45431d8aff8ffee407462a31302",
}


def test_readme_json_is_frozen(capsys, monkeypatch):
    import hashlib

    monkeypatch.delenv("SIEGELFORMS_CACHE_DIR", raising=False)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    commands = [line.split("#")[0].split()[1:] for line in readme if line.startswith("siegelforms ")]
    assert sorted(" ".join(argv) for argv in commands) == sorted(README_JSON)
    for argv in commands:
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0, argv
        assert hashlib.sha256(out.encode()).hexdigest() == README_JSON[" ".join(argv)], argv
