import argparse
import json
import random
from importlib import resources

import pytest

from malkit import cli, malchar, presfile, quotientcert
from malkit.cli import main
from malkit.presfile import PresentationSyntaxError, format_presentation, parse_presentation
from malkit.words import Word, alphabet, apply_endo, word


T666 = "gens: a b\nrels: a^6, b^6, (a b)^6\n"


class TestPresentationParsing:
    def test_triangle_input(self):
        parsed = parse_presentation(T666)
        assert parsed.alphabet.names == ("a", "b")
        assert len(parsed.relators) == 3
        assert not parsed.is_hnn

    def test_empty_relators(self):
        parsed = parse_presentation("gens: z\nrels:\n")
        assert parsed.relators == ()

    def test_unknown_generator(self):
        with pytest.raises(PresentationSyntaxError) as e:
            parse_presentation("gens: a\nrels: a b\n")
        assert "unknown generator" in str(e.value)

    def test_round_trip_random(self):
        rng = random.Random(97)
        ab = alphabet("a b c")
        for _ in range(1000):
            rels = []
            for _ in range(rng.randrange(1, 4)):
                letters = [rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randrange(1, 9))]
                w = Word(ab, letters)
                if w:
                    rels.append(w)
            if not rels:
                continue
            parsed = presfile.ParsedPresentation(ab, tuple(rels))
            again = parse_presentation(format_presentation(parsed))
            assert again.alphabet == ab
            assert again.relators == tuple(rels)

    def test_hnn_round_trip(self):
        text = (
            "gens: a b\nrels: a^6, b^6, (a b)^6\nstable: t\n"
            "mgens: x = a b^-1 a; z = b a^2\n"
            "assoc: z^2, x z\n"
            "endo: a -> b; b -> b^-1 a^-1\n"
        )
        parsed = parse_presentation(text)
        assert parsed.is_hnn
        assert parsed.mgens_alphabet.names == ("x", "z")
        assert format_presentation(parsed) == text

    def test_comments_and_blanks(self):
        parsed = parse_presentation("# header\n\ngens: a b  # trailing\nrels: a^2\n")
        assert len(parsed.relators) == 1

    def test_duplicate_section(self):
        with pytest.raises(PresentationSyntaxError):
            parse_presentation("gens: a\ngens: b\nrels:\n")

    def test_missing_assoc_for_hnn(self):
        with pytest.raises(PresentationSyntaxError):
            parse_presentation("gens: a b\nrels: a^2\nstable: t\n")

    @pytest.mark.parametrize("missing, sections", [
        ("mgens", "assoc: a\nendo: a -> b; b -> a\n"),  # assoc would be read over the base generators
        ("assoc", "mgens: x = a b\nendo: a -> b; b -> a\n"),
        ("endo", "mgens: x = a b\nassoc: x\n"),
    ])
    def test_hnn_sections_required(self, missing, sections):
        with pytest.raises(PresentationSyntaxError) as e:
            parse_presentation("gens: a b\nrels: a^6\nstable: t\n" + sections)
        assert e.value.line_no == 1 and f"needs an '{missing}:' section" in str(e.value)

    @pytest.mark.parametrize("section", ["mgens: x = a b", "assoc: a", "endo: a -> b; b -> a"])
    def test_hnn_section_without_stable(self, section):
        # without stable: the file is a base presentation, which would drop
        # the section; it is refused on the section's line
        with pytest.raises(PresentationSyntaxError) as e:
            parse_presentation(f"gens: a b\nrels: a^2\n{section}\n")
        assert e.value.line_no == 3 and "without a 'stable:' line" in str(e.value)

    @pytest.mark.parametrize("mgens, message", [
        ("x = a; x = b", "pairwise distinct"),       # repeated
        ("x = a; 2y = b", "bad generator name"),     # malformed
        ("x = a; a = b", "collides"),                # a base generator
        ("x = a; t = b", "collides"),                # the stable letter
    ])
    def test_bad_mgens_names(self, mgens, message):
        # each is refused on the mgens line, not later by a command that
        # spells words over the base, stable and mgens names together
        text = f"gens: a b\nrels: a^6\nstable: t\nmgens: {mgens}\nassoc: x\n"
        with pytest.raises(PresentationSyntaxError) as e:
            parse_presentation(text)
        assert e.value.line_no == 4 and message in str(e.value)


@pytest.fixture()
def t666_file(tmp_path):
    path = tmp_path / "t666.pres"
    path.write_text(T666)
    return str(path)


NO_TABLE = "no coset table of the padded quotient: the kernel is the normal closure in M of the assoc words, " \
           "and membership "


def _phi_text(path, text):
    """phi of an mgens word of an HNN file, spelled in the base letters."""
    hnn = presfile.parsed_to_hnn(parse_presentation(path.read_text()))
    return str(apply_endo(hnn.phi, hnn.substitute(word(hnn.hat_alphabet, text))))


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip().startswith("{") else out


class TestCli:
    def test_sc_check(self, capsys, t666_file):
        code, out = run_cli(capsys, "sc-check", "--lambda", "1/4", "--t4", "--c", "6", t666_file)
        assert code == 0
        assert out["verdict"] == {"C'(1/4)": True, "T(4)": True, "C(6)": True}

    def test_sc_check_sixth_fails(self, capsys, t666_file):
        code, out = run_cli(capsys, "sc-check", "--lambda", "1/6", t666_file)
        assert code == 0
        assert out["verdict"]["C'(1/6)"] is False
        assert out["witnesses"]

    def test_fold(self, capsys):
        code, out = run_cli(capsys, "fold", "a b a^-1, a b^2 a^-1")
        assert code == 0 and out["rank"] == 1

    def test_malnormal_witness(self, capsys):
        code, out = run_cli(capsys, "malnormal", "a^2, b")
        assert code == 0
        assert out["verdict"] == "not-malnormal"
        assert out["witnesses"][0] == {"witness_g": "a", "witness_u": "a^2"}

    def test_intersect(self, capsys):
        code, out = run_cli(capsys, "intersect", "--s", "a", "--t", "b", "--gens", "a b")
        assert code == 0 and out["verdict"] == "trivial"

    def test_dehn(self, capsys, t666_file):
        code, out = run_cli(capsys, "dehn", t666_file, "--word", "b^-1 a^6 b")
        assert code == 0 and out["verdict"]["trivial"] is True

    def test_dehn_nontrivial_over_admissible(self, capsys, t666_file):
        code, out = run_cli(capsys, "dehn", t666_file, "--word", "a b")
        assert code == 0 and out["verdict"] == {"reduced": "a b", "trivial": False}
        assert out["caveats"] == []

    def test_dehn_not_admissible_is_not_a_verdict(self, capsys, tmp_path):
        # Z^2 is not Dehn-admissible: this commutator is trivial in Z^2, but
        # Dehn's algorithm leaves it unchanged
        path = tmp_path / "z2.pres"
        path.write_text("gens: a b\nrels: a b a^-1 b^-1\n")
        code, out = run_cli(capsys, "dehn", str(path), "--word", "a^2 b^2 a^-2 b^-2")
        assert code == 0
        assert out["verdict"] == {"reduced": "a^2 b^2 a^-2 b^-2", "trivial": None}
        assert len(out["caveats"]) == 1
        code, out = run_cli(capsys, "dehn", str(path), "--word", "a b a^-1 b^-1")
        assert out["verdict"] == {"reduced": "1", "trivial": True}

    def test_certify_refusal_exit_code(self, capsys, tmp_path):
        # a base presentation that is not Dehn-admissible must refuse (exit 2)
        path = tmp_path / "bad.pres"
        path.write_text("gens: a b\nrels: a b a b a b^2\n")
        code, out = run_cli(capsys, "certify", "--kind", "free-basis", "--rels", str(path), "--s", "b")
        assert code == 2

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "broken.pres"
        path.write_text("gens: a\nrels: a b\n")
        code = main(["sc-check", str(path)])
        assert code == 1

    def test_coset_enum(self, capsys, tmp_path):
        path = tmp_path / "c5.pres"
        path.write_text("gens: z\nrels: z^5\n")
        code, out = run_cli(capsys, "coset-enum", str(path))
        assert code == 0 and out["index"] == 5

    def test_coset_enum_env_cap(self, capsys, tmp_path):
        path = tmp_path / "free.pres"
        path.write_text("gens: z\nrels:\n")
        code, out = run_cli(capsys, "coset-enum", str(path), "--max", "50")
        assert code == 0 and out["verdict"] == "overflow" and out["cap"] == 50

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_coset_enum_refuses_cap_below_one(self, capsys, tmp_path, cap):
        path = tmp_path / "c5.pres"
        path.write_text("gens: z\nrels: z^5\n")
        code, out = run_cli(capsys, "coset-enum", str(path), "--max", cap)
        assert code == 2 and "at least 1" in out["refusal"]

    def test_coset_enum_cap_one(self, capsys, tmp_path):
        path = tmp_path / "c1.pres"
        path.write_text("gens: z\nrels: z\n")
        code, out = run_cli(capsys, "coset-enum", str(path), "--max", "1")
        assert code == 0 and out["index"] == 1

    @pytest.mark.parametrize("cap, code", [("0", 2), ("-1", 2), ("1", 0)])
    def test_build_tp_cap(self, capsys, tmp_path, cap, code):
        # the padded quotient <z, p, q | z^2, p, q> overflows a cap of one:
        # the file lists the padded relators, and membership deletes p and
        # q and decides z^2 by Dehn's algorithm
        pres = tmp_path / "z2.pres"
        pres.write_text("gens: z\nrels: z^2\n")
        got, out = run_cli(capsys, "build-tp", "--triangle", "6,6,6", "--rho", "2",
                           "--pres", str(pres), "--max", cap, "-o", str(tmp_path / "tp.hnn"))
        assert got == code
        if code:
            assert "at least 1" in out["refusal"]
        else:
            assert out["kernel_generators"] == ["z^2", "p", "q"] and out["hnn_relators"] is None
            assert out["caveats"] == [NO_TABLE + "decides by Dehn's algorithm under C'(1/6)"]

    # the ids keep the names of the cases from when --truncate took a depth
    # and exited 2 (depth -1) or 0 (depth 0)
    @pytest.mark.parametrize("depth", [pytest.param("-1", id="-1-2"), pytest.param("0", id="0-0")])
    def test_build_tp_truncate(self, capsys, tmp_path, depth):
        # the kernel is never truncated, and build-tp has no option for it
        pres = tmp_path / "z.pres"
        pres.write_text("gens: z\nrels:\n")
        assert main(["build-tp", "--triangle", "6,6,6", "--rho", "2", "--pres", str(pres),
                     "--truncate", depth, "-o", str(tmp_path / "tp.hnn")]) == 1
        assert f"unrecognized arguments: --truncate {depth}" in capsys.readouterr().err
        assert not (tmp_path / "tp.hnn").exists()

    def test_build_tp_infinite_quotient(self, capsys, tmp_path):
        # <z | > pads to <x, z | x>, which maps onto Z: the file lists x,
        # one caveat names the reading and the route, and britton decides
        # by free reduction
        pres = tmp_path / "z.pres"
        pres.write_text("gens: z\nrels:\n")
        path = tmp_path / "tp.hnn"
        code, out = run_cli(capsys, "build-tp", "--triangle", "6,6,6", "--rho", "2", "--mode", "minimal",
                            "--pres", str(pres), "-o", str(path))
        assert code == 0 and out["kernel_generators"] == ["x"] and out["hnn_relators"] is None
        assert out["caveats"] == [
            "no coset table of the padded quotient: the kernel is the normal closure in M of the assoc words, "
            "and membership decides by free reduction"]
        assert "\nassoc: x\n" in path.read_text()
        code, out = run_cli(capsys, "britton", "--hnn", str(path), "--word", "t z t^-1")
        assert code == 0 and out["verdict"]["stable_letters"] == 2 and out["verdict"]["trivial"] is False
        pinching = f"t z x z^-1 t^-1 ({_phi_text(path, 'z x z^-1')})^-1"
        code, out = run_cli(capsys, "britton", "--hnn", str(path), "--word", pinching)
        assert code == 0 and out["verdict"] == {"reduced": "1", "stable_letters": 0, "trivial": True}
        assert [p["kind"] for p in out["pinches"]] == ["t k t^-1"]

    def test_britton_decides_by_dehn_route(self, capsys, tmp_path):
        # <z, w | z^2> in pq mode maps onto Z: membership deletes p and q and
        # Dehn-reduces over z^2, where z w z z w^-1 z is trivial and z w is not
        pres = tmp_path / "zw.pres"
        pres.write_text("gens: z w\nrels: z^2\n")
        path = tmp_path / "tp.hnn"
        code, out = run_cli(capsys, "build-tp", "--triangle", "6,6,6", "--rho", "2", "--pres", str(pres),
                            "-o", str(path))
        assert code == 0 and out["caveats"] == [NO_TABLE + "decides by Dehn's algorithm under C'(1/6)"]
        k = "z w p z z w^-1 q z"
        code, out = run_cli(capsys, "britton", "--hnn", str(path), "--word", f"t {k} t^-1 ({_phi_text(path, k)})^-1")
        assert code == 0 and out["verdict"]["trivial"] is True and len(out["pinches"]) == 1
        code, out = run_cli(capsys, "britton", "--hnn", str(path), "--word", "t z w t^-1")
        assert code == 0 and out["verdict"]["stable_letters"] == 2 and not out["pinches"]

    def test_britton_refuses_quotient_without_word_problem(self, capsys, tmp_path):
        # <y, z | y^4, z^4, (y z)^4> is infinite and not Dehn-admissible
        # (its pieces y and z are a quarter of a relator): every word is
        # refused
        pres = tmp_path / "y4.pres"
        pres.write_text("gens: y z\nrels: y^4, z^4, (y z)^4\n")
        path = tmp_path / "tp.hnn"
        code, out = run_cli(capsys, "build-tp", "--triangle", "6,6,6", "--rho", "2", "--mode", "minimal",
                            "--pres", str(pres), "--max", "2000", "-o", str(path))
        refusal = "the padded quotient's relators y^4, z^4, (y z)^4, left after deleting the killed " \
                  "generators, are not Dehn-admissible"
        assert code == 0 and out["caveats"] == [NO_TABLE + "refuses: " + refusal]
        for text in ("t y^4 t^-1", "a"):
            code, out = run_cli(capsys, "britton", "--hnn", str(path), "--word", text)
            assert code == 2 and out["refusal"] == refusal

    def test_coset_enum_kernel_with_subgroup_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        # the free group on a, b: the subgroup's enumeration would overflow
        path = tmp_path / "free2.pres"
        path.write_text("gens: a b\nrels:\n")
        code = main(["coset-enum", str(path), "--subgroup", "a", "--kernel", "--max", "50"])
        assert code == 1
        assert "--kernel applies to the trivial-subgroup enumeration" in capsys.readouterr().err
        calls = []
        monkeypatch.setattr(cli, "todd_coxeter", lambda *args: calls.append(args))
        assert main(["coset-enum", str(path), "--subgroup", "a", "--kernel"]) == 1
        assert calls == []

    def test_malchar_free_reject(self, capsys):
        code, out = run_cli(capsys, "malchar", "--gens", "a^3 b^3")
        assert code == 0 and out["verdict"] == "not-malcharacteristic"

    def test_malchar_hypothesis_refusal(self, capsys):
        code, _ = run_cli(capsys, "malchar", "--gens", "a^2 b^2")
        assert code == 2

    def test_malchar_gens_with_triangle_is_a_usage_error(self, capsys, monkeypatch):
        # the triangle certificate has no use for --gens, so it is refused
        # before any decision runs
        calls = []
        monkeypatch.setattr(malchar, "decide_malcharacteristic_triangle", lambda *a: calls.append(a))
        code = main(["malchar", "--triangle", "6,6,6", "--rho", "8", "--gens", "a b"])
        assert code == 1 and calls == []
        assert "not allowed with argument --triangle" in capsys.readouterr().err
        assert main(["malchar", "--free"]) == 1

    def test_malchar_options_the_route_ignores_are_usage_errors(self, capsys, monkeypatch):
        # the free-group route reads no --bound, and no --rho when --gens
        # replaces the seed pair
        calls = []
        monkeypatch.setattr(malchar, "decide_malcharacteristic_free", lambda *a: calls.append(a))
        for argv in (["--bound", "3"], ["--rho", "8", "--bound", "4"], ["--gens", "a^3 b^3", "--rho", "8"],
                     ["--gens", "a^3 b^3", "--bound", "9"]):
            assert main(["malchar", *argv]) == 1, argv
        assert calls == []
        assert "--bound applies to the triangle route" in capsys.readouterr().err

    def test_malchar_triangle_defaults(self, capsys):
        # the triangle route resolves rho = 8 and bound = 3 itself, so its
        # digest is the same with the defaults spelled out or left out
        digests = {run_cli(capsys, "malchar", "--triangle", "6,6,6", *extra)[1]["inputs_digest"]
                   for extra in ((), ("--rho", "8"), ("--rho", "8", "--bound", "3"))}
        assert digests == {"1e2ae9abf633c26e"}

    @pytest.mark.parametrize("kind, extra, digest", [
        ("malnormal", (), "df99a248bde70a93"),
        ("free-basis", (), "0a43d17150cbbe8d"),
        ("intersection", ("--t", "b a b"), "5b4672c7503a71b6"),
        ("intersection", ("--t", "b a b", "--bound", "3"), "5b4672c7503a71b6"),
    ])
    def test_certify_digests(self, capsys, t666_file, kind, extra, digest):
        # every kind resolves the bound to 3 when none is given
        code, out = run_cli(capsys, "certify", "--kind", kind, "--rels", t666_file, "--s", "a b a^2 b^2", *extra)
        assert code == 0 and out["inputs_digest"] == digest

    def test_certify_intersection_with_no_t_words(self, capsys, t666_file):
        # a blank --t is an empty family: nothing to check, not a crash
        code, out = run_cli(capsys, "certify", "--kind", "intersection", "--rels", t666_file,
                            "--s", "a b a^2 b^2", "--t", " ")
        assert code == 0
        cert = out["certificate"]
        family = next(h for h in cert["hypotheses"] if h["name"] == "every t-word cyclically Dehn-reduced")
        assert (family["ok"], family["caveat"]) == (True, None)
        assert cert["data"] == {"free_verdict": "trivial", "s": ["a b a^2 b^2"], "t": []}

    def test_certify_options_the_kind_ignores_are_usage_errors(self, capsys, t666_file, monkeypatch):
        # only intersection certificates read --t and --bound
        calls = []
        monkeypatch.setattr(quotientcert, "certify_malnormal_in_quotient", lambda *a: calls.append(a))
        monkeypatch.setattr(quotientcert, "certify_free_basis", lambda *a: calls.append(a))
        for argv in (["free-basis", "--t", "b"], ["malnormal", "--t", "b", "--bound", "4"],
                     ["malnormal", "--bound", "3"]):
            assert main(["certify", "--rels", t666_file, "--s", "a b a^2 b^2", "--kind", *argv]) == 1, argv
        assert calls == []
        assert "apply to intersection certificates" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["malchar", "build-tp"])
    def test_triangle_exponents(self, capsys, tmp_path, command):
        # exponents below 6 are a refusal on both commands; a malformed
        # option is a usage error
        pres = tmp_path / "p2.pres"
        pres.write_text("gens: z\nrels: z^2\n")
        extra = ["--pres", str(pres)] if command == "build-tp" else []
        code, out = run_cli(capsys, command, "--triangle", "5,6,6", *extra)
        assert code == 2 and "below 6" in out["refusal"]
        for bad in ("6,6", "6,6,6,6", "6,6,x"):
            assert main([command, "--triangle", bad, *extra]) == 1
            assert "--triangle takes three integers i,j,k" in capsys.readouterr().err

    def test_britton_refuses_hnn_file_without_mgens(self, capsys, tmp_path):
        path = tmp_path / "no_mgens.hnn"
        path.write_text("gens: a b\nrels: a^6, b^6, (a b)^6\nstable: t\nassoc: a\nendo: a -> b; b -> a\n")
        assert main(["britton", "--hnn", str(path), "--word", "t a t^-1"]) == 1
        assert "needs an 'mgens:' section" in capsys.readouterr().err

    def test_build_tp_refuses_colliding_generator_names(self, capsys, tmp_path):
        # padding <a | a^2> gives the hat generators a, p and q, and a is a
        # base generator: a file naming it twice could not be read back
        pres = tmp_path / "a2.pres"
        pres.write_text("gens: a\nrels: a^2\n")
        out_path = tmp_path / "tp.hnn"
        code, out = run_cli(capsys, "build-tp", "--triangle", "6,6,6", "--rho", "2",
                            "--pres", str(pres), "-o", str(out_path))
        assert code == 2 and "collide" in out["refusal"]
        assert not out_path.exists()

    def test_build_tp_and_britton(self, capsys, tmp_path):
        pres = tmp_path / "p2.pres"
        pres.write_text("gens: z\nrels: z^2\n")
        out_path = tmp_path / "tp2.hnn"
        code, out = run_cli(
            capsys, "build-tp", "--triangle", "6,6,6", "--rho", "2",
            "--pres", str(pres), "--mode", "minimal", "-o", str(out_path),
        )
        assert code == 0 and out["verdict"] == "built"
        code, out = run_cli(capsys, "britton", "--hnn", str(out_path), "--word", "t z^2 t^-1")
        assert code == 0
        assert out["verdict"]["stable_letters"] == 0
        code, out = run_cli(capsys, "britton", "--hnn", str(out_path), "--word", "t a t^-1")
        assert code == 0
        assert out["verdict"]["stable_letters"] == 2
        assert out["verdict"]["trivial"] is False

    @pytest.mark.parametrize("text", ["t x t^-1", "t z x z^-1 t^-1", "a"])
    def test_britton_refuses_assoc_that_is_not_normal(self, capsys, tmp_path, text):
        # <x, z^2> is not normal in F(x, z): z x z^-1 lies in its normal
        # closure but not in it.  The fault is the file's, so every word is
        # refused and the refusal names the generators
        lines = resources.files("malkit.fixtures").joinpath("tp_p2.pres").read_text().splitlines()
        path = tmp_path / "bad_assoc.hnn"
        path.write_text("\n".join("assoc: x, z^2" if ln.startswith("assoc:") else ln for ln in lines) + "\n")
        code, out = run_cli(capsys, "britton", "--hnn", str(path), "--word", text)
        assert code == 2
        assert "x, z^2" in out["refusal"] and "internal" not in out["refusal"]

    @pytest.mark.parametrize("section, line, reason", [
        ("rels:", "rels: a^2, b^3, (a b)^7", "not Dehn-admissible"),
        ("endo:", "endo: a -> a; b -> a b", "does not preserve relators"),
    ])
    def test_britton_refuses_base_it_cannot_read(self, capsys, tmp_path, section, line, reason):
        # relators Dehn's algorithm cannot use, or an endo that breaks a
        # relator, are the file's fault: a refusal, as a non-normal assoc is
        lines = resources.files("malkit.fixtures").joinpath("tp_p2.pres").read_text().splitlines()
        path = tmp_path / "bad_base.hnn"
        path.write_text("\n".join(line if ln.startswith(section) else ln for ln in lines) + "\n")
        code, out = run_cli(capsys, "britton", "--hnn", str(path), "--word", "t a t^-1")
        assert code == 2 and reason in out["refusal"]

    def test_britton_refuses_mgens_that_are_not_a_free_basis(self, capsys, tmp_path):
        # a^2 and a^3 generate <a>, of rank one: membership cannot rewrite
        # over them, and the fault is the file's
        lines = resources.files("malkit.fixtures").joinpath("tp_p2.pres").read_text().splitlines()
        path = tmp_path / "bad_mgens.hnn"
        path.write_text("\n".join("mgens: x = a^2; z = a^3" if ln.startswith("mgens:") else ln
                                  for ln in lines) + "\n")
        code, out = run_cli(capsys, "britton", "--hnn", str(path), "--word", "t a t^-1")
        assert code == 2 and out["refusal"] == "mgens: not a free basis"

    def test_reproduce_counterexample(self, capsys):
        code, out = run_cli(capsys, "reproduce", "counterexample-cmt4")
        assert code == 0 and out["verdict"] == "pass"

    def test_reproduce_rank_two_decider(self, capsys):
        code, out = run_cli(capsys, "reproduce", "lemma-malcharfree", "--rho", "6")
        assert code == 0 and out["verdict"] == "pass"

    def test_reproduce_triangle_reports_stages(self, capsys):
        code, out = run_cli(capsys, "reproduce", "lemma-malchartriangle", "--rho", "8")
        assert code == 0
        assert any(line.startswith("certified:") for line in out["report"])

    @pytest.mark.parametrize("what", ["intro-examples", "counterexample-cmt4"])
    def test_reproduce_rho_where_ignored_is_a_usage_error(self, capsys, what):
        assert main(["reproduce", what, "--rho", "8"]) == 1
        assert "does not read --rho" in capsys.readouterr().err

    def test_failed_reproduction_exits_3(self, capsys, monkeypatch):
        # main reads the exit code off the envelope's verdict
        monkeypatch.setitem(cli.REPRODUCTIONS, "counterexample-cmt4", (lambda rho: (["differs"], False), False))
        code, out = run_cli(capsys, "reproduce", "counterexample-cmt4")
        assert code == 3 and out["verdict"] == "fail" and out["report"] == ["differs"]

    def test_britton_multiexponent_stable_letters(self, capsys, tmp_path):
        pres = tmp_path / "p2.pres"
        pres.write_text("gens: z\nrels: z^2\n")
        out_path = tmp_path / "tp2.hnn"
        run_cli(capsys, "build-tp", "--triangle", "6,6,6", "--rho", "2",
                "--pres", str(pres), "--mode", "minimal", "-o", str(out_path))
        # t^2 never pinches regardless of the base segments
        code, out = run_cli(capsys, "britton", "--hnn", str(out_path), "--word", "t^2 z t^-2")
        assert code == 0 and out["verdict"]["stable_letters"] == 4

    def test_inputs_digest_covers_files_and_options(self, capsys, tmp_path):
        # the same --word over two presentations, and one certificate at two
        # bounds, are different questions
        p6, p3 = tmp_path / "p6.pres", tmp_path / "p3.pres"
        p6.write_text("gens: a b\nrels: a^6, b^6, (a b)^6\n")
        p3.write_text("gens: a b\nrels: a^3, b^6, (a b)^6\n")
        _, over6 = run_cli(capsys, "dehn", str(p6), "--word", "a^3")
        _, over3 = run_cli(capsys, "dehn", str(p3), "--word", "a^3")
        assert (over6["verdict"]["trivial"], over3["verdict"]["trivial"]) == (False, True)
        assert over6["inputs_digest"] != over3["inputs_digest"]
        # the file's text counts, not its path
        copy = tmp_path / "copy.pres"
        copy.write_text(p6.read_text())
        assert run_cli(capsys, "dehn", str(copy), "--word", "a^3")[1]["inputs_digest"] == over6["inputs_digest"]
        free = tmp_path / "free.pres"
        free.write_text("gens: a b\nrels:\n")
        digests = set()
        for bound in ("3", "4"):
            _, out = run_cli(capsys, "certify", "--kind", "intersection", "--rels", str(free),
                             "--s", "a", "--t", "b", "--bound", bound)
            assert out["certificate"]["certified"]
            digests.add(out["inputs_digest"])
        assert len(digests) == 2

    def test_json_envelope_fields(self, capsys, tmp_path):
        path = tmp_path / "c3.pres"
        path.write_text("gens: z\nrels: z^3\n")
        runs = [
            ("fold", "a"),
            ("malnormal", "a"),
            ("intersect", "--s", "a", "--t", "b", "--gens", "a b"),
            ("sc-check", str(path)),
            ("dehn", str(path), "--word", "z^3"),
            ("coset-enum", str(path)),
        ]
        for argv in runs:
            _, out = run_cli(capsys, *argv)
            for key in ("command", "inputs_digest", "witnesses", "caveats", "elapsed_ms"):
                assert key in out, (argv, key)
            assert "verdict" in out or "certificate" in out


def _subcommands():
    action = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return list(action.choices)


# one quick run of every subcommand; {d} is a directory holding the files
_ENVELOPE_RUNS = {
    "fold": ["a b a^-1"],
    "malnormal": ["a^2, b"],
    "intersect": ["--s", "a", "--t", "b"],
    "sc-check": ["{d}/t666.pres", "--lambda", "1/6"],
    "dehn": ["{d}/t666.pres", "--word", "a b"],
    "certify": ["--kind", "malnormal", "--rels", "{d}/t666.pres", "--s", "a b a^2 b^2"],
    "malchar": ["--gens", "a^3 b^3"],
    "coset-enum": ["{d}/c5.pres", "--kernel"],
    "build-tp": ["--triangle", "6,6,6", "--rho", "2", "--pres", "{d}/p2.pres", "--mode", "minimal",
                 "-o", "{d}/tp.hnn"],
    "britton": ["--hnn", str(resources.files("malkit.fixtures").joinpath("tp_p2.pres")), "--word", "t z t^-1"],
    "reproduce": ["counterexample-cmt4"],
}


@pytest.mark.parametrize("command", _subcommands())
def test_envelope_key_order(capsys, tmp_path, command):
    for name, text in (("t666.pres", T666), ("c5.pres", "gens: z\nrels: z^5\n"), ("p2.pres", "gens: z\nrels: z^2\n")):
        (tmp_path / name).write_text(text)
    code, out = run_cli(capsys, command, *(arg.format(d=tmp_path) for arg in _ENVELOPE_RUNS[command]))
    keys = list(out)
    assert code == 0
    assert keys[:2] == ["command", "inputs_digest"] and keys[-3:] == ["witnesses", "caveats", "elapsed_ms"]
    assert out["command"] == command
