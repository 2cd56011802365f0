import json
import random
import string
import threading
import time

import pytest

from shinglesync import Alphabet, ReconConfig, interior_qgrams
from shinglesync import cli
from shinglesync.cli import main
from shinglesync.decider import _Core


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestCheck:
    def test_katana(self, capsys):
        code, out = run_cli(capsys, "check", "katana")
        assert code == 1
        assert out == "NOT-UD cycle-intrusion at index 6\n"

    def test_axbxa(self, capsys):
        code, out = run_cli(capsys, "check", "axbxa")
        assert code == 0
        assert out == "UD\n"

    def test_axbxbax(self, capsys):
        code, out = run_cli(capsys, "check", "axbxbax")
        assert code == 1
        assert out == "NOT-UD communicating-parents at index 7\n"

    def test_q3(self, capsys):
        code, out = run_cli(capsys, "check", "katana", "--q", "3")
        assert code == 0 and out == "UD\n"

    def test_explicit_alphabet_rejects_foreign_symbols(self, capsys):
        code = main(["check", "xyz", "--alphabet", "ab"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("q", ["3", "5"])
    def test_explicit_alphabet_rejects_foreign_symbols_at_every_q(self, capsys, q):
        # longer windows go to the token decider, which checks no symbol
        # itself: the word is refused as it is at q = 2
        code = main(["check", "xyz", "--alphabet", "ab", "--q", q])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == "error: symbol 'x' not in alphabet\n"

    @pytest.mark.parametrize(
        "word, expected",
        [("katana", (0, "UD\n")), ("acadddbadcadadcada", (1, "NOT-UD communicating-parents at index 13\n"))],
    )
    def test_explicit_alphabet_keeps_the_verdict_at_q3(self, capsys, word, expected):
        assert run_cli(capsys, "check", word, "--q", "3") == expected
        assert run_cli(capsys, "check", word, "--q", "3", "--alphabet", "abcdknt") == expected

    # "\x01" is a code point below the alphabet's size, "é" a latin-1 byte
    # and "λ" past U+00FF
    @pytest.mark.parametrize("foreign", ["\x01", "é", "λ"])
    def test_a_foreign_symbol_is_named(self, capsys, foreign):
        code = main(["check", "ab" + foreign + "a", "--alphabet", "ab"])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err == f"error: symbol {foreign!r} not in alphabet\n"

    def test_verdicts_and_exit_codes_match_the_rule_loop(self, capsys):
        rng = random.Random(0xC11)
        for _ in range(200):
            word = "".join(rng.choice("abcd") for _ in range(rng.randrange(1, 40)))
            verdict = _Core(4).feed(Alphabet("abcd").encode(word))
            expected = "UD\n" if verdict.ok else f"NOT-UD {verdict.reason.value} at index {verdict.position}\n"
            assert run_cli(capsys, "check", word, "--alphabet", "abcd") == (0 if verdict.ok else 1, expected)

    def test_foreign_symbol_after_the_rejection_is_refused(self, capsys):
        # the whole word is checked against the alphabet, not only the
        # prefix that decides the verdict
        code, out = run_cli(capsys, "check", "katanaz", "--alphabet", "aknt")
        assert code == 2 and out == ""

    def test_at_file_input(self, capsys, tmp_path):
        path = tmp_path / "word.bin"
        path.write_bytes(b"katana")
        code, out = run_cli(capsys, "check", f"@{path}")
        assert code == 1 and "cycle-intrusion" in out


class TestShingle:
    def test_katana_golden(self, capsys):
        code, out = run_cli(capsys, "shingle", "katana", "--l", "2")
        assert code == 0
        assert out == "1\t$k\n1\ta$\n1\tan\n1\tat\n1\tka\n1\tna\n1\tta\n"
        assert len(out.splitlines()) == 7


class TestDecode:
    def test_unique_multiset(self, capsys, tmp_path):
        path = tmp_path / "ms.txt"
        path.write_text("1\t$k\n1\ta$\n1\tat\n1\tka\n1\ttana\n", encoding="utf-8")
        code, out = run_cli(capsys, "decode", str(path), "--l", "2")
        assert code == 0 and out == "katana\n"

    def test_ambiguous_multiset(self, capsys, tmp_path):
        path = tmp_path / "ms.txt"
        path.write_text("1\t$k\n1\ta$\n1\tan\n1\tat\n1\tka\n1\tna\n1\tta\n", encoding="utf-8")
        code, out = run_cli(capsys, "decode", str(path))
        assert code == 1
        assert out == "AMBIGUOUS count=2+ witnesses: kanata katana\n"

    def test_inconsistent_multiset(self, capsys, tmp_path):
        path = tmp_path / "ms.txt"
        path.write_text("1\t$a\n1\tb$\n", encoding="utf-8")
        code, out = run_cli(capsys, "decode", str(path))
        assert code == 2 and out.startswith("INCONSISTENT")

    def test_count_cap(self, capsys, tmp_path):
        path = tmp_path / "ms.txt"
        path.write_text("1\t$k\n1\ta$\n1\tan\n1\tat\n1\tka\n1\tna\n1\tta\n", encoding="utf-8")
        code, out = run_cli(capsys, "decode", str(path), "--count-cap", "5")
        assert code == 1
        assert out == "AMBIGUOUS count=2 witnesses: kanata katana\n"


class TestObstruct:
    def test_katana(self, capsys):
        code, out = run_cli(capsys, "obstruct", "katana")
        assert code == 1
        assert out.startswith("OBSTRUCTION x=")

    def test_axbxa(self, capsys):
        code, out = run_cli(capsys, "obstruct", "axbxa")
        assert code == 0 and out == "NO-OBSTRUCTION\n"


class TestGen:
    def test_deterministic_pair(self, capsys):
        _, out1 = run_cli(capsys, "gen", "pevzner", "--kind", "rotate", "--seed", "7")
        _, out2 = run_cli(capsys, "gen", "pevzner", "--kind", "rotate", "--seed", "7")
        assert out1 == out2
        x, xp = out1.splitlines()
        assert interior_qgrams(x, 2) == interior_qgrams(xp, 2)

    def test_transpose_pair_multisets_match(self, capsys):
        for seed in range(5):
            _, out = run_cli(capsys, "gen", "pevzner", "--kind", "transpose", "--seed", str(seed))
            x, xp = out.splitlines()
            assert interior_qgrams(x, 2) == interior_qgrams(xp, 2)


class TestReconcile:
    def test_socket_session(self, capsys, tmp_path):
        (tmp_path / "a.txt").write_bytes(b"katana")
        (tmp_path / "b.txt").write_bytes(b"katna")
        out_a = tmp_path / "got_a.txt"
        out_b = tmp_path / "got_b.txt"
        from shinglesync.transport import Listener

        listener = Listener("127.0.0.1", 0)
        addr = f"127.0.0.1:{listener.port}"
        listener.close()

        results = {}

        def serve():
            results["serve"] = main(
                ["reconcile", "serve", addr, "--input", f"@{tmp_path}/a.txt", "--output", str(out_b)]
            )

        thread = threading.Thread(target=serve)
        thread.start()
        import time

        time.sleep(0.3)
        code = main(
            ["reconcile", "connect", addr, "--input", f"@{tmp_path}/b.txt",
             "--l", "2", "--mode", "fixed:16", "--output", str(out_a)]
        )
        thread.join(timeout=30)
        capsys.readouterr()
        assert code == 0 and results["serve"] == 0
        assert out_a.read_bytes() == b"katana"
        assert out_b.read_bytes() == b"katna"

    @staticmethod
    def json_reports(capsys, served, connecting, l):
        """The JSON reports of a session between a `serve` end holding
        `served` and a `connect` end holding `connecting` at shingle length
        `l`, by role."""
        from shinglesync.transport import Listener

        listener = Listener("127.0.0.1", 0)
        addr = f"127.0.0.1:{listener.port}"
        listener.close()
        results = {}
        thread = threading.Thread(
            target=lambda: results.setdefault(
                "serve", main(["reconcile", "serve", addr, "--input", served, "--report", "json"])
            )
        )
        thread.start()
        time.sleep(0.3)
        code = main(["reconcile", "connect", addr, "--input", connecting, "--l", str(l), "--report", "json"])
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert code == 0 and results["serve"] == 0
        return {report["role"]: report for report in map(json.loads, capsys.readouterr().out.splitlines())}

    def test_report_json(self, capsys):
        # both ends print their report as one JSON object on one line
        reports = self.json_reports(capsys, "katana", "katna", 2)
        initiator, responder = reports["initiator"], reports["responder"]
        assert initiator["outcome"] == responder["outcome"] == "ok"
        assert initiator["merges_remote"] == responder["merges_local"] == 2
        # katana's one branch point: out of 'ta'
        assert responder["ranks_sent"] == 1 and initiator["ranks_sent"] == 0
        total = initiator["total_bits_sent"] + initiator["total_bits_recv"]
        assert initiator["wire_ratio"] == round(total / initiator["raw_bits"], 4)
        # one session check, which only the responder runs; only it holds
        # candidates to reject
        assert (initiator["step2_checks"], responder["step2_checks"]) == (0, 1)
        assert initiator["step2_rejected"] == 0 and responder["step2_rejected"] >= 0
        # no shingle of either word repeats, so the occurrence width is 0;
        # both derive one prime: the elements, up to code_count(4, 2) = 25,
        # take 5 bits, and the span's floor for 7 + 6 instances, 2**(5 + 4),
        # puts the prime just above 25 + 512, so residues cross at 10 bits
        assert initiator["occ_bits"] == responder["occ_bits"] == 0
        assert initiator["elem_bits"] == responder["elem_bits"] == 5
        assert initiator["value_bits"] == responder["value_bits"] == 10
        # each party's thread CPU by step, in session order
        for report in reports.values():
            steps = [name for name in report if name.endswith("_cpu_s")]
            assert steps == ["step1_cpu_s", "step2_cpu_s", "merge_cpu_s", "step5_cpu_s", "rebuild_cpu_s"]
            assert all(report[name] >= 0 for name in steps)
        # 6 and 7 instances make two fine buckets, whose sizes differ by 1:
        # too few instances to join them, and the initiator reads the
        # estimate off the first request
        assert initiator["step2_fine_buckets"] == responder["step2_fine_buckets"] == 2
        assert initiator["step2_buckets"] == responder["step2_buckets"] == 2
        assert initiator["step2_estimate"] == responder["step2_estimate"] == 1

    def test_report_json_states_the_walk(self, capsys):
        # katana's run 'tan' leads the responder's walk to the initiator's
        # one one-sided window, 'tn', which only the responder reports
        reports = self.json_reports(capsys, "katana", "katna", 2)
        assert (reports["responder"]["step2_walked"], reports["initiator"]["step2_walked"]) == (1, 0)
        # the responder's windows are all the initiator's: it has no run to
        # walk from, and its walk's third pass, from every node of its word,
        # finds the one '000' more
        reports = self.json_reports(capsys, "0000000", "00000000", 3)
        assert [report["outcome"] for report in reports.values()] == ["ok", "ok"]
        assert (reports["responder"]["step2_walked"], reports["responder"]["step2_checks"]) == (1, 1)
        assert "step2_residual" not in reports["responder"]

    def test_report_json_states_the_occurrence_width(self, capsys):
        # 'ab' occurs four times in the served word: the session's width is
        # its 2 bits, stated beside the width of the largest element,
        # code_count(2, 2) * 2**2 = 36, and the width of the residues, which
        # the span's floor for 9 + 7 instances, 2**(6 + 4), sets
        reports = self.json_reports(capsys, "abababab", "ababab", 2)
        for report in reports.values():
            assert report["outcome"] == "ok"
            assert (report["occ_bits"], report["elem_bits"], report["value_bits"]) == (2, 6, 11)
            names = list(report)
            assert names.index("occ_bits") + 2 == names.index("elem_bits") + 1 == names.index("value_bits")

    def test_default_l_fits_the_encoding(self, capsys, tmp_path):
        # the paper's length for 100 symbols is 10, past the 9 that 26 letters
        # leave; without the cap the session ended with ProtocolError
        rng = random.Random(7)
        letters = list(string.ascii_lowercase * 4)[:100]
        rng.shuffle(letters)
        text_a = "".join(letters)
        text_b = text_a[:40] + "zq" + text_a[42:]
        out = tmp_path / "got.txt"
        from shinglesync.transport import Listener

        listener = Listener("127.0.0.1", 0)
        addr = f"127.0.0.1:{listener.port}"
        listener.close()
        results = {}
        thread = threading.Thread(
            target=lambda: results.setdefault(
                "serve", main(["reconcile", "serve", addr, "--input", text_b, "--report", "json"])
            )
        )
        thread.start()
        time.sleep(0.3)
        code = main(["reconcile", "connect", addr, "--input", text_a, "--report", "json", "--output", str(out)])
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert code == 0 and results["serve"] == 0
        assert out.read_text() == text_b
        reports = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [(report["l"], report["outcome"]) for report in reports] == [(9, "ok"), (9, "ok")]

    def test_default_l_past_the_peers_symbols_names_the_cap(self, capsys):
        # the default l is sized from the local word's symbols alone: 15 for
        # 1,000 binary symbols, past the 9 that the 28 symbols of both words
        # together leave, so both ends stop straight after the hellos and
        # say which l the session could take
        rng = random.Random(3)
        bits = "".join(rng.choice("01") for _ in range(1000))
        letters = "".join(rng.choice(string.ascii_lowercase) for _ in range(1000))
        from shinglesync.transport import Listener

        listener = Listener("127.0.0.1", 0)
        addr = f"127.0.0.1:{listener.port}"
        listener.close()
        results = {}
        thread = threading.Thread(
            target=lambda: results.setdefault("serve", main(["reconcile", "serve", addr, "--input", letters]))
        )
        thread.start()
        time.sleep(0.3)
        code = main(["reconcile", "connect", addr, "--input", bits])
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert code == 2 and results["serve"] == 2
        message = (
            "l = 15 exceeds 9, the longest shingle the encoding range holds "
            "for the 28 symbols of both words together"
        )
        assert capsys.readouterr().err.splitlines().count(f"error: {message}") == 2

    @pytest.mark.parametrize(
        "option", [["--l", "5"], ["--mode", "fixed:16"], ["--k", "4"], ["--seed", "3"]]
    )
    def test_serve_rejects_session_parameters(self, capsys, option):
        # the responder adopts the initiator's hello, so these would be ignored
        with pytest.raises(SystemExit) as exc:
            main(["reconcile", "serve", "127.0.0.1:0", "--input", "katana", *option])
        assert exc.value.code == 2
        assert option[0] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option",
        [["--seed", "-1"], ["--seed", str(2**64)], ["--k", str(2**16)], ["--l", str(2**32)],
         ["--mode", f"fixed:{2**32}"], ["--mode", "fixed:-1"]],
    )
    def test_connect_rejects_parameters_the_hello_cannot_carry(self, capsys, option):
        # refused before any connection is attempted: port 1 is never dialled
        code = main(["reconcile", "connect", "127.0.0.1:1", "--input", "katana", *option])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "mode, m_hat", [("fixed:0", 0), ("fixed:32", 32), ("rateless", ReconConfig(l=2).m_hat)]
    )
    def test_connect_hands_the_parsed_bound_to_the_session(self, monkeypatch, capsys, mode, m_hat):
        # an explicit fixed:0 stays 0; rateless keeps ReconConfig's default
        configs = []

        class Endpoint:
            def close(self):
                pass

        class Report:
            def to_text(self):
                return ""

        def fake_run_protocol(word, endpoint, role, config):
            configs.append(config)
            return "", Report()

        monkeypatch.setattr(cli, "connect", lambda host, port: Endpoint())
        monkeypatch.setattr(cli, "run_protocol", fake_run_protocol)
        assert main(["reconcile", "connect", "127.0.0.1:1", "--input", "katana", "--mode", mode]) == 0
        assert [(config.mode, config.m_hat) for config in configs] == [(mode.split(":")[0], m_hat)]
