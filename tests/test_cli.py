import argparse
import calendar
import contextlib
import csv
import io
import json
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutchar import (
    CharPoly,
    CheckResult,
    EquivBundleCP1,
    SweepReport,
    cohomology,
    cut,
    mcut_cohomology,
)
from cutchar.cli import _build_parser, _is_value, _scan, _timestamp, main
from cutchar.geometry import _WEIGHT, _parse_weight
from cutchar.verify import ALL_CHECKS, _REGISTRY, equality_region, grid_bundles, sweep
from test_golden import GOLDEN, LONG
import json_model


def json_text(report: SweepReport) -> str:
    """The bytes the command line writes for ``report`` as JSON, without a stamp."""
    return report.to_json_text() + "\n"


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "cutchar", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


class TestCohomology:
    def test_golden_output(self):
        proc = run_cli("cohomology", "2:0")
        assert proc.returncode == 0
        assert proc.stdout == (
            '{\n  "h0": {\n    "0": 1,\n    "1": 1,\n    "2": 1\n  },\n'
            '  "h1": {},\n  "n": 1\n}\n'
        )

    def test_negative_degree(self):
        proc = run_cli("cohomology", "-3:0")
        assert proc.returncode == 0
        assert json.loads(proc.stdout) == {"h0": {}, "h1": {"-2": 1, "-1": 1}, "n": 1}

    def test_bad_bundle_exits_2(self):
        proc = run_cli("cohomology", "nonsense")
        assert proc.returncode == 2
        assert "error:" in proc.stderr

    def test_output_streams_to_its_file(self, tmp_path):
        # The writer hands its pieces to the file as it makes them, so the
        # memory it traces stays far below the text it writes.
        out = tmp_path / "h.json"
        tracemalloc.start()
        try:
            assert main(["cohomology", "300000:0", "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        size = out.stat().st_size
        assert size > 4_900_000
        assert peak < size / 10
        text = out.read_text(encoding="utf-8")
        assert text.startswith('{\n  "h0": {\n    "0": 1,\n    "1": 1,\n')
        assert text.endswith('    "300000": 1\n  },\n  "h1": {},\n  "n": 1\n}\n')


class TestCut:
    def test_structure(self):
        proc = run_cli("cut", "1:-1,2:2")
        assert proc.returncode == 0
        obj = json.loads(proc.stdout)
        assert set(obj) == {"bundle", "plus", "minus", "red_dims", "mcut"}
        assert obj["bundle"] == "1:-1,2:2"
        assert obj["plus"]["bundle"] == "1:0,2:0"
        assert obj["minus"]["bundle"] == "0:-1,0:2"
        assert obj["red_dims"] == [2, 0]
        assert obj["mcut"]["n"] == 1


class TestVerify:
    def test_all_checks_pass(self):
        proc = run_cli("verify", "2:2")
        assert proc.returncode == 0
        report = sweep([EquivBundleCP1.parse("2:2")])
        assert proc.stdout == json_text(report)
        assert report.passed
        assert [r.check_id for r in report.results[0]] == list(_REGISTRY)

    def test_check_subset(self):
        proc = run_cli("verify", "0:0", "--checks", "gluing,oracle")
        assert proc.returncode == 0
        report = sweep([EquivBundleCP1.parse("0:0")], ("gluing", "oracle"))
        assert proc.stdout == json_text(report)
        assert [r.check_id for r in report.results[0]] == ["gluing", "oracle"]

    def test_underscored_weight_exits_2(self):
        proc = run_cli("verify", "1_0:0")
        assert proc.returncode == 2
        assert "error:" in proc.stderr
        assert proc.stdout == ""

    def test_unknown_check_exits_2(self):
        proc = run_cli("verify", "0:0", "--checks", "gluing,bogus")
        assert proc.returncode == 2
        assert "unknown check id" in proc.stderr

    def test_markdown_format(self):
        proc = run_cli("verify", "2:2", "--format", "md")
        assert proc.returncode == 0
        assert "## Details" in proc.stdout

    def test_failing_check_exits_1(self, monkeypatch, capsys):
        def always_fails(t):
            return CheckResult("gluing", t.bundle, False, residual=CharPoly([1]))

        monkeypatch.setitem(_REGISTRY, "gluing", always_fails)
        assert main(["verify", "0:0"]) == 1
        report = sweep([EquivBundleCP1.parse("0:0")])
        assert capsys.readouterr().out == json_text(report)
        assert not report.passed

    def test_spaces_around_check_ids_are_ignored(self, tmp_path):
        spaced, plain = tmp_path / "spaced.json", tmp_path / "plain.json"
        assert main(["verify", "1:-1", "--checks", " gluing , mcut", "--out", str(spaced)]) == 0
        assert main(["verify", "1:-1", "--checks", "gluing,mcut", "--out", str(plain)]) == 0
        assert spaced.read_bytes() == plain.read_bytes()


class TestSweep:
    def test_grid_flags(self):
        proc = run_cli("sweep", "--rp-range", "-1..1", "--rq-range", "0..0", "--checks", "gluing")
        assert proc.returncode == 0
        report = sweep(grid_bundles((-1, 1), (0, 0)), ("gluing",))
        assert proc.stdout == json_text(report)
        assert [b.literal() for b in report.grid] == ["-1:0", "0:0", "1:0"]

    def test_byte_stable(self):
        args = ("sweep", "--rp-range", "0..2", "--rq-range", "-1..1")
        assert run_cli(*args).stdout == run_cli(*args).stdout

    def test_single_point_matches_verify(self):
        swept = run_cli("sweep", "--rp-range", "2..2", "--rq-range", "2..2")
        verified = run_cli("verify", "2:2")
        assert swept.stdout == verified.stdout

    def test_empty_checks_config(self, tmp_path):
        # An empty selection is an input error, as with sweep --checks "",
        # not a vacuous PASS.
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"bundles": ["0:0"], "checks": []}))
        proc = run_cli("sweep", "--config", str(cfg))
        assert proc.returncode == 2
        assert proc.stdout == ""
        flag = run_cli("sweep", "--rp-range", "0..0", "--rq-range", "0..0", "--checks", "")
        assert proc.stderr == f"error: config {str(cfg)!r}: no checks selected\n"
        assert flag.stderr == "error: no checks selected\n"

    def test_csv_format(self):
        proc = run_cli("sweep", "--rp-range", "0..0", "--rq-range", "0..0", "--format", "csv")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[0] == "r_P,r_Q,check_id,passed,witness"
        assert len(lines) == 1 + len(_REGISTRY)

    def test_out_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("sweep", "--rp-range", "0..0", "--rq-range", "0..0", "--out", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert out.read_text() == json_text(sweep([EquivBundleCP1.parse("0:0")]))

    def test_missing_source_exits_2(self):
        proc = run_cli("sweep")
        assert proc.returncode == 2
        assert "no bundles" in proc.stderr

    def test_half_range_exits_2(self):
        proc = run_cli("sweep", "--rp-range", "0..1")
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "rp, rq", [("1_0..1_0", "0..0"), ("0..0", " +0..٠"), ("+1..2", "0..0"), ("0..0", "0..٣")]
    )
    def test_range_uses_the_weight_grammar(self, rp, rq):
        # The endpoints follow 0|-?[1-9][0-9]*, as bundle weights do; int() alone
        # once ran "1_0..1_0" as 10:0.
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
            status = main(["sweep", "--rp-range", rp, "--rq-range", rq, "--checks", "gluing"])
        assert status == 2
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: bad range ")

    def test_descending_range_exits_2(self):
        proc = run_cli("sweep", "--rp-range", "1..0", "--rq-range", "0..0")
        assert proc.returncode == 2
        assert "bad range" in proc.stderr

    def test_timestamps(self):
        proc = run_cli("sweep", "--rp-range", "0..0", "--rq-range", "0..0", "--timestamps")
        obj = json.loads(proc.stdout)
        assert "generated_at" in obj
        plain = json.loads(run_cli("sweep", "--rp-range", "0..0", "--rq-range", "0..0").stdout)
        assert "generated_at" not in plain
        # The stamp is the report's last member: without its line and the
        # comma before it, the text is the unstamped run's, byte for byte.
        for argv in (
            ("sweep", "--rp-range", "0..0", "--rq-range", "0..0"),
            ("verify", "1:-1,2:2"),
            ("cohomology", "1:-1,2:2"),
            ("cut", "1:-1,2:2"),
        ):
            stamped = run_cli(*argv, "--timestamps").stdout
            assert list(json.loads(stamped))[-1] == "generated_at"
            lines = stamped.split("\n")
            (at,) = [i for i, line in enumerate(lines) if line.startswith('  "generated_at": ')]
            assert lines[at - 1].endswith(",")
            lines[at - 1] = lines[at - 1][:-1]
            del lines[at]
            assert "\n".join(lines) == run_cli(*argv).stdout

    def test_json_report_needs_no_object_model(self):
        # The CLI writes a report's JSON text directly; SweepReport.to_json_obj
        # reads that text back for library callers, so the CLI never calls it.
        argv = ["sweep", "--rp-range", "-2..2", "--rq-range", "-2..2"]
        want = json.dumps(json_model.report(sweep(grid_bundles((-2, 2), (-2, 2)))), indent=2) + "\n"

        def refuse(self):
            raise AssertionError("to_json_obj called")

        with mock.patch.object(SweepReport, "to_json_obj", refuse):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(argv) == 0
        assert out.getvalue() == want

    def test_timestamps_leave_csv_alone(self):
        # A stamp line would break CSV readers, so CSV carries none.
        argv = ["sweep", "--rp-range", "-1..1", "--rq-range", "-1..1", "--format", "csv"]
        texts = []
        for extra in ([], ["--timestamps"]):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(argv + extra) == 0
            texts.append(out.getvalue())
        assert texts[0] == texts[1]
        assert texts[0].startswith("r_P,r_Q,check_id,passed,witness\n")


def _table_json_obj(command: str, literal: str) -> dict:
    """What ``command`` writes for ``literal``, as plain values from ``json_model``."""
    bundle = EquivBundleCP1.parse(literal)
    if command == "cohomology":
        return json_model.table(cohomology(bundle))
    cutd = cut(bundle)
    return {
        "bundle": bundle.literal(),
        "plus": json_model.table(cohomology(cutd.plus), bundle=cutd.plus.literal()),
        "minus": json_model.table(cohomology(cutd.minus), bundle=cutd.minus.literal()),
        "red_dims": list(cutd.red_dims),
        "mcut": json_model.table(mcut_cohomology(cutd)[0]),
    }


class TestTableJsonText:
    """``cohomology`` and ``cut`` write exactly what json.dumps writes of their plain values."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["cohomology", "cut"]),
        st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=1, max_size=3),
        st.booleans(),
    )
    def test_equals_json_dumps(self, command, weights, stamped):
        literal = ",".join(f"{rp}:{rq}" for rp, rq in weights)
        obj = _table_json_obj(command, literal)
        argv = [command, literal]
        if stamped:
            argv.append("--timestamps")
            obj["generated_at"] = "2001-02-03T04:05:06Z"
        with mock.patch("cutchar.cli._timestamp", lambda: "2001-02-03T04:05:06Z"):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                assert main(argv) == 0
        assert out.getvalue() == json.dumps(obj, indent=2) + "\n"


class TestTimestamp:
    def test_utc_whatever_the_local_zone(self, monkeypatch):
        # A POSIX zone string five and a half hours east of UTC, so no zone database is needed.
        monkeypatch.setenv("TZ", "XYZ-05:30")
        time.tzset()
        try:
            assert time.localtime().tm_gmtoff == 19800
            before = int(time.time())
            stamp = _timestamp()
            after = time.time()
        finally:
            monkeypatch.undo()
            time.tzset()
        assert before <= calendar.timegm(time.strptime(stamp, "%Y-%m-%dT%H:%M:%SZ")) <= after


class TestSweepConfig:
    def write_config(self, tmp_path, obj):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(obj))
        return str(path)

    def test_bundles_config(self, tmp_path):
        cfg = self.write_config(
            tmp_path, {"bundles": ["0:0", "2:2"], "checks": ["gluing", "mcut"]}
        )
        proc = run_cli("sweep", "--config", cfg)
        assert proc.returncode == 0
        report = sweep([EquivBundleCP1.parse("0:0"), EquivBundleCP1.parse("2:2")], ("gluing", "mcut"))
        assert proc.stdout == json_text(report)
        assert [b.literal() for b in report.grid] == ["0:0", "2:2"]
        assert set(report.summary) == {"gluing", "mcut"}

    def test_grid_config_with_output(self, tmp_path):
        out = tmp_path / "report.md"
        cfg = self.write_config(
            tmp_path,
            {
                "grid": {"rp_range": "0..1", "rq_range": "0..0"},
                "output": {"path": str(out), "format": "md"},
            },
        )
        proc = run_cli("sweep", "--config", cfg)
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert "# Sweep report" in out.read_text()

    def test_flags_override_config(self, tmp_path):
        cfg = self.write_config(tmp_path, {"bundles": ["0:0"], "checks": ["gluing"]})
        proc = run_cli("sweep", "--config", cfg, "--checks", "oracle", "--format", "csv")
        assert proc.returncode == 0
        lines = proc.stdout.splitlines()
        assert lines[1] == "0,0,oracle,true,"

    def test_range_flags_override_config_grid(self, tmp_path):
        cfg = self.write_config(tmp_path, {"grid": {"rp_range": "5..9", "rq_range": "5..9"}})
        proc = run_cli(
            "sweep", "--config", cfg, "--rp-range", "0..0", "--rq-range", "0..0",
            "--checks", "gluing",
        )
        report = sweep([EquivBundleCP1.parse("0:0")], ("gluing",))
        assert proc.stdout == json_text(report)
        assert [b.literal() for b in report.grid] == ["0:0"]

    def test_both_sources_rejected(self, tmp_path):
        cfg = self.write_config(
            tmp_path,
            {"bundles": ["0:0"], "grid": {"rp_range": "0..0", "rq_range": "0..0"}},
        )
        proc = run_cli("sweep", "--config", cfg)
        assert proc.returncode == 2
        assert "exactly one" in proc.stderr

    def test_unknown_key_rejected(self, tmp_path):
        cfg = self.write_config(tmp_path, {"bundles": ["0:0"], "plot": True})
        proc = run_cli("sweep", "--config", cfg)
        assert proc.returncode == 2

    def test_bad_check_id_rejected(self, tmp_path):
        cfg = self.write_config(tmp_path, {"bundles": ["0:0"], "checks": ["bogus"]})
        proc = run_cli("sweep", "--config", cfg)
        assert proc.returncode == 2

    @pytest.mark.parametrize("entry", ["gluing,mcut", "all", " gluing", ""])
    def test_each_checks_entry_is_one_id(self, tmp_path, entry):
        # No entry is split on commas, and "all" is a flag value only.
        cfg = self.write_config(tmp_path, {"bundles": ["0:0"], "checks": [entry]})
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["sweep", "--config", cfg]) == 2
        assert out.getvalue() == ""
        known = "gluing, mcut, morse, mv, simple, semicontinuity, oracle"
        assert err.getvalue() == f"error: config {cfg!r}: unknown check id {entry!r}; known: {known}\n"

    def test_unreadable_config_exits_2(self, tmp_path):
        proc = run_cli("sweep", "--config", str(tmp_path / "missing.json"))
        assert proc.returncode == 2

    def test_config_fail_fast_stops_after_the_first_failure(self, tmp_path, monkeypatch, capsys):
        def always_fails(t):
            return CheckResult("gluing", t.bundle, False, residual=CharPoly([1]))

        monkeypatch.setitem(_REGISTRY, "gluing", always_fails)
        ran = {}
        for fail_fast in (True, False):
            cfg = self.write_config(
                tmp_path, {"bundles": ["0:0", "2:2"], "checks": ["gluing", "mcut"], "fail_fast": fail_fast}
            )
            assert main(["sweep", "--config", cfg]) == 1
            bundles = [EquivBundleCP1.parse("0:0"), EquivBundleCP1.parse("2:2")]
            report = sweep(bundles, ("gluing", "mcut"), fail_fast=fail_fast)
            assert capsys.readouterr().out == json_text(report)
            ran[fail_fast] = [[(r.bundle.literal(), r.check_id) for r in row] for row in report.results]
        assert ran[True] == [[("0:0", "gluing")]]
        assert ran[False] == [[("0:0", "gluing"), ("0:0", "mcut")], [("2:2", "gluing"), ("2:2", "mcut")]]


class TestEqualityRegion:
    def test_default_markdown(self):
        proc = run_cli("equality-region", "--rp-range", "-1..1", "--rq-range", "-1..1")
        assert proc.returncode == 0
        assert "## Claimed equality region" in proc.stdout

    def test_json_carries_claimed_region(self):
        proc = run_cli(
            "equality-region", "--rp-range", "-1..1", "--rq-range", "-1..1",
            "--format", "json",
        )
        report = equality_region((-1, 1), (-1, 1))
        assert proc.stdout == json_text(report)
        assert report.claimed_region is not None and "claimed_region" in json.loads(proc.stdout)
        assert set(report.summary) == {"mcut", "morse"}

    def test_requires_ranges(self):
        proc = run_cli("equality-region")
        assert proc.returncode == 2

    def test_failing_check_exits_1(self, monkeypatch, capsys):
        def always_fails(t):
            return CheckResult("mcut", t.bundle, False, residual=CharPoly([1]))

        monkeypatch.setitem(_REGISTRY, "mcut", always_fails)
        assert main(["equality-region", "--rp-range", "-1..1", "--rq-range", "0..0", "--format", "json"]) == 1
        report = equality_region((-1, 1), (0, 0))
        assert capsys.readouterr().out == json_text(report)
        assert not report.passed


class TestUsage:
    def test_no_command_exits_2(self):
        assert run_cli().returncode == 2

    def test_unknown_command_exits_2(self):
        assert run_cli("frobnicate").returncode == 2

    def test_help_exits_0(self):
        proc = run_cli("--help")
        assert proc.returncode == 0
        assert "equality-region" in proc.stdout

    @pytest.mark.parametrize(
        ("argv", "parsers"),
        [
            (["verify", "1:0", "--checks", "gluing"], 0),
            (["verify", "1:0", "--chec", "gluing"], 6),
            (["--help"], 6),
            (["bogus"], 6),
            ([], 6),
        ],
        ids=["scanned", "abbreviated-option", "help", "unknown-command", "no-command"],
    )
    def test_builds_every_parser_unless_scanned(self, argv, parsers, monkeypatch, capsys):
        """A scanned argv builds no parser; any other builds the top-level parser and every command's."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        with contextlib.suppress(SystemExit):
            main(argv)
        assert len(built) == parsers


# Each command's options, in full.
_OPTIONS = {
    "cohomology": ("--out", "--timestamps"),
    "cut": ("--out", "--timestamps"),
    "verify": ("--out", "--timestamps", "--checks", "--format"),
    "sweep": ("--out", "--timestamps", "--rp-range", "--rq-range", "--checks", "--format", "--fail-fast", "--config"),
    "equality-region": ("--out", "--timestamps", "--rp-range", "--rq-range", "--format"),
}
_ALL_OPTIONS = sorted({flag for flags in _OPTIONS.values() for flag in flags})
_scan_values = st.sampled_from(["", "1:0", "-3:0", "2:-1,-1:1", "0..1", "-1..1", "gluing", "all", "-x", "-", "xml"])
_scan_tokens = st.one_of(
    st.sampled_from(_ALL_OPTIONS),
    st.sampled_from(_ALL_OPTIONS).flatmap(lambda flag: st.integers(3, len(flag) - 1).map(lambda k: flag[:k])),
    st.tuples(st.sampled_from(_ALL_OPTIONS), _scan_values).map("=".join),
    st.sampled_from(["-h", "--help", "--", "--bogus"]),
    _scan_values,
)


@st.composite
def _scan_argv(draw):
    """A command, its positional (or not), and pieces: mostly one of its options with a value, else any token."""
    cmd = draw(st.sampled_from([*_OPTIONS, "bogus"]))
    own = st.sampled_from(_OPTIONS.get(cmd, _ALL_OPTIONS))
    value = _mostly(st.sampled_from(["json", "csv", "md", "0..1", "-1..1"]), _scan_values)
    piece = _mostly(st.tuples(own, value), st.tuples(_scan_tokens))
    pieces = draw(st.lists(piece, max_size=4))
    if cmd in ("cohomology", "cut", "verify") and draw(st.integers(0, 5)):
        pieces.insert(draw(st.integers(0, len(pieces))), (draw(_scan_values),))
    return [cmd, *(arg for piece in pieces for arg in piece)]


def _parsed(argv: list[str]) -> dict | None:
    """``vars`` of what argparse makes of ``argv``, or None when it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(argv))
        except SystemExit:
            return None


def _plain(argv: list[str]) -> bool:
    """A command, then values and its options in full: no help, ``--``, ``=`` or abbreviation."""
    if not argv or argv[0] not in _OPTIONS:
        return False
    return all(a[:1] != "-" or re.match(r"-[0-9]", a) or a in _OPTIONS[argv[0]] for a in argv[1:])


class TestScan:
    """``_scan`` gives argparse's namespace or nothing, and nothing only where argparse refuses a plain argv."""

    def agrees(self, argv):
        scanned, parsed = _scan(argv), _parsed(argv)
        if scanned is not None:
            assert vars(scanned) == parsed
        elif _plain(argv):
            assert parsed is None, argv
        return scanned

    @settings(max_examples=400, deadline=None)
    @example(["verify", "-3:0", "--format", "md", "--checks", "", "--timestamps"])
    @example(["equality-region", "--rq-range", "-1..1", "--rp-range", "0..1"])
    @given(_scan_argv())
    def test_agrees_with_argparse(self, argv):
        self.agrees(argv)

    @pytest.mark.parametrize("argv", [row[0] for row in GOLDEN], ids=" ".join)
    def test_agrees_on_golden_rows(self, argv):
        assert (self.agrees(argv) is not None) == (_plain(argv) and _parsed(argv) is not None)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "1:0", "--format", "xml"],
            ["verify", "1:0", "--checks", "-x"],
            ["verify", "1:0", "--checks"],
            ["equality-region", "--rp-range", "0..1"],
            ["verify", "1:0", "extra"],
            ["verify", "-", "--checks", "gluing"],
            ["verify", "1:0", "--form", "xml"],
        ],
        ids=["bad-choice", "dash-led-value", "missing-value", "missing-range", "extra", "lone-dash", "abbreviated"],
    )
    def test_leaves_to_argparse(self, argv, capsys):
        assert _scan(argv) is None
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        assert status == 2
        assert capsys.readouterr().err.count("error:") == 1


# Text near the two string tests' edges: ASCII digits and signs, an Arabic-Indic three and a
# superscript two (a decimal digit and a digit that is not decimal), and any character at all.
_near_weights = st.text(st.sampled_from("0123456789-+_ \u0663\u00b2") | st.characters(), max_size=6)


class TestStringTests:
    """The weight grammar and the dash-led value test are string tests, pinned here to the regexes they replace."""

    @settings(max_examples=400)
    @example("\u0663")
    @example("\u00b2")
    @example("-\u0663")
    @example("-\u00b2")
    @example("-")
    @example("-0")
    @example("+3")
    @example("1_0")
    @example("")
    @given(_near_weights | _near_weights.map("-".__add__))
    def test_match_the_regexes(self, text):
        try:
            value = _parse_weight(text, "weights")
        except ValueError as exc:
            assert str(exc) == f"weights must match {_WEIGHT}"
            assert not re.fullmatch(_WEIGHT, text)
        else:
            assert re.fullmatch(_WEIGHT, text) and value == int(text)
        assert _is_value(text) == (text[:1] != "-" or re.match(r"^-\d", text) is not None)


class TestRepeatedMain:
    """One process may call ``main`` many times; no call sees another's arguments."""

    def test_each_call_prints_what_it_prints_alone(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        cfg = tmp_path / "run.json"
        cfg.write_text(
            json.dumps(
                {
                    "bundles": ["1:-1", "2:2"],
                    "checks": ["gluing", "mcut"],
                    "output": {"path": str(out), "format": "md"},
                }
            )
        )
        calls = [
            ("sweep", "--config", str(cfg)),
            ("verify", "2:0", "--checks", "morse,oracle", "--format", "csv"),
            ("verify", "2:0", "--checks", "morse"),
            ("verify", "1:0", "--checks", "nonsense"),
            ("sweep", "--config", str(cfg)),
        ]

        def written():
            return out.read_text() if out.exists() else None

        alone = []
        for argv in calls:
            out.unlink(missing_ok=True)
            proc = run_cli(*argv)
            alone.append((proc.returncode, proc.stdout, proc.stderr, written()))
        capsys.readouterr()
        for argv, want in zip(calls, alone):
            out.unlink(missing_ok=True)
            status = main(list(argv))
            got = capsys.readouterr()
            assert (status, got.out, got.err, written()) == want, argv
        assert alone[0][3] and alone[2][1].startswith("{")


# Input errors that must exit 2 with one message.  Most once escaped as a
# traceback with exit status 1; an empty sweep --checks ran every check.
EXIT_2_CASES = [
    pytest.param(("sweep", "--config"), {"bundles": [5]}, id="config-bundle-int"),
    pytest.param(
        ("sweep", "--config"), {"grid": {"rp_range": 5, "rq_range": "0..1"}}, id="config-range-int"
    ),
    pytest.param(("sweep", "--config"), {"bundles": ["0:0"], "checks": [1]}, id="config-check-int"),
    pytest.param(
        ("sweep", "--config"), {"bundles": ["0:0"], "output": {"path": 7}}, id="config-path-fd7"
    ),
    pytest.param(
        ("sweep", "--config"), {"bundles": ["0:0"], "output": {"path": 1}}, id="config-path-stdout"
    ),
    pytest.param(("verify", "1:0", "--out", "/nonexistent/x.json"), None, id="unwritable-out"),
    pytest.param(("cohomology", "0:0", "--out", "/"), None, id="out-is-a-directory"),
    pytest.param(
        ("sweep", "--rp-range", "0..0", "--rq-range", "0..0", "--checks", ""), None,
        id="sweep-empty-checks",
    ),
    pytest.param(("verify", "1:0", "--checks", ""), None, id="verify-empty-checks"),
    # Raw bytes are written as they are, not as JSON.
    pytest.param(("sweep", "--config"), b"\xff\xfe", id="config-not-utf8"),
    pytest.param(("sweep", "--config"), b"[" * 100000 + b"]" * 100000, id="config-nested-deep"),
    pytest.param(
        ("sweep", "--config"),
        {"bundles": ["0:0"], "checks": ["gluing"], "output": {"path": "a\0b"}},
        id="config-path-nul",
    ),
]


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(-2, 2, width=16) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=3,
)


def _put(slot: str, value) -> dict:
    """A valid one-bundle config with ``value`` placed at ``slot``."""
    config = {"bundles": ["0:0"], "checks": ["gluing"]}
    if slot.startswith("grid"):
        del config["bundles"]
        config["grid"] = {"rp_range": "0..0", "rq_range": "0..0"}
    key, _, sub = slot.partition(".")
    if not sub:
        config[key] = value
    elif sub == "0":
        config[key] = [value]
    else:
        config.setdefault(key, {})[sub] = value
    return config


# slot -> whether a value there has the right type; null means "unset" where optional.
CONFIG_SLOTS = {
    "bundles": lambda v: isinstance(v, list),
    "bundles.0": lambda v: isinstance(v, str),
    "grid": lambda v: isinstance(v, dict),
    "grid.rp_range": lambda v: isinstance(v, str),
    "grid.rq_range": lambda v: isinstance(v, str),
    "checks": lambda v: isinstance(v, list),
    "checks.0": lambda v: isinstance(v, str),
    "fail_fast": lambda v: v is None or type(v) is bool,
    "output": lambda v: isinstance(v, dict),
    "output.path": lambda v: v is None or isinstance(v, str),
    "output.format": lambda v: v is None or isinstance(v, str),
}

wrong_typed = st.sampled_from(sorted(CONFIG_SLOTS)).flatmap(
    lambda slot: st.tuples(st.just(slot), json_values.filter(lambda v: not CONFIG_SLOTS[slot](v)))
)


class TestExitCodeContract:
    @pytest.mark.parametrize("argv, config", EXIT_2_CASES)
    def test_input_errors_exit_2(self, tmp_path, argv, config):
        if config is not None:
            path = tmp_path / "run.json"
            if isinstance(config, bytes):
                path.write_bytes(config)
            else:
                path.write_text(json.dumps(config))
            argv = (*argv, str(path))
        proc = run_cli(*argv)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    @settings(max_examples=60, deadline=None)
    @given(wrong_typed)
    def test_wrong_typed_config_value_exits_2(self, slot_value):
        slot, value = slot_value
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.json"
            path.write_text(json.dumps(_put(slot, value)))
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
                status = main(["sweep", "--config", str(path)])
        assert status == 2, (slot, value)
        assert err.getvalue().startswith("error: config"), err.getvalue()
        assert out.getvalue() == ""

    def test_config_path_with_nul_exits_2(self, capsys):
        # No OS argv can hold a NUL, so this runs in-process, unlike EXIT_2_CASES.
        assert main(["sweep", "--config", "a\0b"]) == 2
        got = capsys.readouterr()
        assert got.out == ""
        assert got.err.startswith("error:") and len(got.err.splitlines()) == 1


class _FullStdout(io.StringIO):
    """A stdout on a full device: ``method`` raises ENOSPC."""

    def __init__(self, method: str):
        super().__init__()
        setattr(self, method, self.fail)

    def fail(self, *args):
        raise OSError(28, "No space left on device")


class TestStdoutWriteFails:
    """A failed write to stdout is an output error, exit 2, not a failed check."""

    @pytest.mark.parametrize("method", ["write", "flush"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "1:-1"],
            ["cohomology", "0:0"],
            ["cut", "1:-1"],
            ["sweep", "--rp-range", "0..1", "--rq-range", "0..0", "--format", "csv"],
            ["equality-region", "--rp-range", "0..1", "--rq-range", "0..0"],
        ],
    )
    def test_exits_2_with_one_error_line(self, argv, method):
        err = io.StringIO()
        with contextlib.redirect_stdout(_FullStdout(method)), contextlib.redirect_stderr(err):
            assert main(argv) == 2
        assert err.getvalue() == "error: cannot write stdout: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full on this system")
    @pytest.mark.parametrize("argv", [["verify", "1:-1"], ["cohomology", "0:0"]])
    def test_dev_full(self, argv):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "cutchar", *argv], stdout=full, stderr=subprocess.PIPE, text=True
            )
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write stdout: [Errno 28] No space left on device\n"


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full on this system")
def test_failed_write_to_out_names_the_path_quoted(capsys):
    assert main(["cohomology", "0:0", "--out", "/dev/full"]) == 2
    assert capsys.readouterr().err == "error: cannot write '/dev/full': [Errno 28] No space left on device\n"


# Outputs that cannot be opened: the command exits 2 before any check runs.
UNWRITABLE_OUTPUTS = [
    pytest.param(["sweep", "--config", "@config@"], {"output": {"path": "a\0b"}}, id="config-path-nul"),
    pytest.param(["sweep", "--config", "@config@", "--out", "@tmp@"], {}, id="sweep-out-is-a-directory"),
    pytest.param(["verify", "1:-1,2:2", "--out", "@tmp@/no/x.json"], None, id="verify-out-missing-dir"),
    pytest.param(
        ["equality-region", "--rp-range", "0..1", "--rq-range", "0..1", "--out", "@tmp@"], None,
        id="equality-region-out-is-a-directory",
    ),
]


class TestOutputOpenedFirst:
    @pytest.mark.parametrize("argv, config", UNWRITABLE_OUTPUTS)
    def test_no_check_runs(self, tmp_path, capsys, argv, config):
        calls = []

        def counted(fn):
            def run(t):
                calls.append(t.bundle)
                return fn(t)

            return run

        if config is not None:
            (tmp_path / "run.json").write_text(json.dumps({"bundles": ["1:-1", "2:2"], **config}))
        cfg = str(tmp_path / "run.json")
        argv = [a.replace("@config@", cfg).replace("@tmp@", str(tmp_path)) for a in argv]
        with mock.patch.dict(_REGISTRY, {cid: counted(fn) for cid, fn in _REGISTRY.items()}):
            status = main(argv)
        assert status == 2
        assert capsys.readouterr().err.startswith("error: cannot write")
        assert calls == []

    def test_bad_input_leaves_the_output_file_alone(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        out.write_text("kept")
        assert main(["verify", "1:0", "--checks", "nope", "--out", str(out)]) == 2
        assert out.read_text() == "kept"


# Argv and config fuzzing.  Weights stay within |w| <= 40 and ranges at most
# two wide, so every run is small; "@out@" and "@config@" stand for files in
# a fresh directory per example.
def _mostly(valid, invalid):
    """Three draws in four from ``valid``, so that runs get past the parser."""
    return st.integers(0, 3).flatmap(lambda k: valid if k else invalid)


_weight = st.integers(-40, 40).map(str)
_literal = st.lists(st.tuples(_weight, _weight).map(":".join), min_size=1, max_size=3).map(",".join)
_garble = st.sampled_from(["", "_", "+", ":", ",", " ", "..", "a", "\u0663", "-"])
_malformed = st.one_of(
    st.text(alphabet="-:,.1_+ a\u0663", max_size=4),
    st.tuples(_garble, _literal, _garble).map("".join),
)
_bundle_text = _mostly(_literal, _malformed)
_range = st.tuples(st.integers(-40, 40), st.integers(0, 1)).map(lambda t: f"{t[0]}..{t[0] + t[1]}")
_range_text = _mostly(_range, _malformed | st.integers(-40, 40).map(lambda a: f"{a}..{a - 1}"))
_check_list = st.lists(st.sampled_from(ALL_CHECKS), min_size=1, max_size=3)
_check_text = _mostly(
    st.just("all") | _check_list.map(",".join),
    st.lists(st.sampled_from([*ALL_CHECKS, "all", "bogus", ""]), max_size=3).map(",".join),
)
_format = _mostly(st.sampled_from(["json", "csv", "md"]), st.just("xml"))

_config_options = {
    "checks": _check_list,
    "fail_fast": st.booleans(),
    "output": st.fixed_dictionaries({}, optional={"path": st.just("@out@"), "format": _format}),
}
_config_source = st.one_of(
    st.fixed_dictionaries({"bundles": st.lists(_literal, min_size=1, max_size=2)}),
    st.fixed_dictionaries({"grid": st.fixed_dictionaries({"rp_range": _range, "rq_range": _range})}),
)
_good_config = st.tuples(_config_source, st.fixed_dictionaries({}, optional=_config_options)).map(
    lambda parts: {**parts[0], **parts[1]}
)
_bad_config = st.fixed_dictionaries(
    {},
    optional={
        "bundles": st.lists(_bundle_text, max_size=2) | json_values,
        "grid": st.fixed_dictionaries({"rp_range": _range_text, "rq_range": _range_text}) | json_values,
        "plot": json_values,
        **{key: value | json_values for key, value in _config_options.items()},
    },
)
_good_json = _good_config.map(lambda obj: json.dumps(obj).encode())
_config_bytes = _mostly(
    _good_json,
    _bad_config.map(lambda obj: json.dumps(obj).encode())
    | _good_json.flatmap(lambda raw: st.integers(0, len(raw) - 1).map(lambda i: raw[:i]))
    | st.binary(max_size=24),
)


@st.composite
def cli_runs(draw):
    """One argv, with the raw bytes of its config file when it names one.

    The positional and the options come in any order, an option may be
    repeated, abbreviated or written ``--opt=value``, and a ``--`` may lead
    the positional: the scanner reads some of these argv, argparse the rest.
    """
    commands = st.sampled_from(["cohomology", "cut", "verify", "sweep", "equality-region"])
    cmd = draw(_mostly(commands, st.just("x")))
    pieces, config = [], None

    def spelled(flag, values=None):
        how = draw(st.sampled_from(["full", "full", "full", "abbreviated", "joined"]))
        name = flag[: draw(st.integers(3, len(flag) - 1))] if how == "abbreviated" else flag
        if values is None:
            return [name]
        return [f"{name}={draw(values)}"] if how == "joined" else [name, draw(values)]

    def maybe(flag, values=None):
        for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
            pieces.append(spelled(flag, values))

    if cmd in ("cohomology", "cut", "verify"):
        bundle = draw(_bundle_text)
        pieces.append(["--", bundle] if draw(st.integers(0, 7)) == 0 else [bundle])
    if cmd in ("sweep", "equality-region"):
        for flag in ("--rp-range", "--rq-range")[: draw(st.sampled_from([2, 2, 1, 0]))]:
            pieces.append(spelled(flag, _range_text))
    if cmd in ("verify", "sweep"):
        maybe("--checks", _check_text)
    if cmd in ("verify", "sweep", "equality-region"):
        maybe("--format", _format)
    if cmd == "sweep":
        maybe("--fail-fast")
        if draw(st.booleans()):
            config = draw(_config_bytes)
            pieces.append(spelled("--config", st.just("@config@")))
    maybe("--out", st.just("@out@"))
    return [cmd, *(arg for piece in draw(st.permutations(pieces)) for arg in piece)], config


def _holds_failed_check(text: str) -> bool:
    if text.startswith("{"):
        return any(not r["passed"] for row in json.loads(text).get("results", []) for r in row)
    if text.startswith("r_P,"):
        return any(row["passed"] == "false" for row in csv.DictReader(io.StringIO(text)))
    return "- Overall: FAIL" in text


class TestFuzzMain:
    """``main`` in-process on generated argv and config bytes keeps the exit contract."""

    @settings(max_examples=200, deadline=None)
    @example((["sweep", "--config", "@config@"], b"\xff\xfe"), None)
    @example((["sweep", "--config", "@config@"], b"[" * 100000 + b"]" * 100000), None)
    @example((["sweep", "--config", "a\0b"], None), None)
    # Weights of more digits than int() converts by default, as a bundle, a range flag and a config range.
    @example((["verify", f"{LONG}:0"], None), None)
    @example((["sweep", "--rp-range", f"0..{LONG}", "--rq-range", "0..0"], None), None)
    @example(
        (["sweep", "--config", "@config@"], b'{"grid": {"rp_range": "0..%s", "rq_range": "0..0"}}' % LONG.encode()),
        None,
    )
    @given(cli_runs(), st.none() | st.sampled_from(ALL_CHECKS))
    def test_exit_status_contract(self, run, broken):
        argv, config = run
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            out, cfg = Path(tmp) / "out", Path(tmp) / "run.json"
            if config is not None:
                cfg.write_bytes(config.replace(b"@out@", json.dumps(str(out))[1:-1].encode()))
            argv = [a.replace("@out@", str(out)).replace("@config@", str(cfg)) for a in argv]

            def fails(t):  # the drawn check, if any, fails on every bundle
                return CheckResult(broken, t.bundle, False, residual=CharPoly([1]))

            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                with mock.patch.dict(_REGISTRY, {broken: fails} if broken else {}):
                    try:
                        status = main(argv)
                    except SystemExit as exc:  # argparse rejects the argv
                        status = exc.code
            report = out.read_text() if out.exists() else stdout.getvalue()
        assert status in (0, 1, 2), status
        errors = [line for line in stderr.getvalue().splitlines() if "error:" in line]
        assert (status == 2) == (len(errors) == 1), (status, stderr.getvalue())
        assert len(errors) <= 1, stderr.getvalue()
        assert (status == 1) == _holds_failed_check(report), (status, report)
